"""Deployment wiring: build a full BlobSeer service instance from a config.

A :class:`BlobSeerDeployment` owns all the service-side processes of one
BlobSeer instance — the data providers, the metadata-provider DHT, the
version manager and the provider manager — and hands out clients.  In the
real system these are separate processes on separate machines; here they
are in-process objects invoked through direct calls (functional testing,
examples) or driven by the discrete-event simulator (benchmarks), but the
protocol between them is the same.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Dict, List, Optional

from ..dht.distributed_store import DistributedKeyValueStore
from ..storage.cached_store import CachedChunkStore
from ..storage.memory_store import MemoryChunkStore
from ..storage.persistent_store import PersistentChunkStore
from .config import BlobSeerConfig
from .data_provider import DataProvider, ProviderPool
from .provider_manager import ProviderManager
from .types import BlobInfo
from .version_coordinator import ShardedVersionManager


class BlobSeerDeployment:
    """All service-side processes of one BlobSeer instance."""

    def __init__(self, config: Optional[BlobSeerConfig] = None, seed: int = 0) -> None:
        self.config = config or BlobSeerConfig()
        self._seed = seed
        self._tempdir: Optional[tempfile.TemporaryDirectory] = None

        self.data_providers: List[DataProvider] = [
            DataProvider(
                provider_id=f"provider-{index:03d}",
                store=self._make_store(index),
                host=f"host-{index:03d}",
            )
            for index in range(self.config.num_data_providers)
        ]
        self.provider_pool = ProviderPool(self.data_providers)
        self.metadata_store = DistributedKeyValueStore(
            provider_ids=[
                f"meta-{index:03d}" for index in range(self.config.num_metadata_providers)
            ],
            virtual_nodes=self.config.dht_virtual_nodes,
            replication=self.config.metadata_replication,
        )
        # The version-coordinator service: blobs are routed to one of
        # ``num_version_managers`` shards, each its own serialisation domain.
        self.version_manager = ShardedVersionManager(
            num_shards=self.config.num_version_managers,
            virtual_nodes=self.config.dht_virtual_nodes,
        )
        self.provider_manager = ProviderManager(
            pool=self.provider_pool, config=self.config, seed=seed
        )
        self._next_client_id = 0

    # -- construction helpers -----------------------------------------------------
    def _make_store(self, index: int):
        if not self.config.persistent_storage:
            return MemoryChunkStore()
        root = self.config.storage_root
        if root is None:
            if self._tempdir is None:
                self._tempdir = tempfile.TemporaryDirectory(prefix="blobseer-")
            root = self._tempdir.name
        provider_dir = Path(root) / f"provider-{index:03d}"
        persistent = PersistentChunkStore(provider_dir)
        # RAM cache in front of the persistent log, as in the paper (IV.B),
        # plus a bounded absent-key set so repeated misses skip the backend.
        return CachedChunkStore(
            persistent,
            cache_capacity_bytes=64 * 1024 * 1024,
            negative_capacity=1024,
        )

    # -- clients --------------------------------------------------------------------
    def client(self, client_id: Optional[str] = None, transport=None):
        """Create a new client attached to this deployment.

        ``transport`` selects the wiring the client's operations travel
        over (see :mod:`repro.core.transport`); the default is the direct
        in-process :class:`~repro.core.transport.DirectTransport`.
        """
        from .client import BlobSeerClient  # local import avoids a cycle

        if client_id is None:
            client_id = f"client-{self._next_client_id:03d}"
            self._next_client_id += 1
        return BlobSeerClient(deployment=self, client_id=client_id, transport=transport)

    def sim_client(self, client_id: Optional[str] = None, model=None):
        """Create a client whose transport runs on simulated network time.

        The returned client moves payloads for real (reads are byte-exact)
        but charges every transfer and RPC against the
        :class:`~repro.sim.network.NetworkModel`, so
        ``client.transport.now()`` measures honestly how long batched vs
        sequential operations would take on a contended network.
        """
        from .transport import SimTransport  # local import avoids a cycle

        if client_id is None:
            client_id = f"client-{self._next_client_id:03d}"
            self._next_client_id += 1
        transport = SimTransport.for_deployment(self, model=model, client_id=client_id)
        return self.client(client_id=client_id, transport=transport)

    # -- convenience shortcuts ---------------------------------------------------------
    def create_blob(
        self, chunk_size: Optional[int] = None, replication: Optional[int] = None
    ) -> BlobInfo:
        """Create a blob with deployment defaults for unspecified parameters."""
        return self.version_manager.create_blob(
            chunk_size=chunk_size if chunk_size is not None else self.config.chunk_size,
            replication=replication if replication is not None else self.config.replication,
        )

    # -- failure injection (used by tests and the QoS experiments) ----------------------
    def crash_data_provider(self, provider_id: str) -> None:
        self.provider_pool.get(provider_id).crash()

    def recover_data_provider(self, provider_id: str, lose_data: bool = False) -> None:
        self.provider_pool.get(provider_id).recover(lose_data=lose_data)

    def crash_metadata_provider(self, provider_id: str) -> None:
        self.metadata_store.fail_provider(provider_id)

    def recover_metadata_provider(self, provider_id: str, lose_data: bool = False) -> None:
        self.metadata_store.recover_provider(provider_id, lose_data=lose_data)

    # -- monitoring -------------------------------------------------------------------------
    def storage_report(self) -> List[Dict[str, object]]:
        """Monitoring records from every data provider (QoS input)."""
        return self.provider_pool.reports()

    def metadata_report(self) -> Dict[str, Dict[str, int]]:
        return self.metadata_store.access_stats()

    def close(self) -> None:
        """Release any on-disk resources held by persistent stores."""
        for provider in self.data_providers:
            store = getattr(provider, "_store", None)
            backend = getattr(store, "backend", None)
            for candidate in (store, backend):
                close = getattr(candidate, "close", None)
                if callable(close):
                    close()
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    def __enter__(self) -> "BlobSeerDeployment":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def make_deployment(config: Optional[BlobSeerConfig] = None, seed: int = 0):
    """Build the deployment the config asks for — in-process or networked.

    ``config.transport == "network"`` spawns a
    :class:`~repro.net.deployment.ProcessDeployment` (separate server
    processes over localhost TCP); anything else composes the in-process
    :class:`BlobSeerDeployment`.  Both expose the same facade, so callers
    flip one config field to move between them.
    """
    config = config or BlobSeerConfig()
    if config.transport == "network":
        from ..net.deployment import ProcessDeployment  # local import avoids a cycle

        return ProcessDeployment(config=config, seed=seed)
    return BlobSeerDeployment(config=config, seed=seed)
