"""Deployment wiring: the one place a config becomes service objects.

A :class:`BlobSeerDeployment` owns all the service-side processes of one
BlobSeer instance — the data providers, the metadata-provider DHT, the
version manager and the provider manager — and hands out clients.  In the
real system these are separate processes on separate machines; here they
are in-process objects invoked through direct calls (functional testing,
examples) or driven by the discrete-event simulator (benchmarks), but the
protocol between them is the same.

Every deployment assembles its services through the builders below — the
in-process one, :class:`~repro.sim.cluster.SimulatedBlobSeer`, and
:class:`~repro.net.deployment.ProcessDeployment` with its server roles — so
each assembly knob of :class:`~repro.core.config.BlobSeerConfig` means the
same thing in all of them, or is rejected:

* :func:`resolve_storage_root` and :func:`make_data_provider` — a
  provider's chunk store (``persistent_storage``, ``storage_root``);
* :func:`make_metadata_store` — the metadata DHT (``dht_virtual_nodes``,
  ``metadata_replication``) over in-process stores or remote stubs, and
  :func:`make_metadata_node` — one member store;
* :func:`make_version_coordinator` and :func:`open_shard_journal` — the
  sharded version coordinator and its journals (``journal_enabled``,
  ``journal_snapshot_interval``, ``shard_failover``);
* :func:`provider_ledger` and :func:`simulated_provider_pool` — the
  payload-free pools a :class:`~repro.core.provider_manager.ProviderManager`
  places chunks over when the bytes live elsewhere.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..dht.distributed_store import DistributedKeyValueStore
from ..dht.store import KeyValueStore
from ..storage.cached_store import CachedChunkStore
from ..storage.memory_store import ChunkStore, MemoryChunkStore
from ..storage.persistent_store import PersistentChunkStore
from .config import BlobSeerConfig
from .data_provider import DataProvider, ProviderLedger, ProviderPool
from .errors import InvalidConfigError
from .provider_manager import ProviderManager
from .types import BlobInfo
from .version_coordinator import ShardedVersionManager

#: RAM cache in front of each persistent chunk log (the paper, IV.B).
CHUNK_CACHE_BYTES = 64 * 1024 * 1024


# -- data providers -----------------------------------------------------------------
def resolve_storage_root(config: BlobSeerConfig) -> Tuple[Optional[str], bool]:
    """``(root, owned)``: where persistent chunk stores live.

    ``root`` is ``None`` for RAM-only providers.  Without a configured
    ``storage_root`` a fresh temporary directory is made; ``owned`` tells
    the caller it must remove that directory when it closes.
    """
    if not config.persistent_storage:
        if config.storage_root is not None:
            raise InvalidConfigError("storage_root needs persistent_storage=True")
        return None, False
    if config.storage_root is not None:
        return config.storage_root, False
    return tempfile.mkdtemp(prefix="blobseer-"), True


def make_data_provider(index: int, storage_root: Optional[str]) -> DataProvider:
    """Provider ``index`` with a RAM chunk store, or with a persistent log
    under ``storage_root`` behind a RAM cache."""
    provider_id = f"provider-{index:03d}"
    store: ChunkStore = MemoryChunkStore()
    if storage_root is not None:
        # A bounded absent-key set lets repeated misses skip the backend.
        store = CachedChunkStore(
            PersistentChunkStore(Path(storage_root) / provider_id),
            cache_capacity_bytes=CHUNK_CACHE_BYTES,
            negative_capacity=1024,
        )
    return DataProvider(provider_id=provider_id, store=store, host=f"host-{index:03d}")


def provider_ledger(config: BlobSeerConfig) -> ProviderLedger:
    """A payload-free pool mirroring the provider fleet (placement input)."""
    return ProviderLedger([f"provider-{i:03d}" for i in range(config.num_data_providers)])


def simulated_provider_pool(config: BlobSeerConfig) -> ProviderLedger:
    """The simulator's pool: simulated providers hold no payloads, so a
    config asking for persistent chunk stores is rejected, not ignored."""
    if config.persistent_storage or config.storage_root is not None:
        raise InvalidConfigError(
            "the simulator's providers hold no payloads: "
            "persistent_storage and storage_root are not supported"
        )
    return provider_ledger(config)


# -- metadata and versioning ---------------------------------------------------------
def make_metadata_node(index: int) -> KeyValueStore:
    """One metadata provider's member store (a ``meta`` server process)."""
    return KeyValueStore(provider_id=f"meta-{index:03d}")


def make_metadata_store(
    config: BlobSeerConfig, stores: Optional[Mapping[str, Any]] = None
) -> DistributedKeyValueStore:
    """The metadata DHT; ``stores`` maps provider ids to remote stubs when
    the member stores live in other processes."""
    return DistributedKeyValueStore(
        provider_ids=[f"meta-{i:03d}" for i in range(config.num_metadata_providers)],
        virtual_nodes=config.dht_virtual_nodes,
        replication=config.metadata_replication,
        stores=stores,
    )


def make_version_coordinator(config: BlobSeerConfig) -> ShardedVersionManager:
    """The sharded version coordinator, journaled (with standbys) on request."""
    coordinator = ShardedVersionManager(
        num_shards=config.num_version_managers,
        virtual_nodes=config.dht_virtual_nodes,
    )
    if config.journal_enabled:
        coordinator.enable_durability(
            snapshot_interval=config.journal_snapshot_interval,
            failover=config.shard_failover,
        )
    return coordinator


def open_shard_journal(config: BlobSeerConfig, directory: str, index: int):
    """Reopen (or start) coordinator shard ``index``'s file-backed journal."""
    from ..resilience.journal import ShardJournal

    return ShardJournal.open(
        directory,
        shard_id=f"vm-{index:03d}",
        snapshot_interval=config.journal_snapshot_interval,
    )


class BlobSeerDeployment:
    """All service-side processes of one BlobSeer instance."""

    def __init__(self, config: Optional[BlobSeerConfig] = None, seed: int = 0) -> None:
        self.config = config or BlobSeerConfig()
        self._storage_root, self._owns_storage_root = resolve_storage_root(self.config)
        self.data_providers: List[DataProvider] = [
            make_data_provider(index, self._storage_root)
            for index in range(self.config.num_data_providers)
        ]
        self.provider_pool = ProviderPool(self.data_providers)
        self.metadata_store = make_metadata_store(self.config)
        # The version-coordinator service: blobs are routed to one of
        # ``num_version_managers`` shards, each its own serialisation domain.
        self.version_manager = make_version_coordinator(self.config)
        self.provider_manager = ProviderManager(self.provider_pool, self.config, seed=seed)
        self._next_client_id = 0

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

    def close(self) -> None:
        """Release any on-disk resources held by persistent stores."""
        for provider in self.data_providers:
            provider.close()
        if self._owns_storage_root and self._storage_root is not None:
            shutil.rmtree(self._storage_root, ignore_errors=True)
            self._storage_root = None

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
