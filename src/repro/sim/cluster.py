"""Simulated BlobSeer deployment: real control plane, simulated data plane.

The key idea of the simulation substrate (see DESIGN.md): the *control
plane* — version assignment, chunk placement, the versioned segment tree and
its distribution over the metadata DHT — is executed by the **real** library
code, so every protocol decision (who stores which chunk, which metadata
provider owns which tree node, in which order versions publish) is exactly
what the functional system would do.  Only *time* is simulated: every RPC
and every byte transferred is charged against the contended NICs and
service stations of :mod:`repro.sim.network`.

This module builds the simulated cluster: one :class:`~repro.sim.network.SimNode`
per process of the architecture (version manager, provider manager, data
providers, metadata providers, clients), plus the real control-plane
objects shared by all simulated clients.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..core.config import BlobSeerConfig
from ..core.provider_manager import ProviderManager
from ..core.types import BlobInfo
from ..core.version_coordinator import ShardedVersionManager
from ..dht.distributed_store import DistributedKeyValueStore
from ..resilience.scrub import AntiEntropyScrubber
from .engine import Environment, all_of
from .metrics import MetricsCollector
from .network import NetworkModel, SimNode, ensure_version_manager_node


@dataclass
class SimProviderEntry:
    """Bookkeeping for one simulated data provider (no payloads stored)."""

    provider_id: str
    chunks_stored: int = 0
    bytes_stored: int = 0
    bytes_read: int = 0
    reads_served: int = 0
    writes_served: int = 0
    alive: bool = True
    failures: int = 0

    def report(self) -> Dict[str, Any]:
        return {
            "provider_id": self.provider_id,
            "alive": self.alive,
            "chunks_stored": self.chunks_stored,
            "bytes_stored": self.bytes_stored,
            "bytes_read": self.bytes_read,
            "reads_served": self.reads_served,
            "writes_served": self.writes_served,
            "failures": self.failures,
        }


class SimProviderPool:
    """Duck-typed stand-in for :class:`~repro.core.data_provider.ProviderPool`.

    The provider manager only needs membership, liveness and a load signal;
    the simulated pool tracks those without ever holding chunk payloads.
    Providers placed in ``excluded`` stay readable but receive no new
    allocations — the QoS feedback controller uses this to steer writes away
    from failure-prone machines.
    """

    def __init__(self, provider_ids: List[str]) -> None:
        self._entries: Dict[str, SimProviderEntry] = {
            pid: SimProviderEntry(provider_id=pid) for pid in provider_ids
        }
        #: Providers excluded from new allocations (QoS feedback action).
        self.excluded: set = set()

    @property
    def provider_ids(self) -> List[str]:
        return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, provider_id: str) -> SimProviderEntry:
        return self._entries[provider_id]

    def live_provider_ids(self) -> List[str]:
        live = sorted(
            pid
            for pid, e in self._entries.items()
            if e.alive and pid not in self.excluded
        )
        if live:
            return live
        # If feedback excluded everything that is alive, fall back to liveness
        # only — excluding all providers must never wedge the system.
        return sorted(pid for pid, e in self._entries.items() if e.alive)

    def reports(self) -> List[Dict[str, Any]]:
        return [entry.report() for entry in self._entries.values()]

    def total_bytes_stored(self) -> int:
        return sum(e.bytes_stored for e in self._entries.values() if e.alive)


class SimulatedBlobSeer:
    """A BlobSeer deployment whose data plane runs on simulated time."""

    def __init__(
        self,
        config: Optional[BlobSeerConfig] = None,
        model: Optional[NetworkModel] = None,
        env: Optional[Environment] = None,
        seed: int = 0,
    ) -> None:
        self.config = config or BlobSeerConfig()
        self.model = model or NetworkModel()
        self.env = env or Environment()
        self.metrics = MetricsCollector()

        # -- real control plane -------------------------------------------------
        self.version_manager = ShardedVersionManager(
            num_shards=self.config.num_version_managers,
            virtual_nodes=self.config.dht_virtual_nodes,
        )
        #: Per-shard write-ahead journals (durability subsystem), when on.
        self.journals = None
        if self.config.journal_enabled:
            self.journals = self.version_manager.enable_durability(
                snapshot_interval=self.config.journal_snapshot_interval,
                failover=self.config.shard_failover,
            )
        data_ids = [f"provider-{i:03d}" for i in range(self.config.num_data_providers)]
        meta_ids = [f"meta-{i:03d}" for i in range(self.config.num_metadata_providers)]
        self.provider_pool = SimProviderPool(data_ids)
        self.provider_manager = ProviderManager(
            pool=self.provider_pool, config=self.config, seed=seed
        )
        self.metadata_store = DistributedKeyValueStore(
            provider_ids=meta_ids,
            virtual_nodes=self.config.dht_virtual_nodes,
            replication=self.config.metadata_replication,
        )

        # -- simulated machines ----------------------------------------------------
        #: One machine per version-coordinator shard; commit RPCs are charged
        #: to the shard owning the blob, so a single coordinator saturates
        #: while a sharded service spreads the load.
        self.version_manager_nodes: List[SimNode] = [
            SimNode(
                self.env,
                f"version-manager-{index:03d}",
                self.model,
                role="version_manager",
            )
            for index in range(self.config.num_version_managers)
        ]
        self.provider_manager_node = SimNode(
            self.env, "provider-manager", self.model, role="provider_manager"
        )
        self.data_nodes: Dict[str, SimNode] = {
            pid: SimNode(self.env, pid, self.model, role="data_provider")
            for pid in data_ids
        }
        self.meta_nodes: Dict[str, SimNode] = {
            mid: SimNode(self.env, mid, self.model, role="metadata_provider")
            for mid in meta_ids
        }
        #: The anti-entropy scrubber's own machine (it is a service daemon,
        #: not a client: digest and repair traffic is charged to its NIC).
        self.scrub_node = SimNode(self.env, "scrubber", self.model, role="scrubber")
        self.scrubber = AntiEntropyScrubber(
            self.metadata_store, batch_size=self.config.scrub_batch_size
        )
        self._client_count = 0
        #: Event log of failure injections: (time, action, node_id).
        self.failure_log: List[Tuple[float, str, str]] = []
        #: Total metadata DHT round trips taken by all sim clients — one per
        #: recorded access, i.e. one bulk request per provider per level when
        #: vectored, zero when the client cache absorbs a lookup.  The QoS
        #: monitor samples its delta.
        self.metadata_rounds = 0
        #: Per-blob exclusive locks used only by the lock-based baseline (E9).
        self._blob_locks: Dict[int, Any] = {}
        #: When set, overrides every blob's replication level for new writes
        #: (QoS feedback action; ``None`` means "use the blob's own level").
        self.replication_override: Optional[int] = None
        #: Coordinator shards new blobs should steer clear of (QoS hot-shard
        #: feedback action; best-effort placement hint).
        self.avoid_vm_shards: set = set()

    # -- version-coordinator routing ------------------------------------------------
    @property
    def version_manager_node(self) -> SimNode:
        """The first coordinator shard's machine (single-shard compatibility)."""
        return self.version_manager_nodes[0]

    def version_node_for(self, blob_id: int) -> SimNode:
        """The simulated machine currently *serving* ``blob_id``.

        Normally the owning shard's machine; while that shard is crashed
        (and failover is on) requests are charged to the ring successor
        hosting the standby instead.
        """
        return self.version_manager_nodes[
            self.version_manager.active_shard_index(blob_id)
        ]

    @property
    def durable(self) -> bool:
        """Whether coordinator shards journal their commits (E13 cost model)."""
        return self.journals is not None

    # -- blobs --------------------------------------------------------------------
    def create_blob(
        self, chunk_size: Optional[int] = None, replication: Optional[int] = None
    ) -> BlobInfo:
        return self.version_manager.create_blob(
            chunk_size=chunk_size if chunk_size is not None else self.config.chunk_size,
            replication=replication if replication is not None else self.config.replication,
            avoid_shards=sorted(self.avoid_vm_shards) if self.avoid_vm_shards else None,
        )

    # -- clients --------------------------------------------------------------------
    def client(self, client_id: Optional[str] = None):
        """Create a simulated client (its own machine + metadata cache)."""
        from .protocols import SimClient  # local import avoids a cycle

        if client_id is None:
            client_id = f"client-{self._client_count:03d}"
            self._client_count += 1
        return SimClient(cluster=self, client_id=client_id)

    def effective_replication(self, blob: BlobInfo) -> int:
        """Replication level writes should use right now (feedback-aware)."""
        if self.replication_override is not None:
            return max(1, min(self.replication_override, len(self.provider_pool)))
        return blob.replication

    def blob_lock(self, blob_id: int):
        """Per-blob exclusive lock used by the lock-based baseline protocols."""
        from .resources import Resource  # local import keeps module load light

        lock = self._blob_locks.get(blob_id)
        if lock is None:
            lock = Resource(self.env, capacity=1)
            self._blob_locks[blob_id] = lock
        return lock

    # -- failure injection --------------------------------------------------------------
    def crash_data_provider(self, provider_id: str) -> None:
        self.provider_pool.get(provider_id).alive = False
        self.provider_pool.get(provider_id).failures += 1
        self.data_nodes[provider_id].crash()
        self.failure_log.append((self.env.now, "crash", provider_id))

    def recover_data_provider(self, provider_id: str) -> None:
        self.provider_pool.get(provider_id).alive = True
        self.data_nodes[provider_id].recover()
        self.failure_log.append((self.env.now, "recover", provider_id))

    def live_data_providers(self) -> List[str]:
        return self.provider_pool.live_provider_ids()

    def crash_metadata_provider(self, provider_id: str) -> None:
        """Crash a metadata DHT provider (its share of the ring goes dark)."""
        self.metadata_store.fail_provider(provider_id)
        self.meta_nodes[provider_id].crash()
        self.failure_log.append((self.env.now, "crash", provider_id))

    def recover_metadata_provider(self, provider_id: str, lose_data: bool = False) -> None:
        """Bring a metadata provider back, optionally with a wiped store.

        ``lose_data=True`` seeds exactly the under-replication the
        anti-entropy scrubber repairs (and read repair fixes piecemeal).
        """
        self.metadata_store.recover_provider(provider_id, lose_data=lose_data)
        self.meta_nodes[provider_id].recover()
        self.failure_log.append((self.env.now, "recover", provider_id))

    def live_metadata_providers(self) -> List[str]:
        return [
            pid
            for pid in self.metadata_store.provider_ids
            if self.metadata_store.is_alive(pid)
        ]

    def _coordinator_index(self, shard: "int | str") -> int:
        if isinstance(shard, int):
            return shard
        return self.version_manager.shard_ids.index(shard)

    def crash_coordinator_shard(self, shard: "int | str") -> None:
        """Crash a version-coordinator shard (in-memory state lost).

        With journaling + failover on, the shard's blobs immediately fail
        over to the standby on its ring successor; commit RPCs are charged
        to the successor's machine until the shard rejoins.
        """
        index = self._coordinator_index(shard)
        self.version_manager.crash_shard(index)
        self.version_manager_nodes[index].crash()
        self.failure_log.append(
            (self.env.now, "crash", self.version_manager.shard_ids[index])
        )

    def recover_coordinator_shard(self, shard: "int | str") -> int:
        """Restart a coordinator shard from its journal; returns catch-up size."""
        index = self._coordinator_index(shard)
        caught_up = self.version_manager.recover_shard(index)
        self.version_manager_nodes[index].recover()
        self.failure_log.append(
            (self.env.now, "recover", self.version_manager.shard_ids[index])
        )
        return caught_up

    def live_coordinator_shards(self) -> List[str]:
        return self.version_manager.live_shard_ids()

    # -- elastic coordinator membership -------------------------------------------------
    def add_coordinator_shard(self, shard_id: Optional[str] = None) -> Dict[str, Any]:
        """Scale the coordinator out by one shard at runtime.

        The control-plane migration (ring diff, journal-history streaming,
        epoch bump) executes through the real
        :meth:`~repro.core.version_coordinator.ShardedVersionManager.add_shard`;
        a machine is materialised for the new shard and its catch-up —
        replaying every streamed record — is charged against that machine's
        CPU, so commit RPCs routed to the newcomer queue behind the
        migration until it has caught up.
        """
        report = self.version_manager.add_shard(shard_id)
        node = ensure_version_manager_node(
            self.env, self.model, self.version_manager_nodes, int(report["index"])
        )
        self._charge_migration(node, report)
        self.failure_log.append((self.env.now, "scale_out", str(report["shard_id"])))
        return report

    def remove_coordinator_shard(self, shard: "int | str") -> Dict[str, Any]:
        """Drain and retire a coordinator shard at runtime.

        Each destination shard's catch-up (replaying its share of the
        drained histories) is charged at its machine; the retired slot's
        machine stays in place but receives no further traffic.
        """
        index = self._coordinator_index(shard)
        report = self.version_manager.remove_shard(index)
        total = int(report["records_streamed"])
        moved = max(1, int(report["moved_blobs"]))
        for dest, blobs in report["destinations"].items():  # type: ignore[union-attr]
            share = {**report, "records_streamed": total * blobs // moved}
            self._charge_migration(self.version_manager_nodes[dest], share)
        self.failure_log.append((self.env.now, "scale_in", str(report["shard_id"])))
        return report

    def _charge_migration(self, node: SimNode, report: Dict[str, Any]) -> None:
        """Occupy a migration destination's CPU for its journal catch-up."""
        records = int(report["records_streamed"])
        if records <= 0:
            return

        def catch_up(records=records) -> Iterator:
            yield from node.cpu.serve(self.model.migration_record_service * records)
            yield from node.downlink.serve(
                self.model.transfer_time(self.model.migration_record_bytes * records),
                self.model.migration_record_bytes * records,
            )

        self.env.process(catch_up(), name=f"migration-{node.node_id}")

    # -- anti-entropy scrubbing ---------------------------------------------------------
    def start_scrubber(
        self,
        horizon: float,
        interval: Optional[float] = None,
        initial_delay: Optional[float] = None,
        max_batches_per_tick: Optional[int] = None,
        backpressure_rpc_rate: Optional[float] = None,
    ) -> None:
        """Run periodic anti-entropy ticks until ``horizon`` sim-seconds.

        Each tick executes the real scrub logic instantaneously in
        control-plane terms, then charges simulated time for what it did:
        one membership-digest RPC per live metadata provider per batch,
        plus every bulk ``get_many``/repair round the tick actually issued
        (recorded through the store's access hook, replayed from the
        scrubber's own machine).

        Pacing: with ``max_batches_per_tick`` (default
        ``config.scrub_max_batches_per_tick``; 0 = unlimited) a tick
        advances the ring walk by at most that many batches — the scrubber
        persists its cursor, so a large ring is covered incrementally
        across ticks instead of in one burst.  With
        ``backpressure_rpc_rate`` (default
        ``config.scrub_backpressure_rpc_rate``; 0 = off) a tick is
        *skipped* whenever the clients' metadata RPC rate over the last
        window exceeded the threshold — scrubbing yields to foreground
        load and resumes where it left off once the window quietens.
        """
        interval = interval if interval is not None else self.config.scrub_interval
        if interval <= 0:
            raise ValueError("scrub interval must be > 0 to start the scrubber")
        delay = initial_delay if initial_delay is not None else interval
        if max_batches_per_tick is None:
            max_batches_per_tick = self.config.scrub_max_batches_per_tick
        batch_cap = max_batches_per_tick if max_batches_per_tick > 0 else None
        if backpressure_rpc_rate is None:
            backpressure_rpc_rate = self.config.scrub_backpressure_rpc_rate

        def loop() -> Iterator:
            last_rounds = self.metadata_rounds
            last_time = self.env.now
            yield self.env.timeout(delay)
            while self.env.now < horizon:
                window = max(self.env.now - last_time, 1e-9)
                client_rate = (self.metadata_rounds - last_rounds) / window
                last_rounds = self.metadata_rounds
                last_time = self.env.now
                if 0 < backpressure_rpc_rate < client_rate:
                    self.scrubber.skipped_ticks += 1
                else:
                    with self.record_metadata_accesses() as accesses:
                        tick = self.scrubber.run_tick(max_batches=batch_cap)
                    self.metadata_rounds += len(accesses)
                    # The backpressure signal is *client* load: keep the
                    # scrubber's own rounds out of the next window's delta
                    # or a repairing tick would suppress the one after it.
                    last_rounds += len(accesses)
                    yield from self._charge_scrub_pass(tick, accesses)
                if self.env.now >= horizon:
                    break
                yield self.env.timeout(interval)

        self.env.process(loop(), name="anti-entropy-scrubber")

    def _charge_scrub_pass(self, tick, accesses) -> Iterator:
        """Charge one scrub tick: digests per (provider, batch) + repair rounds."""
        live = self.live_metadata_providers()
        for _ in range(tick.batches):
            digests = [
                self.env.process(
                    self.scrub_node.rpc(
                        self.meta_nodes[pid],
                        request_bytes=self.model.scrub_digest_bytes,
                        response_bytes=self.model.scrub_digest_bytes,
                        service=self.model.scrub_digest_service,
                    ),
                    name=f"scrub-digest-{pid}",
                )
                for pid in live
            ]
            if digests:
                yield all_of(self.env, digests)
        from ..core.transport import charge_metadata_accesses

        def rpc_to(pid: str, request_bytes: int, response_bytes: int, service: float):
            return self.scrub_node.rpc(
                self.meta_nodes[pid],
                request_bytes=request_bytes,
                response_bytes=response_bytes,
                service=service,
            )

        yield from charge_metadata_accesses(
            self.env,
            all_of,
            self.model,
            rpc_to,
            accesses,
            leveled=False,
            name="scrub.meta",
        )

    # -- metadata access recording -----------------------------------------------------------
    @contextmanager
    def record_metadata_accesses(self) -> Iterator[List[Tuple[str, str, Any]]]:
        """Record every (metadata provider, op, key) access made inside the block.

        The simulated protocols execute the real segment-tree code inside
        this context (instantaneously, in control-plane terms) and then
        charge simulated time for each recorded access.
        """
        accesses: List[Tuple[str, str, Any]] = []

        def hook(provider_id: str, op: str, key: Any) -> None:
            accesses.append((provider_id, op, key))

        previous = self.metadata_store.access_hook
        self.metadata_store.access_hook = hook
        try:
            yield accesses
        finally:
            self.metadata_store.access_hook = previous

    # -- reporting -------------------------------------------------------------------------------
    def node_reports(self) -> List[Dict[str, Any]]:
        nodes = [*self.version_manager_nodes, self.provider_manager_node]
        nodes.extend(self.data_nodes.values())
        nodes.extend(self.meta_nodes.values())
        return [node.report() for node in nodes]

    def metadata_load(self) -> Dict[str, int]:
        """Entries per metadata provider — shows how well the DHT spreads load."""
        return self.metadata_store.load_per_provider()

    def run(self, until: Optional[float] = None) -> float:
        """Advance the simulation (convenience passthrough)."""
        return self.env.run(until=until)
