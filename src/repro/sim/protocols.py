"""Simulated BlobSeer client protocols.

A :class:`SimClient` runs the read / write / append protocols of the paper
as discrete-event coroutines: every decision (placement, version numbers,
which metadata nodes exist and where they live) is taken by the real
control-plane code, and every message is charged against the simulated
cluster's NICs and service stations.  The generators returned by
:meth:`SimClient.write`, :meth:`SimClient.append` and :meth:`SimClient.read`
are meant to be wrapped in ``cluster.env.process(...)``; the workload
drivers in :mod:`repro.sim.driver` do exactly that.

A lock-based variant of the data phase (:meth:`SimClient.write_locked`,
:meth:`SimClient.read_locked`) is provided for the ablation experiment that
compares versioning-based concurrency control against a classical
reader/writer-lock design (DESIGN.md, experiment E9).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence, Tuple

from ..core.chunking import split_payload
from ..core.errors import InvalidRangeError, ServiceError
from ..core.interval import Interval, iter_chunks
from ..core.metadata.cache import MetadataCache, PassthroughMetadataStore
from ..core.metadata.segment_tree import SegmentTreeBuilder, SegmentTreeReader
from ..core.metadata.tree_node import Fragment
from ..core.types import BlobInfo, ChunkKey, Version
from .engine import all_of
from .metrics import OperationRecord
from .network import charge_metadata_accesses
from .resources import Resource


class SimClient:
    """One simulated client machine attached to a :class:`SimulatedBlobSeer`."""

    def __init__(self, cluster, client_id: str) -> None:
        from .network import SimNode  # local import to avoid cycles in docs builds

        self.cluster = cluster
        self.client_id = client_id
        self.node = SimNode(cluster.env, client_id, cluster.model, role="client")
        client_config = cluster.config.client
        if client_config.metadata_cache:
            self.metadata = MetadataCache(
                cluster.metadata_store, capacity=client_config.metadata_cache_capacity
            )
        else:
            self.metadata = PassthroughMetadataStore(cluster.metadata_store)

    # ------------------------------------------------------------------ utilities
    @property
    def env(self):
        return self.cluster.env

    @property
    def model(self):
        return self.cluster.model

    def _record(self, kind: str, nbytes: int, start: float, ok: bool, detail: str = "") -> None:
        self.cluster.metrics.record(
            OperationRecord(
                client_id=self.client_id,
                kind=kind,
                nbytes=nbytes,
                start=start,
                end=self.env.now,
                ok=ok,
                detail=detail,
            )
        )

    # ------------------------------------------------------------------ write path
    def write(self, blob: BlobInfo, offset: int, size: int) -> Generator:
        """Simulate ``write(offset, size)``; the process returns the new version."""
        yield from self._check_positive(size)
        start = self.env.now
        version = yield from self._do_write(blob, offset, size, is_append=False)
        self._record("write", size, start, ok=version is not None)
        return version

    def append(self, blob: BlobInfo, size: int) -> Generator:
        """Simulate ``append(size)``; the process returns the new version."""
        yield from self._check_positive(size)
        start = self.env.now
        version = yield from self._do_append(blob, size)
        self._record("append", size, start, ok=version is not None)
        return version

    def _check_positive(self, size: int) -> Generator:
        if size <= 0:
            raise InvalidRangeError("operation size must be > 0")
        return
        yield  # pragma: no cover - makes this a generator

    def _coordinator_rpc(self, blob: BlobInfo) -> Generator:
        """One coordinator round trip, charged at the machine of the shard
        *currently serving* the blob under the membership epoch in force —
        the owning shard normally, its failover host during a takeover, and
        the blob's new owner immediately after a shard add/remove moved it
        (the membership layer is the single routing truth; the simulator
        just asks it who to bill)."""
        yield from self.node.rpc(
            self.cluster.version_node_for(blob.blob_id),
            service=self.model.version_manager_service,
        )

    def _journal_charge(self, blob: BlobInfo, appends: int = 1) -> Generator:
        """Charge WAL persistence for ``appends`` records at the serving shard.

        Durability is not free: every commit-path request that mutates
        coordinator state appends to the shard's write-ahead log before it
        is acknowledged, so the append time serialises at the shard's CPU
        exactly like the request itself.  No-op when journaling is off.
        """
        if self.cluster.durable and appends > 0:
            node = self.cluster.version_node_for(blob.blob_id)
            yield from node.cpu.serve(self.model.journal_service * appends)

    def _do_write(
        self, blob: BlobInfo, offset: int, size: int, is_append: bool
    ) -> Generator:
        cluster = self.cluster
        model = self.model
        # Step 1: ask the provider manager where the chunks go.
        yield from self.node.rpc(
            cluster.provider_manager_node, service=model.provider_manager_service
        )
        write_id, plan = cluster.provider_manager.allocate(
            blob.blob_id, offset, size, blob.chunk_size, replication=cluster.effective_replication(blob),
        )
        # Step 2: push the chunks to the data providers (fully parallel).
        fragments, pushed_ok = yield from self._push_chunks(
            blob, write_id, plan, offset, size
        )
        if not pushed_ok:
            return None
        # Step 3: the serialised version assignment, at the serving shard.
        yield from self._coordinator_rpc(blob)
        try:
            ticket = cluster.version_manager.register_write(
                blob.blob_id, offset, size, writer=self.client_id
            )
        except ServiceError:
            # The owning coordinator shard is down with no failover path:
            # nothing was assigned, the operation just fails.
            return None
        yield from self._journal_charge(blob)
        # Steps 4-5: metadata weaving + publication.
        published = yield from self._build_and_publish(blob, ticket, fragments)
        return ticket.version if published else None

    def _do_append(self, blob: BlobInfo, size: int) -> Generator:
        cluster = self.cluster
        model = self.model
        # Appends take the version ticket first: the offset is assigned
        # atomically with the version.
        yield from self._coordinator_rpc(blob)
        try:
            ticket = cluster.version_manager.register_append(
                blob.blob_id, size, writer=self.client_id
            )
        except ServiceError:
            return None
        yield from self._journal_charge(blob)
        yield from self.node.rpc(
            cluster.provider_manager_node, service=model.provider_manager_service
        )
        write_id, plan = cluster.provider_manager.allocate(
            blob.blob_id, ticket.offset, size, blob.chunk_size, replication=cluster.effective_replication(blob),
        )
        fragments, pushed_ok = yield from self._push_chunks(
            blob, write_id, plan, ticket.offset, size
        )
        if not pushed_ok:
            # The version is already assigned: repair it so the frontier moves.
            try:
                cluster.version_manager.abort(blob.blob_id, ticket.version)
            except ServiceError:
                # Shard gone, no failover: the abort cannot be recorded; the
                # version stays pending until the shard's state returns.
                return None
            yield from self._journal_charge(blob)
            yield from self._repair(blob, ticket.version)
            return None
        published = yield from self._build_and_publish(blob, ticket, fragments)
        return ticket.version if published else None

    def _push_chunks(
        self, blob: BlobInfo, write_id: int, plan, offset: int, size: int
    ) -> Generator:
        """Push every chunk to its replica set; returns (fragments, all_ok)."""
        env = self.env
        pieces = list(iter_chunks(Interval.of(offset, size), blob.chunk_size))
        piece_processes = []
        for piece in pieces:
            providers = plan.providers_for(piece.start)
            piece_processes.append(
                env.process(
                    self._push_piece(piece.start, piece.size, providers),
                    name=f"{self.client_id}.push@{piece.start}",
                )
            )
        if piece_processes:
            yield all_of(env, piece_processes)
        fragments: List[Fragment] = []
        all_ok = True
        for piece, process in zip(pieces, piece_processes):
            successful: Tuple[str, ...] = tuple(process.value)
            if not successful:
                all_ok = False
                continue
            fragments.append(
                Fragment(
                    key=ChunkKey(blob.blob_id, write_id, piece.start),
                    providers=successful,
                    blob_offset=piece.start,
                    length=piece.size,
                    chunk_offset=0,
                )
            )
        return fragments, all_ok

    def _push_piece(
        self, blob_offset: int, nbytes: int, providers: Sequence[str]
    ) -> Generator:
        """Send one chunk to each of its replicas; returns the successful ones."""
        cluster = self.cluster
        model = self.model
        successful: List[str] = []
        for provider_id in providers:
            entry = cluster.provider_pool.get(provider_id)
            node = cluster.data_nodes[provider_id]
            if not entry.alive or not node.alive:
                continue
            yield from self.node.send_to(node, nbytes)
            yield from node.cpu.serve(model.chunk_service)
            if not entry.alive:  # crashed while the chunk was in flight
                continue
            entry.chunks_stored += 1
            entry.bytes_stored += nbytes
            entry.writes_served += 1
            successful.append(provider_id)
        return successful

    def _build_and_publish(
        self, blob: BlobInfo, ticket, fragments: Sequence[Fragment]
    ) -> Generator:
        """Steps 4-5 for one assigned ticket; returns whether it published.

        A weave failure here — for a plain write just as much as for an
        append — leaves an already-assigned version with no readable
        metadata.  Without an abort the published frontier (and therefore
        every later write of the blob) would stall behind the dead version
        forever, so the failure path aborts the ticket and installs no-op
        repair metadata before reporting the operation as failed.
        """
        cluster = self.cluster
        try:
            history = cluster.version_manager.get_history(blob.blob_id, ticket.version - 1)
        except ServiceError:
            # The shard died (without failover) between assignment and the
            # weave: nothing to abort against either — the op just fails,
            # the version stays pending until the shard's state returns.
            return False
        builder = SegmentTreeBuilder(self.metadata, blob.chunk_size)
        try:
            with cluster.record_metadata_accesses() as accesses:
                builder.build(
                    blob_id=blob.blob_id,
                    version=ticket.version,
                    write_interval=Interval.of(ticket.offset, ticket.size),
                    new_fragments=fragments,
                    history=history,
                    new_size=ticket.new_blob_size,
                )
        except Exception:
            yield from self._coordinator_rpc(blob)
            try:
                cluster.version_manager.abort(blob.blob_id, ticket.version)
            except ServiceError:
                return False
            yield from self._journal_charge(blob)
            yield from self._repair(blob, ticket.version)
            return False
        cluster.metadata_rounds += len(accesses)
        yield from self._charge_metadata_accesses(accesses, parallel=True)
        # Step 5: notify the serving version-coordinator shard (publication).
        yield from self._coordinator_rpc(blob)
        try:
            cluster.version_manager.publish(blob.blob_id, ticket.version)
        except ServiceError:
            # Shard down without failover between assignment and publication:
            # the snapshot is woven but never becomes visible — a failed op.
            return False
        yield from self._journal_charge(blob)
        return True

    def _repair(self, blob: BlobInfo, version: Version) -> Generator:
        """Install no-op metadata for an aborted append (see client library).

        The coordinator may crash in the window this runs in (simulated
        time passes between the abort and the repair); a ``ServiceError``
        then just leaves the version aborted-but-unrepaired — the shard's
        recovery replay restores the abort, and the frontier resumes once a
        later repair lands — rather than crashing the whole run.
        """
        cluster = self.cluster
        try:
            history = cluster.version_manager.get_history(blob.blob_id, version)
        except ServiceError:
            return
        record = history[version - 1]
        builder = SegmentTreeBuilder(self.metadata, blob.chunk_size)
        with cluster.record_metadata_accesses() as accesses:
            builder.build_noop(
                blob_id=blob.blob_id,
                version=version,
                write_interval=record.interval,
                history=history[: version - 1],
                new_size=record.new_size,
            )
        cluster.metadata_rounds += len(accesses)
        yield from self._charge_metadata_accesses(accesses, parallel=True)
        try:
            cluster.version_manager.mark_repaired(blob.blob_id, version)
        except ServiceError:
            return
        yield from self._journal_charge(blob)

    # ------------------------------------------------------------------ read path
    def read(
        self,
        blob: BlobInfo,
        offset: int,
        size: int,
        version: Optional[Version] = None,
        record: bool = True,
    ) -> Generator:
        """Simulate ``read(offset, size, version)``; returns the bytes read (count)."""
        cluster = self.cluster
        start = self.env.now
        # Step 1: ask the owning version-coordinator shard which snapshot to read.
        yield from self._coordinator_rpc(blob)
        try:
            snapshot = cluster.version_manager.get_snapshot(blob.blob_id, version)
        except ServiceError:
            if record:
                self._record("read", 0, start, ok=False, detail="coordinator down")
            return 0
        target = Interval.of(offset, size).intersection(Interval(0, snapshot.size))
        if target.empty:
            if record:
                self._record("read", 0, start, ok=True, detail="empty")
            return 0
        # Step 2: walk the segment tree (real code), charging a metadata RPC
        # per node that was not already in the client cache.
        reader = SegmentTreeReader(self.metadata, snapshot.chunk_size)
        with cluster.record_metadata_accesses() as accesses:
            fragments = reader.lookup(snapshot.root, target)
        cluster.metadata_rounds += len(accesses)
        yield from self._charge_metadata_accesses(accesses, parallel=False)
        # Step 3: fetch the chunks from the data providers, fully in parallel.
        fetchers = [
            self.env.process(
                self._fetch_fragment(fragment),
                name=f"{self.client_id}.fetch@{fragment.blob_offset}",
            )
            for fragment in fragments
        ]
        if fetchers:
            yield all_of(self.env, fetchers)
        ok = all(bool(proc.value) for proc in fetchers)
        if record:
            self._record("read", target.size, start, ok=ok)
        return target.size if ok else 0

    def _fetch_fragment(self, fragment: Fragment) -> Generator:
        """Fetch one fragment, failing over across replicas; returns success."""
        cluster = self.cluster
        model = self.model
        for provider_id in fragment.providers:
            entry = cluster.provider_pool.get(provider_id)
            node = cluster.data_nodes[provider_id]
            if not entry.alive or not node.alive:
                continue
            yield from self.node.send_to(node, 128)  # the request itself
            yield from node.cpu.serve(model.chunk_service)
            yield from node.send_to(self.node, fragment.length)
            entry.reads_served += 1
            entry.bytes_read += fragment.length
            return True
        return False

    # ------------------------------------------------------------------ metadata charging
    def _charge_metadata_accesses(
        self, accesses: Sequence[Tuple[str, str, object]], parallel: bool
    ) -> Generator:
        """Charge simulated time for every recorded metadata DHT access.

        The cost model is :func:`~repro.sim.network.charge_metadata_accesses`.
        Readers (``parallel=False``) walk levels root first because a
        parent must be read before its children are known; writers' weaves
        (``parallel=True``) overlap all their rounds.
        """
        if not accesses:
            return
        yield from charge_metadata_accesses(
            self.node,
            self.cluster.meta_nodes,
            accesses,
            leveled=not parallel,
            name=f"{self.client_id}.meta",
        )

    # ------------------------------------------------------------------ lock-based baseline
    def write_locked(self, blob: BlobInfo, offset: int, size: int) -> Generator:
        """Write under a per-blob exclusive lock (ablation baseline, E9).

        Models a classical design without versioning: the writer holds the
        blob lock for the whole data + metadata phase, so readers and other
        writers of the same blob serialise behind it.
        """
        start = self.env.now
        lock = self.cluster.blob_lock(blob.blob_id)
        grant = lock.request()
        yield grant
        try:
            version = yield from self._do_write(blob, offset, size, is_append=False)
        finally:
            lock.release()
        self._record("write", size, start, ok=version is not None, detail="locked")
        return version

    def read_locked(
        self, blob: BlobInfo, offset: int, size: int, version: Optional[Version] = None
    ) -> Generator:
        """Read under the per-blob lock (shared with writers — coarse-grain)."""
        start = self.env.now
        lock = self.cluster.blob_lock(blob.blob_id)
        grant = lock.request()
        yield grant
        try:
            nbytes = yield from self.read(blob, offset, size, version, record=False)
        finally:
            lock.release()
        self._record("read", nbytes, start, ok=True, detail="locked")
        return nbytes
