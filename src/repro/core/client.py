"""Client library: the versioning-oriented access interface of BlobSeer.

The paper's access interface (Section I.B.1): a client can *create* a blob,
*read* a subsequence ``(offset, size)`` of any past snapshot, *write* a
subsequence at an arbitrary offset, and *append* to the end.  Every write
or append generates a new snapshot labelled with an incremental version;
only the difference is physically stored.

Write protocol (mirrors the paper / companion papers):

1. ask the **provider manager** where to place the chunks (and obtain a
   globally unique ``write_id`` naming them);
2. push the chunks to the **data providers** — concurrent writers do this
   completely independently of each other;
3. ask the **version manager** to assign the snapshot version (the only
   serialised step);
4. weave the new metadata tree into the **metadata DHT**, borrowing
   untouched subtrees from older snapshots;
5. notify the version manager, which publishes versions in assignment
   order.

Appends differ only in that step 3 happens first, because the append offset
is only known once the version manager assigns it atomically.

Since the batch redesign, operations are values (:mod:`repro.core.ops`) and
the client executes them in **batches** over a pluggable
:class:`~repro.core.transport.Transport`:

* :meth:`BlobSeerClient.batch` collects any mix of reads, writes and
  appends; ``submit()`` runs steps 1-2 of *every* write in the batch (and
  the fragment fetches of every read) fanned out together through the
  transport, takes the version assignments in submission order in one
  serialised round (step 3 stays the only serialised point), then weaves
  and publishes the metadata of all operations (steps 4-5) with their
  DHT traffic overlapped;
* the classic single-operation methods (:meth:`read`, :meth:`write`,
  :meth:`append`) are thin wrappers over one-operation batches, so their
  signatures, return values, raised exceptions and side effects are
  unchanged;
* failures are isolated per operation: a batch containing a failing write
  still completes its other operations, and the failure is reported on
  that operation's :class:`~repro.core.ops.OpResult` rather than raised
  globally (the wrappers re-raise, preserving the old behaviour).
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs import trace as obs_trace
from .chunking import reassemble, split_payload
from .config import ClientConfig
from .errors import (
    InvalidRangeError,
    ReplicationError,
    ServiceError,
)
from .interval import Interval
from .metadata.cache import MetadataCache, PassthroughMetadataStore
from .metadata.segment_tree import SegmentTreeBuilder, SegmentTreeReader, WriteRecord
from .metadata.tree_node import Fragment
from .ops import (
    AppendOp,
    Op,
    OpFuture,
    OpResult,
    OpStatus,
    OpTiming,
    ReadOp,
    WriteOp,
)
from .transport import (
    ChunkFetch,
    ChunkPush,
    ControlCall,
    DirectTransport,
    Transport,
    parallel_map,
)
from .types import BlobId, BlobInfo, ChunkKey, SnapshotInfo, Version, WriteTicket


class _Pending:
    """Mutable per-operation state while a batch executes."""

    __slots__ = (
        "index",
        "op",
        "error",
        "info",
        "snapshot",
        "target",
        "ticket",
        "write_id",
        "plan",
        "push_jobs",
        "fetch_jobs",
        "fragments",
        "read_fragments",
        "data",
        "needs_repair",
        "finished",
        "transfer_seconds",
        "metadata_seconds",
        "fragment_fetch_seconds",
        "connect_seconds",
        "send_seconds",
        "wait_seconds",
        "trace",
    )

    def __init__(self, index: int, op: Op) -> None:
        self.index = index
        self.op = op
        #: Per-op trace context (child of the batch root) when tracing is on.
        self.trace: Optional[obs_trace.TraceContext] = None
        self.error: Optional[BaseException] = None
        self.info: Optional[BlobInfo] = None
        self.snapshot: Optional[SnapshotInfo] = None
        self.target: Optional[Interval] = None
        self.ticket: Optional[WriteTicket] = None
        self.write_id: Optional[int] = None
        self.plan = None
        self.push_jobs: List[ChunkPush] = []
        self.fetch_jobs: List[ChunkFetch] = []
        self.fragments: List[Fragment] = []
        self.read_fragments: List[Fragment] = []
        self.data: Optional[bytes] = None
        self.needs_repair = False
        self.finished: Optional[float] = None
        self.transfer_seconds = 0.0
        self.metadata_seconds = 0.0
        self.fragment_fetch_seconds: List[float] = []
        # Socket-time breakdown (all zero on in-process transports).
        self.connect_seconds = 0.0
        self.send_seconds = 0.0
        self.wait_seconds = 0.0

    def add_net(self, net: Tuple[float, float, float]) -> None:
        """Fold one taken (connect, send, wait) triple into this op."""
        self.connect_seconds += net[0]
        self.send_seconds += net[1]
        self.wait_seconds += net[2]

    @property
    def failed(self) -> bool:
        return self.error is not None


class BlobSeerClient:
    """A client process attached to one BlobSeer deployment."""

    def __init__(
        self,
        deployment,
        client_id: str = "client-000",
        transport: Optional[Transport] = None,
    ) -> None:
        self._deployment = deployment
        self.client_id = client_id
        self._transport = (
            transport
            if transport is not None
            else DirectTransport.for_deployment(deployment)
        )
        client_config: ClientConfig = deployment.config.client
        if client_config.metadata_cache:
            self._metadata = MetadataCache(
                deployment.metadata_store,
                capacity=client_config.metadata_cache_capacity,
            )
        else:
            self._metadata = PassthroughMetadataStore(deployment.metadata_store)
        #: Operation counters (reads/writes issued, bytes moved) for harnesses.
        #: ``metadata_levels_fetched`` / ``metadata_put_rounds`` count metadata
        #: *round trips* (one per tree level read, one per tree built);
        #: ``metadata_base_leaf_polls`` the refetches of a base leaf that a
        #: concurrent writer has not stored yet.
        self.counters: Dict[str, int] = {
            "reads": 0,
            "writes": 0,
            "appends": 0,
            "batches": 0,
            "bytes_read": 0,
            "bytes_written": 0,
            "metadata_nodes_written": 0,
            "metadata_nodes_fetched": 0,
            "metadata_levels_fetched": 0,
            "metadata_put_rounds": 0,
            "metadata_base_leaf_polls": 0,
        }
        #: ``BlobInfo`` per blob id this client has seen.  No invalidation
        #: and no lock: the parameters are fixed at creation, ids are never
        #: reused, nothing deletes a blob (``drop_blob`` only moves one
        #: between coordinator shards), so racing fetches store equal values.
        self._blob_infos: Dict[BlobId, BlobInfo] = {}

    # -- blob lifecycle --------------------------------------------------------------
    def create_blob(
        self, chunk_size: Optional[int] = None, replication: Optional[int] = None
    ) -> "Blob":
        """Create a new empty blob and return a handle on it."""
        info = self._deployment.create_blob(chunk_size=chunk_size, replication=replication)
        self._blob_infos[info.blob_id] = info
        return Blob(client=self, info=info)

    def open_blob(self, blob_id: BlobId) -> "Blob":
        """Open an existing blob by id."""
        return Blob(client=self, info=self._blob_info(blob_id))

    def _blob_info(self, blob_id: BlobId) -> BlobInfo:
        """``blob_id``'s creation-time parameters (asked once, then cached)."""
        info = self._blob_infos.get(blob_id)
        if info is None:
            info = self._deployment.version_manager.blob_info(blob_id)
            self._blob_infos[blob_id] = info
        return info

    def list_blobs(self) -> List[BlobId]:
        return self._deployment.version_manager.blob_ids()

    # -- metadata plumbing ---------------------------------------------------------------
    @property
    def metadata_store(self):
        """The client's view of the metadata DHT (possibly through its cache)."""
        return self._metadata

    @property
    def metadata_cache_stats(self) -> Dict[str, int]:
        return self._metadata.stats

    def lookup_fragments(self, snapshot: SnapshotInfo, target: Interval) -> List[Fragment]:
        """Walk ``snapshot``'s segment tree for the fragments covering ``target``."""
        reader = SegmentTreeReader(self._metadata, snapshot.chunk_size)
        fragments = reader.lookup(snapshot.root, target)
        self.counters["metadata_nodes_fetched"] += reader.nodes_fetched
        self.counters["metadata_levels_fetched"] += reader.levels_fetched
        return fragments

    @property
    def deployment(self):
        return self._deployment

    @property
    def transport(self) -> Transport:
        """The wiring this client's operations travel over."""
        return self._transport

    # -- batched interface ----------------------------------------------------------------
    def batch(self) -> "Batch":
        """Start collecting operations for one pipelined submission."""
        return Batch(self)

    def session(self) -> "BlobSession":
        """Open a session: implicit batching with explicit ``flush()``."""
        return BlobSession(self)

    def submit_ops(self, ops: Sequence[Op]) -> List[OpResult]:
        """Execute a batch of operations through the transport.

        The protocol phases are pipelined *across* operations:

        1. control-plane setup in submission order — appends take their
           version tickets (their offset is assigned atomically with the
           version), writes and appends get placement plans, reads resolve
           their snapshot and walk the metadata tree;
        2. the data plane: chunk pushes of every write/append and fragment
           fetches of every read, all fanned out together;
        3. version assignment for writes, in submission order, in one
           coordinator call that runs one serialised round per owning shard
           (the only serialised step);
        4. metadata weaving for all new snapshots, DHT traffic overlapped;
        5. publication in assignment order, one ``publish_many`` round per
           (blob, shard).

        Failures never escape an operation: each returned
        :class:`OpResult` carries its own status/error.  Reads observe the
        published frontier as of submission — a batch's own writes become
        readable only in later batches.
        """
        transport = self._transport
        started = time.perf_counter()
        # Discard any socket time a previous batch (or out-of-band call on
        # this thread) left in this thread's network tally: from here on,
        # every take belongs to an op of this batch.
        transport.take_net_timings()
        pending = [_Pending(index, op) for index, op in enumerate(ops)]

        # One root trace context per batch, one child per op.  The batch
        # context stays active for the dynamic extent of the phases, so
        # control-plane RPCs issued inline on this thread parent under it;
        # per-op data-plane jobs and phase-1 setup carry the op's child
        # context instead (ChunkPush/ChunkFetch ``trace`` fields, phase-1
        # activation below).
        tr = obs_trace.tracer()
        batch_ctx: Optional[obs_trace.TraceContext] = None
        wall_started = time.time()
        if tr.enabled:
            batch_ctx = obs_trace.TraceContext.root()
            for p in pending:
                p.trace = batch_ctx.child()

        with obs_trace.activate(batch_ctx):
            self._phase_setup(pending)
            self._phase_transfer(pending)
            self._phase_assign_versions(pending)
            self._phase_weave_and_publish(pending)

        self.counters["batches"] += 1
        results = [self._result_of(p, started) for p in pending]
        if batch_ctx is not None:
            # Client-side spans: op durations mapped onto the batch's wall
            # start (phase timings run on ``perf_counter``); the batch
            # span closes over everything, so server spans nest two deep.
            for p, result in zip(pending, results):
                tr.record(
                    f"op:{p.op.kind.value}",
                    p.trace,
                    wall_started,
                    wall_started + max(0.0, result.timing.duration),
                    tags={"index": p.index, "status": result.status.value},
                )
            tr.record(
                "batch",
                batch_ctx,
                wall_started,
                time.time(),
                tags={"ops": len(pending), "client": self.client_id},
            )
        return results

    # -- phase 1: control-plane setup ------------------------------------------------------
    def _phase_setup(self, pending: List[_Pending]) -> None:
        vm = self._deployment.version_manager
        pm = self._deployment.provider_manager
        transport = self._transport
        # One snapshot resolution per distinct (blob, version) in the batch:
        # every ``version=None`` read of a blob is pinned to the same
        # published frontier, so vectored reads are mutually consistent
        # even under concurrent writers (and the version manager sees one
        # round trip instead of one per range).
        snapshots: Dict[Tuple[BlobId, Optional[Version]], SnapshotInfo] = {}
        for p in pending:
            op = p.op
            try:
                # Activate the op's own context: the control RPCs of this
                # op's setup (snapshot resolution, append tickets, placement)
                # parent under the op span, not the batch span.  A no-op
                # (None over None) when tracing is off.
                with obs_trace.activate(p.trace):
                    if isinstance(op, ReadOp):
                        snapshot = snapshots.get((op.blob_id, op.version))
                        if snapshot is None:
                            snapshot = transport.control(
                                lambda op=op: vm.get_snapshot(op.blob_id, op.version)
                            )
                            snapshots[(op.blob_id, op.version)] = snapshot
                            snapshots[(op.blob_id, snapshot.version)] = snapshot
                        p.snapshot = snapshot
                        if op.offset > p.snapshot.size:
                            raise InvalidRangeError(
                                f"read offset {op.offset} is beyond the end of snapshot "
                                f"v{p.snapshot.version} (size {p.snapshot.size})"
                            )
                        p.target = Interval.of(op.offset, op.size).intersection(
                            Interval(0, p.snapshot.size)
                        )
                        if p.target.empty:
                            p.data = b""
                            continue
                        lookup_started = time.perf_counter()
                        fragments = self.lookup_fragments(p.snapshot, p.target)
                        p.metadata_seconds += time.perf_counter() - lookup_started
                        p.read_fragments = fragments
                        p.fetch_jobs = [
                            ChunkFetch(
                                p.index,
                                tuple(f.providers),
                                f.key,
                                f.length,
                                trace=p.trace,
                            )
                            for f in fragments
                        ]
                    else:
                        p.info = self._blob_info(op.blob_id)
                        if isinstance(op, AppendOp):
                            # The append offset is assigned atomically with the
                            # version, so the ticket has to come first (documented
                            # deviation from the write path).
                            p.ticket = transport.control(
                                lambda op=op: vm.register_append(
                                    op.blob_id, len(op.data), writer=self.client_id
                                )
                            )
                            offset = p.ticket.offset
                        else:
                            offset = op.offset
                        # Step 1: place and push chunks before taking a version.
                        p.write_id, p.plan = transport.control(
                            lambda op=op, offset=offset: pm.allocate(
                                op.blob_id,
                                offset,
                                len(op.data),
                                p.info.chunk_size,
                                replication=p.info.replication,
                            ),
                        )
                        p.push_jobs = [
                            ChunkPush(
                                p.index,
                                p.plan.providers_for(piece.blob_offset),
                                ChunkKey(op.blob_id, p.write_id, piece.blob_offset),
                                piece.data,
                                trace=p.trace,
                            )
                            for piece in split_payload(offset, op.data, p.info.chunk_size)
                        ]
            except Exception as exc:
                self._fail(p, exc)
            finally:
                # Setup runs on this thread op by op, so whatever socket
                # time the proxies accumulated since the last take is this
                # operation's control-plane traffic.
                p.add_net(transport.take_net_timings())

    # -- phase 2: data plane ---------------------------------------------------------------
    def _phase_transfer(self, pending: List[_Pending]) -> None:
        transport = self._transport
        pushes = [job for p in pending if not p.failed for job in p.push_jobs]
        fetches = [job for p in pending if not p.failed for job in p.fetch_jobs]
        push_outcomes, fetch_outcomes = transport.transfer(pushes, fetches)

        for outcome in push_outcomes:
            p = pending[outcome.job.op_index]
            p.transfer_seconds = max(p.transfer_seconds, outcome.elapsed)
            p.add_net(
                (outcome.connect_seconds, outcome.send_seconds, outcome.wait_seconds)
            )
            if p.failed:
                continue
            if outcome.error is not None:
                self._fail(p, outcome.error)
            elif outcome.replicas_stored < 1:
                self._fail(
                    p,
                    ReplicationError(
                        f"no live replica accepted chunk {outcome.job.key} "
                        f"(requested providers: {outcome.job.providers})"
                    ),
                )
            else:
                p.fragments.append(
                    Fragment(
                        key=outcome.job.key,
                        providers=outcome.job.providers,
                        blob_offset=outcome.job.key.offset,
                        length=len(outcome.job.data),
                        chunk_offset=0,
                    )
                )
        payloads: Dict[int, Dict[ChunkKey, bytes]] = {}
        for outcome in fetch_outcomes:
            p = pending[outcome.job.op_index]
            p.transfer_seconds = max(p.transfer_seconds, outcome.elapsed)
            p.add_net(
                (outcome.connect_seconds, outcome.send_seconds, outcome.wait_seconds)
            )
            p.fragment_fetch_seconds.append(outcome.elapsed)
            if outcome.error is not None:
                if not p.failed:
                    self._fail(p, outcome.error)
            else:
                payloads.setdefault(p.index, {})[outcome.job.key] = outcome.payload
        for p in pending:
            if p.failed or not isinstance(p.op, ReadOp) or p.target is None:
                continue
            if p.target.empty:
                continue
            found = payloads.get(p.index, {})
            pieces: List[Tuple[int, bytes]] = []
            for fragment in p.read_fragments:
                payload = found[fragment.key]
                pieces.append(
                    (
                        fragment.blob_offset,
                        payload[fragment.chunk_offset : fragment.chunk_offset + fragment.length],
                    )
                )
            p.data = reassemble(p.target, pieces)
            p.finished = time.perf_counter()
            self.counters["reads"] += 1
            self.counters["bytes_read"] += p.target.size

    # -- phase 3: version assignment (the serialised step) -----------------------------------
    def _phase_assign_versions(self, pending: List[_Pending]) -> None:
        vm = self._deployment.version_manager
        transport = self._transport
        # Appends whose pushes failed already hold a version: abort it now so
        # the repair in phase 4 lets the publication frontier pass it.
        for p in pending:
            if p.failed and isinstance(p.op, AppendOp) and p.ticket is not None:
                try:
                    vm.abort(p.op.blob_id, p.ticket.version)
                except (ServiceError, ConnectionError):
                    # Coordinator unreachable (in networked mode the proxy
                    # surfaces this as either type): the abort cannot be
                    # recorded; the version stays pending until the shard
                    # (or its standby) returns.
                    continue
                finally:
                    p.add_net(transport.take_net_timings())
                p.needs_repair = True
        # Writes register in submission order, in one call: the coordinator
        # groups the specs by owning shard, runs one serialised round per
        # shard, absorbs membership epoch races, and reports an unreachable
        # shard as a per-write error while the other shards' tickets return.
        groups: Dict[BlobId, List[_Pending]] = {}
        for p in pending:
            if isinstance(p.op, WriteOp) and not p.failed:
                groups.setdefault(p.op.blob_id, []).append(p)
        if not groups:
            return
        specs = [
            (blob_id, [(p.op.offset, len(p.op.data)) for p in group])
            for blob_id, group in groups.items()
        ]
        outcomes = transport.control(
            lambda: vm.register_writes_bulk(specs, writer=self.client_id)
        )
        # The round is shared: every op it carried waited on the same
        # sockets, so each op's timing includes the round's breakdown (like
        # transfer_seconds, not summable across ops).
        net = transport.take_net_timings()
        for group, blob_outcomes in zip(groups.values(), outcomes):
            for p, outcome in zip(group, blob_outcomes):
                p.add_net(net)
                if isinstance(outcome, Exception):
                    self._fail(p, outcome)
                else:
                    p.ticket = outcome

    # -- phases 4-5: weave metadata, publish ---------------------------------------------------
    def _phase_weave_and_publish(self, pending: List[_Pending]) -> None:
        vm = self._deployment.version_manager
        transport = self._transport
        woven: List[_Pending] = []
        repaired: List[_Pending] = []
        # Trees must be *built* in version order per blob: a later version's
        # partial-chunk merge reads leaves of the version below it, which —
        # inside one batch — may belong to a sibling op whose version number
        # does not follow submission order (appends ticket in phase 1,
        # writes in phase 3).  Repairs participate for the same reason: the
        # no-op tree of an aborted version is the base of its successor.
        ordered = sorted(
            (p for p in pending if p.ticket is not None and (p.needs_repair or not p.failed)),
            key=lambda p: (p.op.blob_id, p.ticket.version),
        )

        # Prefetch every weaving op's base history concurrently (one
        # coordinator round trip each; pipelined over shared connections in
        # networked mode).  Histories are keyed by (blob, version) — unique
        # per op, and the records below a version are fixed once it is
        # assigned, so a sibling aborting mid-loop changes none of them.
        batch_ctx = obs_trace.current_context()

        def fetch_history(blob_id, upto):
            # Worker threads don't inherit contextvars; carry the batch
            # context in so the prefetches trace under the batch span.
            with obs_trace.activate(batch_ctx):
                transport.take_net_timings()
                try:
                    value = vm.get_history(blob_id, upto)
                except ServiceError as exc:
                    value = exc
                return value, transport.take_net_timings()

        prefetch_keys = [
            (p.op.blob_id, p.ticket.version - 1) for p in ordered if not p.needs_repair
        ]
        prefetched = dict(
            zip(
                prefetch_keys,
                parallel_map(
                    [(lambda k=k: fetch_history(*k)) for k in prefetch_keys]
                ),
            )
        )

        def queue_repair(p: _Pending) -> None:
            repair_started = time.perf_counter()
            try:
                self._build_repair(p.op.blob_id, p.ticket.version)
            except (ServiceError, ConnectionError, ValueError):
                # No repair against a lost service, nor over leaves the
                # failed build already bound (keys are immutable): the op
                # has failed, its version stays pending, and the rest of
                # the batch still publishes.
                return
            finally:
                p.metadata_seconds += time.perf_counter() - repair_started
            repaired.append(p)

        for p in ordered:
            if p.needs_repair:
                queue_repair(p)
                p.add_net(transport.take_net_timings())
                continue
            info = p.info
            ticket = p.ticket
            history, net = prefetched[(info.blob_id, ticket.version - 1)]
            p.add_net(net)
            if isinstance(history, ServiceError):
                # Coordinator lost between assignment and the weave (and no
                # failover path): the op fails, its version stays pending
                # until the shard's state returns.
                self._fail(p, history)
                p.add_net(transport.take_net_timings())
                continue
            builder = SegmentTreeBuilder(self._metadata, info.chunk_size)
            build_started = time.perf_counter()
            try:
                builder.build(
                    blob_id=info.blob_id,
                    version=ticket.version,
                    write_interval=Interval.of(ticket.offset, ticket.size),
                    new_fragments=p.fragments,
                    history=history,
                    new_size=ticket.new_blob_size,
                )
            except Exception as exc:
                # The assigned version has no readable metadata; abort it and
                # install no-op repair metadata in its place (here, in version
                # order — a same-batch successor's tree builds on top of it)
                # so the published frontier never stalls behind it.
                self._fail(p, exc)
                try:
                    vm.abort(info.blob_id, ticket.version)
                except (ServiceError, ConnectionError):
                    continue  # coordinator gone too: nothing to repair against
                p.needs_repair = True
                queue_repair(p)
                p.add_net(transport.take_net_timings())
                continue
            p.metadata_seconds += time.perf_counter() - build_started
            self.counters["metadata_nodes_written"] += builder.nodes_written
            self.counters["metadata_put_rounds"] += builder.put_rounds
            self.counters["metadata_base_leaf_polls"] += builder.base_leaf_polls
            woven.append(p)
            p.add_net(transport.take_net_timings())
        for p in repaired:
            try:
                vm.mark_repaired(p.op.blob_id, p.ticket.version)
            except (ServiceError, ConnectionError):
                # Coordinator lost mid-repair: the no-op tree exists, the
                # state flip waits for the shard (or its standby) to return.
                continue
            finally:
                p.add_net(transport.take_net_timings())
        # Step 5: publish.  One coordinator round per (blob, shard) — a
        # batch's publications of one blob collapse into a single
        # ``publish_many`` carrying every version in assignment order, and
        # the rounds of different blobs fan out across their shards.
        publish_groups: Dict[BlobId, List[_Pending]] = {}
        for p in woven:
            publish_groups.setdefault(p.op.blob_id, []).append(p)
        calls: List[ControlCall] = []
        for blob_id, group in publish_groups.items():
            # publish_many orders the versions itself; the group just names
            # them.  An unreachable shard fails only this blob's
            # publication (the snapshots are woven but stay pending until
            # the shard returns), never its batch siblings.
            versions = [p.ticket.version for p in group]

            def publish(blob_id=blob_id, versions=versions):
                try:
                    return vm.publish_many(blob_id, versions)
                except ServiceError as exc:
                    return exc

            calls.append(ControlCall(fn=publish, trace=obs_trace.current_context()))
        for group, (outcome, completed_at, net) in zip(
            publish_groups.values(), transport.control_many_timed(calls)
        ):
            # Shared publish round: each op's timing carries the round's
            # socket breakdown (see the phase-3 comment).
            for p in group:
                p.add_net(net)
            if isinstance(outcome, ServiceError):
                for p in group:
                    self._fail(p, outcome)
                continue
            for p in group:
                p.finished = completed_at
                if isinstance(p.op, AppendOp):
                    self.counters["appends"] += 1
                else:
                    self.counters["writes"] += 1
                self.counters["bytes_written"] += len(p.op.data)

    # -- batch bookkeeping ------------------------------------------------------------------
    def _fail(self, p: _Pending, error: BaseException) -> None:
        p.error = error
        p.finished = time.perf_counter()

    def _result_of(self, p: _Pending, started: float) -> OpResult:
        finished = p.finished if p.finished is not None else time.perf_counter()
        timing = OpTiming(
            started=started,
            finished=finished,
            transfer_seconds=p.transfer_seconds,
            metadata_seconds=p.metadata_seconds,
            fragment_fetch_seconds=tuple(p.fragment_fetch_seconds),
            connect_seconds=p.connect_seconds,
            send_seconds=p.send_seconds,
            wait_seconds=p.wait_seconds,
        )
        trace_id = p.trace.trace_id if p.trace is not None else None
        if p.failed:
            return OpResult(
                index=p.index,
                op=p.op,
                status=OpStatus.FAILED,
                write_id=p.write_id,
                error=p.error,
                timing=timing,
                trace_id=trace_id,
            )
        return OpResult(
            index=p.index,
            op=p.op,
            status=OpStatus.OK,
            version=p.ticket.version if p.ticket is not None else None,
            write_id=p.write_id,
            offset=p.ticket.offset if p.ticket is not None else None,
            data=p.data,
            timing=timing,
            trace_id=trace_id,
        )

    # -- core operations (thin wrappers over one-operation batches) ---------------------------
    def read(
        self,
        blob_id: BlobId,
        offset: int,
        size: int,
        version: Optional[Version] = None,
    ) -> bytes:
        """Read ``size`` bytes at ``offset`` from a published snapshot.

        Reads past the end of the snapshot are truncated (short read);
        reads starting beyond the end raise :class:`InvalidRangeError`.
        Ranges never written in any ancestor snapshot read back as zeros.
        """
        result = self.submit_ops([ReadOp(blob_id, offset, size, version)])[0]
        return result.raise_if_failed().data

    def write(self, blob_id: BlobId, offset: int, data: bytes) -> Version:
        """Write ``data`` at ``offset``, producing (and publishing) a new snapshot."""
        result = self.submit_ops([WriteOp(blob_id, offset, data)])[0]
        return result.raise_if_failed().version

    def append(self, blob_id: BlobId, data: bytes) -> Version:
        """Append ``data`` to the end of the blob, producing a new snapshot."""
        result = self.submit_ops([AppendOp(blob_id, data)])[0]
        return result.raise_if_failed().version

    # -- failure recovery ------------------------------------------------------------------
    def _build_repair(self, blob_id: BlobId, version: Version) -> None:
        """Install no-op metadata for an aborted version (tree building only)."""
        vm = self._deployment.version_manager
        info = self._blob_info(blob_id)
        history = vm.get_history(blob_id, version)
        record = history[version - 1]
        builder = SegmentTreeBuilder(self._metadata, info.chunk_size)
        builder.build_noop(
            blob_id=blob_id,
            version=version,
            write_interval=record.interval,
            history=history[: version - 1],
            new_size=record.new_size,
        )
        self.counters["metadata_put_rounds"] += builder.put_rounds
        self.counters["metadata_base_leaf_polls"] += builder.base_leaf_polls

    def repair_version(self, blob_id: BlobId, version: Version) -> None:
        """Install no-op metadata for an aborted version so readers can pass it.

        If a writer crashes after its version was assigned but before its
        metadata exists, the published frontier (and therefore every later
        write) would stall forever.  Repair builds a metadata tree for that
        version which simply re-exposes the base snapshot's content over the
        announced interval, then marks the version repaired.
        """
        self._build_repair(blob_id, version)
        self._deployment.version_manager.mark_repaired(blob_id, version)

    # -- introspection ------------------------------------------------------------------
    def snapshot(self, blob_id: BlobId, version: Optional[Version] = None) -> SnapshotInfo:
        return self._deployment.version_manager.get_snapshot(blob_id, version)

    def history(self, blob_id: BlobId) -> List[WriteRecord]:
        latest = self._deployment.version_manager.latest_version(blob_id)
        return self._deployment.version_manager.get_history(blob_id, latest)


class Batch:
    """A set of operations submitted (and pipelined) together.

    Enqueue operations with :meth:`read` / :meth:`write` / :meth:`append`
    (argument validation happens immediately; state-dependent errors are
    reported per operation at submission), then :meth:`submit` once.  Also
    usable as a context manager: the batch submits on clean exit::

        with client.batch() as batch:
            f1 = batch.append(blob_id, b"...")
            f2 = batch.read(blob_id, 0, 1024)
        print(f1.result().version, f2.result().data)
    """

    def __init__(self, client: BlobSeerClient) -> None:
        self._client = client
        self._futures: List[OpFuture] = []
        self._results: Optional[List[OpResult]] = None

    # -- enqueue --------------------------------------------------------------------
    def read(
        self,
        blob_id: BlobId,
        offset: int,
        size: int,
        version: Optional[Version] = None,
    ) -> OpFuture:
        return self._add(ReadOp(blob_id, offset, size, version))

    def write(self, blob_id: BlobId, offset: int, data: bytes) -> OpFuture:
        return self._add(WriteOp(blob_id, offset, data))

    def append(self, blob_id: BlobId, data: bytes) -> OpFuture:
        return self._add(AppendOp(blob_id, data))

    def add(self, op: Op) -> OpFuture:
        """Enqueue an already-constructed operation object."""
        return self._add(op)

    def _add(self, op: Op) -> OpFuture:
        if self._results is not None:
            raise RuntimeError("batch was already submitted")
        future = OpFuture(len(self._futures), op)
        self._futures.append(future)
        return future

    # -- submission -----------------------------------------------------------------
    def submit(self) -> List[OpResult]:
        """Execute all enqueued operations; returns their results in order."""
        if self._results is not None:
            raise RuntimeError("batch was already submitted")
        self._results = self._client.submit_ops([f.op for f in self._futures])
        for future, result in zip(self._futures, self._results):
            future._resolve(result)
        return self._results

    @property
    def futures(self) -> List[OpFuture]:
        return list(self._futures)

    @property
    def results(self) -> List[OpResult]:
        if self._results is None:
            raise RuntimeError("batch has not been submitted yet")
        return list(self._results)

    @property
    def submitted(self) -> bool:
        return self._results is not None

    def __len__(self) -> int:
        return len(self._futures)

    def __enter__(self) -> "Batch":
        return self

    def __exit__(self, exc_type, *exc: object) -> None:
        if exc_type is None and self._results is None and self._futures:
            self.submit()


class BlobSession:
    """Implicit batching over one client: enqueue freely, ``flush()`` to run.

    A session accumulates operations into a current batch and submits it on
    :meth:`flush` (or on clean context-manager exit), aggregating result
    statistics across flushes — the shape long-lived application loops
    want: queue work as it arises, pipeline it at natural barriers.
    """

    def __init__(self, client: BlobSeerClient) -> None:
        self._client = client
        self._current: Optional[Batch] = None
        #: Aggregated over every flushed batch of this session.
        self.stats: Dict[str, int] = {
            "batches_flushed": 0,
            "ops_ok": 0,
            "ops_failed": 0,
            "bytes_read": 0,
            "bytes_written": 0,
        }

    @property
    def client(self) -> BlobSeerClient:
        return self._client

    def batch(self) -> Batch:
        """An explicit standalone batch on the session's client."""
        return self._client.batch()

    # -- implicit batch -------------------------------------------------------------
    def _batch(self) -> Batch:
        if self._current is None:
            self._current = self._client.batch()
        return self._current

    def read(
        self,
        blob_id: BlobId,
        offset: int,
        size: int,
        version: Optional[Version] = None,
    ) -> OpFuture:
        return self._batch().read(blob_id, offset, size, version)

    def write(self, blob_id: BlobId, offset: int, data: bytes) -> OpFuture:
        return self._batch().write(blob_id, offset, data)

    def append(self, blob_id: BlobId, data: bytes) -> OpFuture:
        return self._batch().append(blob_id, data)

    @property
    def pending_ops(self) -> int:
        return 0 if self._current is None else len(self._current)

    def flush(self) -> List[OpResult]:
        """Submit everything enqueued since the last flush."""
        batch, self._current = self._current, None
        if batch is None or len(batch) == 0:
            return []
        results = batch.submit()
        self.stats["batches_flushed"] += 1
        for result in results:
            if result.ok:
                self.stats["ops_ok"] += 1
                if isinstance(result.op, ReadOp):
                    self.stats["bytes_read"] += len(result.data or b"")
                else:
                    self.stats["bytes_written"] += len(result.op.data)
            else:
                self.stats["ops_failed"] += 1
        return results

    def __enter__(self) -> "BlobSession":
        return self

    def __exit__(self, exc_type, *exc: object) -> None:
        if exc_type is None:
            self.flush()


class Blob:
    """Handle on one blob, bound to a client.

    This is the object application code manipulates; it simply forwards to
    the owning client with the blob id filled in.
    """

    def __init__(self, client: BlobSeerClient, info: BlobInfo) -> None:
        self._client = client
        self._info = info

    # -- identity -------------------------------------------------------------------
    @property
    def blob_id(self) -> BlobId:
        return self._info.blob_id

    @property
    def chunk_size(self) -> int:
        return self._info.chunk_size

    @property
    def replication(self) -> int:
        return self._info.replication

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Blob(id={self.blob_id}, chunk_size={self.chunk_size}, "
            f"version={self.latest_version()}, size={self.size()})"
        )

    # -- access interface (paper Section I.B.1) -------------------------------------
    def read(self, offset: int, size: int, version: Optional[Version] = None) -> bytes:
        """Read ``size`` bytes at ``offset`` from snapshot ``version`` (default latest)."""
        return self._client.read(self.blob_id, offset, size, version)

    def write(self, offset: int, data: bytes) -> Version:
        """Write ``data`` at ``offset``; returns the new snapshot's version."""
        return self._client.write(self.blob_id, offset, data)

    def append(self, data: bytes) -> Version:
        """Append ``data`` at the end of the blob; returns the new snapshot's version."""
        return self._client.append(self.blob_id, data)

    # -- vectored interface (one pipelined batch per call) ----------------------------
    def read_many(
        self,
        ranges: Iterable[Tuple[int, int]],
        version: Optional[Version] = None,
    ) -> List[bytes]:
        """Read several ``(offset, size)`` ranges in one pipelined batch.

        All ranges are read from the *same* snapshot (``version`` or the
        published frontier at submission), so the results are mutually
        consistent even under concurrent writers.  Equivalent to sequential
        :meth:`read` calls — including raising the first range's error —
        but the fragment fetches of every range travel together.
        """
        batch = self._client.batch()
        futures = [batch.read(self.blob_id, off, size, version) for off, size in ranges]
        batch.submit()
        return [f.result().raise_if_failed().data for f in futures]

    def write_many(self, edits: Iterable[Tuple[int, bytes]]) -> List[Version]:
        """Write several ``(offset, data)`` edits in one pipelined batch.

        Chunk pushes of all edits fan out together; version numbers are
        assigned in list order in a single serialised round.  Returns the
        new snapshot versions, oldest first.
        """
        batch = self._client.batch()
        futures = [batch.write(self.blob_id, off, data) for off, data in edits]
        batch.submit()
        return [f.result().raise_if_failed().version for f in futures]

    def append_many(self, payloads: Iterable[bytes]) -> List[Version]:
        """Append several payloads in one pipelined batch (list order)."""
        batch = self._client.batch()
        futures = [batch.append(self.blob_id, data) for data in payloads]
        batch.submit()
        return [f.result().raise_if_failed().version for f in futures]

    # -- versioning ------------------------------------------------------------------
    def latest_version(self) -> Version:
        return self._client.deployment.version_manager.latest_version(self.blob_id)

    def size(self, version: Optional[Version] = None) -> int:
        return self._client.snapshot(self.blob_id, version).size

    def versions(self) -> List[Version]:
        """All published versions, oldest first (including the empty version 0)."""
        return list(range(self.latest_version() + 1))

    def snapshot(self, version: Optional[Version] = None) -> SnapshotInfo:
        return self._client.snapshot(self.blob_id, version)

    def history(self) -> List[WriteRecord]:
        """Write records of all published versions."""
        return self._client.history(self.blob_id)

    # -- locality (used by BSFS / MapReduce scheduling) ----------------------------------
    def chunk_locations(
        self, offset: int, size: int, version: Optional[Version] = None
    ) -> List[Tuple[int, int, Tuple[str, ...]]]:
        """Return ``(offset, length, provider_ids)`` for every fragment of the range.

        This is the "expose the data location" extension the paper built for
        the Hadoop integration (Section IV.D): schedulers use it to place
        computation close to the data.
        """
        snapshot = self._client.snapshot(self.blob_id, version)
        target = Interval.of(offset, size).intersection(Interval(0, snapshot.size))
        if target.empty:
            return []
        return [
            (fragment.blob_offset, fragment.length, fragment.providers)
            for fragment in self._client.lookup_fragments(snapshot, target)
        ]
