"""Sharded version-coordinator service: scale out the serialised commit step.

BlobSeer keeps every step of its write protocol decentralised *except*
version assignment and publication, which the paper concedes is handled by
a centralised version manager.  In this reproduction that meant one
:class:`~repro.core.version_manager.VersionManager` guarding **all blobs**
behind a single lock — and, in the simulator, one machine absorbing every
register/publish/snapshot RPC.  No matter how many data and metadata
providers a deployment added, multi-blob commit throughput was capped by
that one lock and one simulated node.

This module removes that last global serialisation point:

* :class:`VersionCoordinator` is the one router every layer above is
  written against: it maps blobs to shards through a
  :class:`~repro.core.membership.CoordinatorMembership`, runs the one
  stale-route retry loop, and implements the whole per-blob surface and
  bulk registration on top of it.  A subclass states only how a shard is
  reached and what a stale route looks like; the networked
  :class:`~repro.net.proxies.RemoteCoordinator` is the RPC subclass.
* :class:`ShardedVersionManager` routes blobs to one of N in-process
  version-manager shards through a first-class :class:`~repro.core.membership.
  CoordinatorMembership` — an epoch-numbered consistent-hash ring with a
  per-shard status, the single source of truth every consumer (failover,
  placement steering, the simulators) reads.
  Each shard owns its own lock, write history, publication frontier and
  counters, so commits of blobs on different shards never contend.
  Per-blob semantics are untouched: one blob always lives on one shard,
  where version assignment and in-order publication work exactly as in the
  single-manager design — a one-shard coordinator *is* today's version
  manager behind a router that always answers 0.

Since the membership refactor the shard set is **elastic**:
:meth:`ShardedVersionManager.add_shard` and
:meth:`~ShardedVersionManager.remove_shard` change it at runtime.  The ring
computes the minimal set of moved blobs, the source shard exports those
blobs' journal histories under its commit lock
(:meth:`~repro.core.version_manager.VersionManager.export_blob_records` —
the planned twin of the failover handoff) and streams them into the new
owner's journal; the epoch bump then commits atomically.  In-flight
commits are routed *by epoch*: a request carrying a stale epoch, or
touching a blob whose history is mid-stream, is rejected with the
retryable :class:`~repro.core.errors.EpochRetryError` before anything is
assigned, re-routed, and retried — no commit is ever lost or
double-assigned across a rebalance.

What stays serialised (by design, per the paper's linearizability
argument) is the per-blob commit order; what stops being serialised is
everything across blobs.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type, Union

from .config import DEFAULT_CHUNK_SIZE
from .errors import (
    BlobNotFoundError,
    BlobSeerError,
    EpochRetryError,
    InvalidConfigError,
    ServiceError,
)
from .membership import CoordinatorMembership, ShardStatus, _blob_key
from .metadata.segment_tree import WriteRecord
from .types import BlobId, BlobInfo, SnapshotInfo, Version, WriteTicket
from .version_manager import VersionManager, WriteState

#: Blobs frozen per migration batch during ``add_shard``/``remove_shard``;
#: only the current batch is commit-frozen, so the per-blob retry window
#: stays small on large shards.
MIGRATION_BATCH_BLOBS = 16


class VersionCoordinator:
    """The version-coordination service the rest of the system uses.

    One router over N coordinator shards.  It owns blob → shard routing
    (``membership``, read through :attr:`epoch` and :meth:`shard_index`),
    the one stale-route retry loop (:meth:`_route`), the per-blob surface
    and :meth:`register_writes_bulk`; :meth:`register_write`,
    :meth:`register_writes` and :meth:`publish` are one-blob views of the
    bulk calls.  Callers never route: a batch goes to
    :meth:`register_writes_bulk` whole, and epoch races and failovers are
    absorbed here.

    A subclass states only how a shard is reached and what a stale route
    looks like:

    * :meth:`_serving_shard` — the handle answering for a shard index now;
    * :meth:`_submit` — start one call on a handle, returning a thunk that
      yields its reply (a networked round is on the wire before any reply
      is awaited);
    * :attr:`RETRYABLE`, :meth:`_resync` and :attr:`max_route_attempts` —
      which errors mean "stale route", what to do before re-routing, and
      how often;
    * :meth:`_guard` and :meth:`_round_writer` — the commit guard a
      mutating round runs under, and the writer identity one logical
      registration carries across its retries.

    Implemented in-process by :class:`ShardedVersionManager` and over RPC
    by :class:`~repro.net.proxies.RemoteCoordinator`.
    """

    #: Errors that mean the route was stale: resync, re-route and retry.
    RETRYABLE: Tuple[Type[BaseException], ...] = (EpochRetryError,)
    #: Attempts one routed round takes before its blobs fail.
    max_route_attempts = 64
    membership: CoordinatorMembership

    # -- routing -----------------------------------------------------------------
    @property
    def epoch(self) -> int:
        return self.membership.epoch

    def shard_index(self, blob_id: BlobId) -> int:
        """Index of the shard owning ``blob_id`` (stable across processes)."""
        return self.membership.owner_index(blob_id)

    # -- hooks -------------------------------------------------------------------
    def _serving_shard(self, index: int) -> Any:
        raise NotImplementedError

    def _submit(
        self,
        handle: Any,
        method: str,
        params: Dict[str, Any],
        guard: Optional[Callable[[], None]],
        retry: bool,
    ) -> Callable[[], Any]:
        raise NotImplementedError

    def _resync(self, exc: BaseException, attempt: int) -> None:
        raise NotImplementedError

    def _guard(
        self, blob_ids: Tuple[BlobId, ...], epoch: int
    ) -> Optional[Callable[[], None]]:
        return None

    def _round_writer(self, writer: Optional[str]) -> Optional[str]:
        return writer

    # -- the one stale-route loop --------------------------------------------------
    def _route(
        self,
        method: str,
        blob_ids: Sequence[Any],
        params: Callable[[List[int]], Dict[str, Any]],
        mutating: bool = False,
        owner: Optional[Callable[[Any], int]] = None,
    ) -> List[Tuple[List[int], Any]]:
        """Run ``method`` for ``blob_ids``, one round per owning shard.

        ``params(positions)`` builds a round's parameters from the
        positions of its blobs; ``owner`` maps a key to its shard
        (default :meth:`shard_index`).  Every round is started before the
        first reply is awaited.  A mutating round runs under
        :meth:`_guard`, which rejects it before anything is assigned when
        the epoch it was routed under has moved.

        A round whose outcome is :attr:`RETRYABLE` — or
        :class:`BlobNotFoundError` once the epoch moved, i.e. the blob left
        its old owner — was routed stale: after :meth:`_resync` only its
        blobs are re-routed and reissued, with ``retry`` set so a
        registration reconciles an interrupted round instead of assigning
        twice.  After :attr:`max_route_attempts` those blobs fail with a
        :class:`ServiceError`.  Any other :class:`BlobSeerError` is the
        outcome of its own round only.

        Returns ``(positions, outcome)`` pairs, an outcome being the
        shard's reply or the exception that ended the round.
        """
        owner = owner or self.shard_index
        caught = (*self.RETRYABLE, BlobSeerError)
        done: List[Tuple[List[int], Any]] = []
        pending = list(range(len(blob_ids)))
        attempt = 0
        while True:
            # Epoch first: an owner computed under a newer ring is then
            # caught as stale by the guard (or the not-found check below).
            epoch = self.epoch
            by_shard: Dict[int, List[int]] = {}
            for position in pending:
                by_shard.setdefault(owner(blob_ids[position]), []).append(position)
            started = []
            for index, positions in by_shard.items():
                guard = (
                    self._guard(tuple(blob_ids[p] for p in positions), epoch)
                    if mutating
                    else None
                )
                try:
                    reply = self._submit(
                        self._serving_shard(index),
                        method,
                        params(positions),
                        guard,
                        attempt > 0,
                    )
                except caught as exc:
                    reply = exc
                started.append((positions, reply))
            pending = []
            stale: Optional[BaseException] = None
            for positions, reply in started:
                if not isinstance(reply, BaseException):
                    try:
                        reply = reply()
                    except caught as exc:
                        reply = exc
                if isinstance(reply, self.RETRYABLE) or (
                    isinstance(reply, BlobNotFoundError) and self.epoch != epoch
                ):
                    pending.extend(positions)
                    stale = reply
                else:
                    done.append((positions, reply))
            if not pending:
                return done
            attempt += 1
            if attempt >= self.max_route_attempts:
                error = ServiceError(
                    f"{method!r} still failing after {attempt} route attempts: {stale}"
                )
                error.__cause__ = stale
                done.append((pending, error))
                return done
            self._resync(stale, attempt)

    def _call(
        self,
        method: str,
        blob_id: Any,
        params: Dict[str, Any],
        mutating: bool = False,
        owner: Optional[Callable[[Any], int]] = None,
    ) -> Any:
        """One routed call for one key: its reply, or its error raised."""
        [(_, outcome)] = self._route(
            method, [blob_id], lambda _: params, mutating, owner
        )
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    # -- blob lifecycle ------------------------------------------------------------
    def blob_info(self, blob_id: BlobId) -> BlobInfo:
        return self._call("blob_info", blob_id, {"blob_id": blob_id})

    # -- the serialised step -------------------------------------------------------
    def register_write(
        self, blob_id: BlobId, offset: int, size: int, writer: Optional[str] = None
    ) -> WriteTicket:
        result = self.register_writes(blob_id, [(offset, size)], writer=writer)[0]
        if isinstance(result, Exception):
            raise result
        return result

    def register_writes(
        self,
        blob_id: BlobId,
        writes: Sequence[Tuple[int, int]],
        writer: Optional[str] = None,
    ) -> List[Union[WriteTicket, Exception]]:
        return self.register_writes_bulk([(blob_id, writes)], writer=writer)[0]

    def register_writes_bulk(
        self,
        batches: Sequence[Tuple[BlobId, Sequence[Tuple[int, int]]]],
        writer: Optional[str] = None,
    ) -> List[List[Union[WriteTicket, Exception]]]:
        """Bulk-register, one serialised round per owning shard.

        Result lists stay aligned with ``batches``.  Shards are independent
        serialisation domains (there is deliberately no cross-shard
        transaction), so a shard's failure is confined to its own writes: a
        shard that cannot be reached, or whose round fails (an unknown blob
        id), assigns nothing and reports the error as the outcome of each
        of its writes, while the other shards' tickets return.  A round
        that loses a race with a membership change or a failover is
        re-routed and reissued by :meth:`_route` — only that shard's round,
        reconciled under the same writer — so no registration is lost or
        assigned twice.
        """
        writer = self._round_writer(writer)
        results: List[List[Union[WriteTicket, Exception]]] = [[] for _ in batches]
        for positions, outcome in self._route(
            "register_writes_bulk",
            [blob_id for blob_id, _ in batches],
            lambda positions: {
                "batches": [batches[p] for p in positions],
                "writer": writer,
            },
            mutating=True,
        ):
            if isinstance(outcome, BaseException):
                outcome = [[outcome] * len(batches[p][1]) for p in positions]
            for position, tickets in zip(positions, outcome):
                results[position] = tickets
        return results

    def register_append(
        self, blob_id: BlobId, size: int, writer: Optional[str] = None
    ) -> WriteTicket:
        return self._call(
            "register_append",
            blob_id,
            {"blob_id": blob_id, "size": size, "writer": self._round_writer(writer)},
            mutating=True,
        )

    # -- publication ---------------------------------------------------------------
    def publish(self, blob_id: BlobId, version: Version) -> Version:
        return self.publish_many(blob_id, [version])

    def publish_many(self, blob_id: BlobId, versions: Sequence[Version]) -> Version:
        # Retry-idempotent on the shard (PENDING -> COMPLETED only), so a
        # round whose reply was lost can safely be reissued.
        return self._call(
            "publish_many",
            blob_id,
            {"blob_id": blob_id, "versions": list(versions)},
            mutating=True,
        )

    def abort(self, blob_id: BlobId, version: Version) -> None:
        self._call(
            "abort", blob_id, {"blob_id": blob_id, "version": version}, mutating=True
        )

    def mark_repaired(self, blob_id: BlobId, version: Version) -> Version:
        return self._call(
            "mark_repaired",
            blob_id,
            {"blob_id": blob_id, "version": version},
            mutating=True,
        )

    # -- read-side queries ---------------------------------------------------------
    def latest_version(self, blob_id: BlobId) -> Version:
        return self._call("latest_version", blob_id, {"blob_id": blob_id})

    def get_snapshot(
        self, blob_id: BlobId, version: Optional[Version] = None
    ) -> SnapshotInfo:
        return self._call(
            "get_snapshot", blob_id, {"blob_id": blob_id, "version": version}
        )

    def get_history(self, blob_id: BlobId, upto_version: Version) -> List[WriteRecord]:
        return self._call(
            "get_history", blob_id, {"blob_id": blob_id, "upto_version": upto_version}
        )

    def pending_versions(self, blob_id: BlobId) -> List[Version]:
        return self._call("pending_versions", blob_id, {"blob_id": blob_id})

    def aborted_versions(self, blob_id: BlobId) -> List[Version]:
        return self._call("aborted_versions", blob_id, {"blob_id": blob_id})

    def version_state(self, blob_id: BlobId, version: Version) -> WriteState:
        return WriteState(
            self._call(
                "version_state", blob_id, {"blob_id": blob_id, "version": version}
            )
        )


class ShardedVersionManager(VersionCoordinator):
    """N version-manager shards behind an epoch-versioned membership router.

    Blob ids are allocated globally (so ids stay unique and dense exactly
    as the single manager produced them) and each blob is pinned to the
    shard owning ``("vm-blob", blob_id)`` on the membership's
    consistent-hash ring — the same ring machinery the metadata DHT uses,
    so adding shard N+1 only remaps ~1/(N+1) of the blobs.  All per-blob
    operations delegate to the owning shard; aggregate counters sum over
    shards.

    With ``num_shards=1`` every blob maps to shard 0 and the coordinator
    behaves byte-for-byte like a single ``VersionManager``.
    """

    def __init__(
        self,
        num_shards: int = 1,
        virtual_nodes: int = 32,
    ) -> None:
        if num_shards < 1:
            raise InvalidConfigError("num_shards must be >= 1")
        #: The routing source of truth: epoch + ring + per-shard status.
        self.membership = CoordinatorMembership(
            [f"vm-{index:03d}" for index in range(num_shards)],
            virtual_nodes=virtual_nodes,
        )
        self.shards: List[VersionManager] = [
            VersionManager() for _ in range(num_shards)
        ]
        #: Serialises blob-id allocation *and* membership transitions: while
        #: a shard joins or drains no new blob can appear, so the migration
        #: plan (computed from the ring diff) is complete by construction.
        self._id_lock = threading.Lock()
        self._next_blob_id = 1
        # -- durability & failover state (off until enable_durability) --------
        #: One write-ahead journal per shard, or None when durability is off.
        self.journals: Optional[List] = None
        #: One hot standby per shard (hosted on the ring successor), or None.
        self.standbys: Optional[List] = None
        #: Counters: takeovers begun, shards recovered, membership changes
        #: committed and blob histories streamed between shards (monitoring).
        self.failovers = 0
        self.recoveries = 0
        self.rebalances = 0
        self.blobs_migrated = 0
        self.migration_batches = 0
        self.migration_catchup_records = 0
        # Journal every committed epoch bump (no-op until durability is on).
        self.membership.on_change = self._on_membership_change

    # -- routing -----------------------------------------------------------------
    @property
    def shard_ids(self) -> List[str]:
        """Slot ids, index-aligned with :attr:`shards` (membership-owned)."""
        return self.membership.shard_ids

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def successor_index(self, index: int) -> int:
        """Ring successor of shard ``index`` — where its standby is hosted."""
        return self.membership.successor_index(index)

    def _standby_host(self, index: int) -> Optional[int]:
        """Where shard ``index``'s standby can serve it: the ring successor,
        when failover is on, the standby exists and that host is up; else
        None."""
        if self.standbys is None or self.standbys[index] is None:
            return None
        host = self.successor_index(index)
        if host == index or not self.shard_alive(host):
            return None
        return host

    def active_shard_index(self, blob_id: BlobId) -> int:
        """Index of the shard currently *serving* ``blob_id``.

        Equals :meth:`shard_index` while the owner is up; during failover it
        is the ring successor hosting the owner's standby.  With no serving
        standby (failover off, or the successor down too) it stays the home
        index — requests are addressed to (and, in the simulator, charged
        against) the dead machine, which is where they would really go.
        """
        index = self.shard_index(blob_id)
        if self.membership.status_of(index) is not ShardStatus.DOWN:
            return index
        host = self._standby_host(index)
        return index if host is None else host

    def shard_alive(self, index: int) -> bool:
        return self.membership.status_of(index) not in (
            ShardStatus.DOWN,
            ShardStatus.RETIRED,
        )

    def live_shard_ids(self) -> List[str]:
        return [
            shard_id
            for index, shard_id in enumerate(self.shard_ids)
            if self.shard_alive(index)
        ]

    def shard_for(self, blob_id: BlobId) -> VersionManager:
        return self._serving_shard(self.shard_index(blob_id))

    def _serving_shard(self, index: int) -> VersionManager:
        """The manager currently serving shard ``index`` (primary or standby)."""
        status = self.membership.status_of(index)
        if status is ShardStatus.RETIRED:
            raise ServiceError(
                f"coordinator shard {self.shard_ids[index]} was retired; "
                f"its blobs migrated at epoch {self.membership.epoch}"
            )
        if status is not ShardStatus.DOWN:
            return self.shards[index]
        if self.standbys is None:
            raise ServiceError(
                f"coordinator shard {self.shard_ids[index]} is down and "
                f"failover is not enabled"
            )
        if self._standby_host(index) is None:
            raise ServiceError(
                f"coordinator shard {self.shard_ids[index]} and its standby "
                f"host {self.shard_ids[self.successor_index(index)]} are both down"
            )
        return self.standbys[index].manager

    def _observable_shards(self) -> List[VersionManager]:
        """Best-effort per-shard views for aggregation/monitoring.

        A down shard is represented by its standby when one is serving;
        otherwise by its stale pre-crash object (better a stale counter
        than a monitoring crash).  A retired shard is its (empty) final
        state."""
        views: List[VersionManager] = []
        for index, shard in enumerate(self.shards):
            standby = self.standbys[index] if self.standbys is not None else None
            if self.membership.status_of(index) is not ShardStatus.DOWN or standby is None:
                views.append(shard)
            else:
                views.append(standby.manager)
        return views

    # -- how a shard is reached: inline, under the epoch guard -------------------------
    def _submit(self, handle, method, params, guard, retry):
        if guard is not None:
            params = dict(params, guard=guard)
        reply = getattr(handle, method)(**params)
        return lambda: reply

    def _guard(self, blob_ids, epoch):
        return lambda: self.membership.check_commit(blob_ids, epoch)

    def _resync(self, exc, attempt):
        self.membership.wait_stable(timeout=0.25)

    # -- elastic membership: runtime shard add/remove ---------------------------------
    def _require_all_serving(self) -> None:
        for index in range(self.membership.num_slots):
            if self.membership.status_of(index) is ShardStatus.DOWN:
                raise ServiceError(
                    f"cannot change membership while shard "
                    f"{self.shard_ids[index]} is down; recover it first"
                )

    def _migration_plan(
        self, pending_ring, target: Optional[str]
    ) -> Dict[int, List[BlobId]]:
        """``{source shard index: [blob ids moving]}`` under the pending ring.

        The ring is the one the open transition will commit (returned by
        ``begin_join``/``begin_drain``) — one construction, one truth.
        ``target=None`` means "whatever the pending ring says" (drain);
        otherwise only blobs landing on ``target`` move (join — consistent
        hashing guarantees that is exactly the set whose owner changes).
        """
        plan: Dict[int, List[BlobId]] = {}
        for src_index in self.membership.ring_member_indexes():
            src_id = self.shard_ids[src_index]
            for blob_id in self.shards[src_index].blob_ids():
                new_owner = pending_ring.owner(_blob_key(blob_id))
                if new_owner == src_id:
                    continue
                if target is not None and new_owner != target:
                    continue
                plan.setdefault(src_index, []).append(blob_id)
        return plan

    @staticmethod
    def _record_key(record) -> Tuple[str, int]:
        """Identity of one exported journal record within a blob's history.

        ``export_blob_records`` is *not* prefix-stable — it emits the
        create, then every register, then every publish/abort — so a
        later, longer export cannot be diffed by slicing off a count
        prefix.  Each record is instead keyed by ``(op, version)`` (the
        create by ``("create", 0)``), which is unique within a blob: a
        version registers once and reaches at most one terminal record.
        """
        if record.op == "create":
            return ("create", 0)
        return (record.op, record.payload["version"])

    def _replay_into(self, records, dest_index: int) -> None:
        """Replay exported records into shard ``dest_index`` — through the
        destination's journal when durable (the standby follows the same
        stream), directly otherwise."""
        from ..resilience.journal import apply_record

        dest = self.shards[dest_index]
        journal = self.journals[dest_index] if self.journals is not None else None
        if journal is not None:
            journal.ingest(records, apply_to=dest, notify=True)
        else:
            for record in records:
                apply_record(dest, record)

    def _stream_blob(
        self, src: VersionManager, blob_id: BlobId, dest_index: int
    ) -> "Tuple[int, set]":
        """Export one blob's history from ``src`` and replay it into shard
        ``dest_index``; returns ``(records streamed, applied record keys)``.

        Replaying history is not commit *activity*: the destination's
        monitoring counters (registrations, publishes, rounds) are restored
        to their pre-stream values so the source keeps the history it
        actually performed and the monitor never sees a phantom burst of
        commits on the newcomer (which would spike the imbalance signal
        right after every rebalance).
        """
        records = src.export_blob_records(blob_id)
        self._replay_into(records, dest_index)
        dest = self.shards[dest_index]
        dest.discount_replayed_activity(
            registers=sum(1 for record in records if record.op == "register"),
            publishes=sum(1 for record in records if record.op == "publish"),
            published=dest.latest_version(blob_id),
        )
        self.blobs_migrated += 1
        return len(records), {self._record_key(record) for record in records}

    def _stream_blob_delta(
        self, src: VersionManager, blob_id: BlobId, dest_index: int, applied: set
    ) -> int:
        """Catch a previously streamed blob up: re-export and replay only
        the records whose key is not yet in ``applied``.

        Commits that landed on the old owner between the blob's batch and
        the final freeze show up as new register/publish/abort records.
        One rewrite is needed: a version the first stream replayed as
        aborted and the source then repaired exports as a bare ``publish``,
        which the destination (holding the version aborted) must replay as
        a ``repair``.
        """
        from ..resilience.journal import JournalRecord

        fresh = []
        for record in src.export_blob_records(blob_id):
            key = self._record_key(record)
            if key in applied:
                continue
            if record.op == "publish" and ("abort", key[1]) in applied:
                record = JournalRecord(
                    lsn=0,
                    op="repair",
                    blob_id=blob_id,
                    payload={"version": key[1]},
                )
            fresh.append(record)
            applied.add(key)
        if not fresh:
            return 0
        dest = self.shards[dest_index]
        frontier_before = dest.latest_version(blob_id)
        self._replay_into(fresh, dest_index)
        dest.discount_replayed_activity(
            registers=sum(1 for record in fresh if record.op == "register"),
            publishes=sum(1 for record in fresh if record.op == "publish"),
            published=dest.latest_version(blob_id) - frontier_before,
        )
        self.migration_catchup_records += len(fresh)
        return len(fresh)

    def _stream_moves(self, moves: "List[Tuple[int, BlobId, int]]") -> int:
        """Stream ``(src shard, blob, dest shard)`` moves, pacing the freeze.

        At most :data:`MIGRATION_BATCH_BLOBS` moves stream in one pass with
        every moved blob's commit path frozen throughout.  More are
        streamed in bounded batches — only the current batch is frozen, so
        commits to the rest of the moving set keep flowing — followed by
        one freeze-all catch-up pass that replays just the per-blob record
        deltas (see :meth:`_stream_blob_delta`), which is short because
        each blob only accumulated the commits that raced its unfrozen
        window.  Returns total records streamed (catch-up deltas included).
        """
        total = 0
        if len(moves) <= MIGRATION_BATCH_BLOBS:
            self.membership.set_migrating([blob_id for _, blob_id, _ in moves])
            for src_index, blob_id, dest_index in moves:
                count, _ = self._stream_blob(
                    self.shards[src_index], blob_id, dest_index
                )
                total += count
            return total
        applied: Dict[BlobId, set] = {}
        for start in range(0, len(moves), MIGRATION_BATCH_BLOBS):
            chunk = moves[start : start + MIGRATION_BATCH_BLOBS]
            self.membership.set_migrating([blob_id for _, blob_id, _ in chunk])
            self.migration_batches += 1
            for src_index, blob_id, dest_index in chunk:
                count, keys = self._stream_blob(
                    self.shards[src_index], blob_id, dest_index
                )
                applied[blob_id] = keys
                total += count
        # Final consistent cut: freeze every moved blob, then fold in
        # whatever landed on the old owners between a blob's batch and now.
        self.membership.set_migrating([blob_id for _, blob_id, _ in moves])
        for src_index, blob_id, dest_index in moves:
            total += self._stream_blob_delta(
                self.shards[src_index], blob_id, dest_index, applied[blob_id]
            )
        return total

    def add_shard(self, shard_id: Optional[str] = None) -> Dict[str, object]:
        """Grow the coordinator by one shard at runtime.

        The new shard starts ``joining``: the pending ring decides which
        blobs move (the minimal consistent-hashing set), their commit paths
        are frozen behind the retryable epoch guard, the source shards
        export each moved blob's journal history under their commit locks
        and stream it into the new shard (journal first when durable, so
        the new shard is crash-safe before it serves), and the epoch bump
        then commits ring, status and routing in one atomic step.  Blob
        creation is paused for the duration (it holds the same lock), so
        the migration plan is complete by construction.

        Returns a report: new shard index/id, committed epoch, blobs moved
        and journal records streamed.
        """
        from ..resilience.journal import ShardJournal

        with self._id_lock:
            self._require_all_serving()
            index = self.membership.num_slots
            if shard_id is None:
                shard_id = f"vm-{index:03d}"
            pending_ring = self.membership.begin_join(shard_id, migrating=())
            manager = VersionManager()
            self.shards.append(manager)
            journal = None
            try:
                plan = self._migration_plan(pending_ring, target=shard_id)
                migrating = [blob_id for ids in plan.values() for blob_id in ids]
                if self.journals is not None:
                    template = self.journals[0]
                    journal = ShardJournal(
                        shard_id=shard_id,
                        directory=template.directory,
                        snapshot_interval=template.snapshot_interval,
                        snapshot_max_bytes=template.snapshot_max_bytes,
                        snapshot_max_age=template.snapshot_max_age,
                        keep_snapshots=template.keep_snapshots,
                    )
                    journal.snapshot(manager.dump_state())
                    manager.journal = journal
                    self.journals.append(journal)
                if self.standbys is not None:
                    # Subscribed before the stream starts, so the standby
                    # replica receives the migrated histories like any other
                    # transition.
                    self.standbys.append(self._standby_following(journal))
                # The freeze happens inside _stream_moves, before the first
                # export of each batch: a racing commit either precedes its
                # blob's export (and is in the copy) or retries by epoch.
                records_streamed = self._stream_moves(
                    [
                        (src_index, blob_id, index)
                        for src_index in sorted(plan)
                        for blob_id in plan[src_index]
                    ]
                )
            except Exception:
                self.membership.abort_transition()
                del self.shards[index:]
                if self.journals is not None:
                    del self.journals[index:]
                if self.standbys is not None:
                    for standby in self.standbys[index:]:
                        standby.unfollow()
                    del self.standbys[index:]
                raise
            epoch = self.membership.commit_transition(f"shard {shard_id} joined")
            for src_index in sorted(plan):
                for blob_id in plan[src_index]:
                    self.shards[src_index].drop_blob(blob_id)
            self.rebalances += 1
            return {
                "index": index,
                "shard_id": shard_id,
                "epoch": epoch,
                "moved_blobs": len(migrating),
                "records_streamed": records_streamed,
                "sources": {src: len(ids) for src, ids in sorted(plan.items())},
            }

    def remove_shard(self, shard: "int | str") -> Dict[str, object]:
        """Drain a shard's blobs onto the surviving ring and retire it.

        The mirror of :meth:`add_shard`: the shard turns ``draining`` (it
        keeps serving while its histories stream out, but receives no new
        blobs), every blob it owns is exported and journal-streamed to its
        owner under the pending ring, and the epoch bump retires the slot —
        kept in place so shard indexes (journals, standbys, simulated
        machines) stay stable.  Returns the same shaped report as
        :meth:`add_shard`, with per-destination counts.
        """
        index = shard if isinstance(shard, int) else self.shard_ids.index(shard)
        with self._id_lock:
            self._require_all_serving()
            shard_id = self.shard_ids[index]
            pending_ring = self.membership.begin_drain(index, migrating=())
            records_streamed = 0
            try:
                moved = self.shards[index].blob_ids()
                destinations: Dict[int, List[BlobId]] = {}
                for blob_id in moved:
                    dest_index = self.membership.index_of(
                        pending_ring.owner(_blob_key(blob_id))
                    )
                    destinations.setdefault(dest_index, []).append(blob_id)
                records_streamed = self._stream_moves(
                    [
                        (index, blob_id, dest_index)
                        for dest_index in sorted(destinations)
                        for blob_id in destinations[dest_index]
                    ]
                )
            except Exception:
                self.membership.abort_transition()
                raise
            epoch = self.membership.commit_transition(f"shard {shard_id} drained")
            for blob_id in moved:
                self.shards[index].drop_blob(blob_id)
            if self.standbys is not None:
                standby = self.standbys[index]
                if standby is not None:
                    # A retired shard never rejoins: nothing to hand back.
                    standby.unfollow()
                    standby.handoff.discard_files()
                    self.standbys[index] = None
            if self.journals is not None:
                self.journals[index].close()
            self.rebalances += 1
            return {
                "index": index,
                "shard_id": shard_id,
                "epoch": epoch,
                "moved_blobs": len(moved),
                "records_streamed": records_streamed,
                "destinations": {
                    dest: len(ids) for dest, ids in sorted(destinations.items())
                },
            }

    # -- durable membership --------------------------------------------------------
    def _on_membership_change(self, state: Dict[str, object]) -> None:
        """Journal a committed epoch bump to every live shard journal.

        Fired by the membership under its lock after each transition.
        Writing the full ring state to *every* non-retired slot means any
        one surviving journal carries the membership, so a restarted
        deployment re-derives routing (``recover_from`` without
        ``statuses=``) no matter which journals it recovers with.  No-op
        while durability is off — including ``recover_from``'s own
        ``restore_statuses`` call, which runs before journals re-attach.
        """
        if self.journals is None:
            return
        statuses = state.get("statuses") or []
        skip = (ShardStatus.RETIRED.value, ShardStatus.DOWN.value)
        for index, journal in enumerate(self.journals):
            if journal is None:
                continue
            # A slot retired by this very transition had its journal
            # closed, and a down slot's stream consumer may be a standby
            # mid-takeover (appending would violate its single-writer
            # guard); skip both — the state lives in every live journal,
            # which is all the recovery-time max-epoch scan needs.
            if index < len(statuses) and statuses[index] in skip:
                continue
            journal.append("membership", 0, **state)

    def _log_membership(self) -> None:
        """Journal the current ring once (durability enablement / recovery)."""
        self._on_membership_change(self.membership.state())

    @staticmethod
    def _membership_from_journals(journals: Sequence) -> Optional[List[str]]:
        """Max-epoch journaled status vector across ``journals`` (or None)."""
        best: Optional[Dict[str, object]] = None
        for journal in journals:
            latest = getattr(journal, "latest_membership", None)
            state = latest() if callable(latest) else None
            if state is None:
                continue
            if best is None or state.get("epoch", 0) > best.get("epoch", 0):
                best = state
        if best is None:
            return None
        return [str(status) for status in best.get("statuses", [])]

    # -- durability & failover lifecycle -------------------------------------------
    def enable_durability(
        self,
        journals: Optional[Sequence] = None,
        directory: Optional[str] = None,
        snapshot_interval: int = 0,
        failover: bool = True,
        snapshot_max_bytes: int = 0,
        snapshot_max_age: float = 0.0,
        keep_snapshots: int = 1,
    ) -> List:
        """Attach one write-ahead journal per shard (and, optionally, standbys).

        Every shard state transition from here on is journaled before it is
        acknowledged.  Fresh journals are seeded with a snapshot of the
        shard's *current* state, so enabling durability on a deployment
        that already holds blobs is safe — replay starts from that
        snapshot.  A passed-in journal that already **has history** (a
        reopened file-backed one) is treated as recovery input instead:
        its shard is rebuilt from the journal — never the other way
        around, so enabling durability can never truncate a WAL that holds
        real state.  (A lived-in journal combined with a shard that
        already holds blobs is ambiguous and rejected.)  With
        ``failover=True`` (and more than one shard) each journal
        additionally streams to a hot standby on the shard's ring
        successor, which serves the shard's blobs while it is down.

        Pass pre-built ``journals`` (e.g. reopened file-backed ones) or let
        the coordinator create them, file-backed under ``directory`` when
        given, in-memory otherwise; ``snapshot_max_bytes`` /
        ``snapshot_max_age`` / ``keep_snapshots`` are the snapshot-GC
        policies forwarded to created journals.  Returns the journals.
        """
        from ..resilience.failover import fold_handoff
        from ..resilience.journal import ShardJournal

        if journals is None:
            journals = [
                ShardJournal(
                    shard_id=shard_id,
                    directory=directory,
                    snapshot_interval=snapshot_interval,
                    snapshot_max_bytes=snapshot_max_bytes,
                    snapshot_max_age=snapshot_max_age,
                    keep_snapshots=keep_snapshots,
                )
                for shard_id in self.shard_ids
            ]
        journals = list(journals)
        if len(journals) != len(self.shards):
            raise InvalidConfigError(
                f"expected {len(self.shards)} journals, got {len(journals)}"
            )
        for index, journal in enumerate(journals):
            # Drop any stream consumers a previous deployment left behind.
            journal.clear_subscribers()
            shard = self.shards[index]
            if journal.has_history:
                if shard.blob_ids():
                    raise InvalidConfigError(
                        f"journal for shard {self.shard_ids[index]} already "
                        f"has history and the shard already holds blobs; "
                        f"recover into a fresh coordinator (recover_from) "
                        f"instead"
                    )
                shard = self._rebuild_shard_from_journal(index, journal)
                fold_handoff(journal, shard)
            else:
                # Seed the journal with the shard's current state so replay
                # is self-contained even when blobs predate durability.
                journal.snapshot(shard.dump_state())
            shard.journal = journal
        self.journals = journals
        self.standbys = None
        if failover and len(self.shards) > 1:
            self.standbys = [self._standby_following(journal) for journal in journals]
        # Seed every journal with the current ring so even a deployment
        # that never changes membership can restart without statuses=.
        self._log_membership()
        return journals

    def _rebuild_shard_from_journal(self, index: int, journal) -> VersionManager:
        """Fresh shard state from a journal: replay, attach, install, re-seed ids.

        The one rebuild sequence shared by single-shard recovery, restart
        recovery and reopened-journal durability enablement.
        """
        manager = VersionManager()
        journal.replay_into(manager)
        manager.journal = journal
        self.shards[index] = manager
        with self._id_lock:
            for blob_id in manager.blob_ids():
                self._next_blob_id = max(self._next_blob_id, blob_id + 1)
        return manager

    @staticmethod
    def _standby_following(journal):
        """A hot standby replica following ``journal`` (one local stream)."""
        from ..resilience.failover import StreamedStandby

        standby = StreamedStandby(journal.shard_id)
        standby.follow(journal)
        return standby

    def crash_shard(self, index: int) -> None:
        """Crash shard ``index``: its in-memory state is gone.

        With failover enabled its standby (on the ring successor) starts
        serving the shard's blobs immediately, logging every transition to
        a handoff journal for the shard's return.  The standby this machine
        *hosts* — the one for its ring predecessor — dies with it: its
        in-memory replica is discarded and rebuilt from the predecessor's
        journal when this machine rejoins.
        """
        if self.membership.status_of(index) in (ShardStatus.DOWN, ShardStatus.RETIRED):
            return
        self.membership.mark_down(index)
        if self.standbys is not None:
            standby = self.standbys[index]
            if standby is not None:
                standby.take_over(self.journals[index].directory)
                self.failovers += 1
            predecessor = self.membership.predecessor_index(index)
            hosted = self.standbys[predecessor]
            if predecessor != index and hosted is not None:
                hosted.unfollow()
                self.standbys[predecessor] = None

    def recover_shard(self, index: int) -> int:
        """Restart shard ``index`` from its journal; returns records caught up.

        The shard is rebuilt from scratch — snapshot plus WAL replay
        restores the state as of the crash, then the standby's handoff
        records (everything committed on its behalf while it was down) are
        adopted into the journal and applied.  If the standby's host died
        too, a file-backed handoff is recovered from disk instead (an
        in-memory one died with the host).  Without a journal the old
        in-memory state is resumed unchanged (a pause, not a crash — the
        pre-durability behaviour).
        """
        from ..resilience.failover import fold_handoff

        if self.membership.status_of(index) is not ShardStatus.DOWN:
            return 0
        caught_up = 0
        if self.journals is not None:
            journal = self.journals[index]
            manager = self._rebuild_shard_from_journal(index, journal)
            if self.standbys is not None:
                standby = self.standbys[index]
                if standby is not None:
                    # The rejoin a process deployment runs: the standby
                    # resigns, the primary adopts (and re-stamps) its
                    # handoff, and the standby re-bootstraps from the WAL.
                    standby.resign()
                    handoff = standby.handoff.records()
                    journal.ingest(handoff, apply_to=manager)
                    caught_up = len(handoff)
                    standby.handoff.discard_files()
                    standby.follow(journal)
                else:
                    caught_up = fold_handoff(journal, manager)
            with self._id_lock:
                for blob_id in manager.blob_ids():
                    self._next_blob_id = max(self._next_blob_id, blob_id + 1)
        self.membership.mark_active(index)
        self.recoveries += 1
        # This machine hosts its ring predecessor's standby; if that replica
        # died with the machine, rebuild it from the predecessor's journal.
        # (Only while the predecessor is *alive* — a dead predecessor's
        # pending disk handoff must survive until its own recovery ingests
        # it, which a fresh takeover would clobber.)
        if self.standbys is not None and self.journals is not None:
            predecessor = self.membership.predecessor_index(index)
            if (
                predecessor != index
                and self.standbys[predecessor] is None
                and self.membership.status_of(predecessor) is ShardStatus.ACTIVE
            ):
                self.standbys[predecessor] = self._standby_following(
                    self.journals[predecessor]
                )
        return caught_up

    def recover_from(
        self,
        journals: Sequence,
        failover: bool = True,
        statuses: Optional[Sequence[str]] = None,
    ) -> None:
        """Rebuild every shard of a *restarted* deployment from its journals.

        The full-deployment analogue of :meth:`recover_shard`: a fresh
        coordinator (same shard count) replays one journal per shard —
        folding in any durable handoff a failed-over shard left on disk —
        and resumes exactly at the published frontiers the previous
        deployment crashed with: zero committed-version loss.  The journals
        stay attached, so the recovered deployment keeps journaling (and,
        with ``failover``, streaming to standbys) from where the old one
        stopped.

        Blob routing is a pure function of the ring member set, so a
        deployment whose membership changed at runtime must restore the
        old membership's statuses (notably which slots are ``retired``)
        for the restarted coordinator to resolve every blob to the shard
        whose journal holds it.  The journals themselves carry that state:
        every committed epoch bump is journaled to every live shard, so by
        default (``statuses=None``) the max-epoch membership record found
        across the passed journals is adopted.  Passing ``statuses``
        explicitly (from ``membership.report()``) overrides the journaled
        state — the escape hatch for journals predating membership
        durability.
        """
        from ..resilience.failover import fold_handoff

        journals = list(journals)
        if len(journals) != len(self.shards):
            raise InvalidConfigError(
                f"expected {len(self.shards)} journals, got {len(journals)}"
            )
        if statuses is None:
            statuses = self._membership_from_journals(journals)
        if statuses is not None:
            restored = [
                ShardStatus.RETIRED
                if ShardStatus(status) is ShardStatus.RETIRED
                else ShardStatus.ACTIVE
                for status in statuses
            ]
            self.membership.restore_statuses(restored)
        for index, journal in enumerate(journals):
            # The previous deployment's standbys (possibly stuck
            # mid-takeover) must not receive the new deployment's stream.
            journal.clear_subscribers()
            manager = self._rebuild_shard_from_journal(index, journal)
            fold_handoff(journal, manager)
        self.journals = journals
        self.standbys = None
        if failover and len(self.shards) > 1:
            self.standbys = [
                self._standby_following(journal)
                if self.membership.status_of(index) is not ShardStatus.RETIRED
                else None
                for index, journal in enumerate(journals)
            ]
        # Re-journal the restored ring at the post-restore epoch (the
        # restore itself ran before the journals were re-attached).
        self._log_membership()

    # -- blob lifecycle ------------------------------------------------------------
    def create_blob(
        self,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        replication: int = 1,
        blob_id: Optional[BlobId] = None,
        avoid_shards: Optional[Sequence[int]] = None,
    ) -> BlobInfo:
        """Create a blob, optionally steering it off the ``avoid_shards``.

        Placement consults the membership: only ``active`` shards take new
        blobs (a draining shard stops growing, a joining one is not routed
        to yet), and the QoS hot-shard hint ``avoid_shards`` further probes
        successive candidate ids until one routes to an acceptable shard;
        ids skipped by the probe are simply never used (blob ids stay
        unique and monotonic, just not dense).  The hint is best-effort: if
        every active shard is to be avoided — or an explicit ``blob_id`` is
        given — it is ignored.  Creation holds the same lock as membership
        transitions, so no blob is ever placed by a ring that is about to
        be replaced.
        """
        with self._id_lock:
            if blob_id is None:
                blob_id = self._next_blob_id
                if avoid_shards:
                    # Ring members minus the hint; a DOWN shard stays
                    # eligible (its standby serves new blobs), and DRAINING
                    # is unobservable here — transitions hold this lock.
                    members = set(self.membership.ring_member_indexes())
                    eligible = members - {
                        index
                        for index in avoid_shards
                        if 0 <= index < len(self.shards)
                    }
                    if eligible and eligible != members:
                        candidate = blob_id
                        for _ in range(max(8, 4 * len(self.shards))):
                            if self.membership.owner_index(candidate) in eligible:
                                blob_id = candidate
                                break
                            candidate += 1
                self._next_blob_id = blob_id + 1
            else:
                self._next_blob_id = max(self._next_blob_id, blob_id + 1)
            return self.shard_for(blob_id).create_blob(
                chunk_size=chunk_size, replication=replication, blob_id=blob_id
            )

    def blob_ids(self) -> List[BlobId]:
        ids: List[BlobId] = []
        for shard in self._observable_shards():
            ids.extend(shard.blob_ids())
        return sorted(ids)

    # -- aggregate counters / monitoring -------------------------------------------------
    @property
    def writes_registered(self) -> int:
        return sum(shard.writes_registered for shard in self._observable_shards())

    @property
    def versions_published(self) -> int:
        return sum(shard.versions_published for shard in self._observable_shards())

    @property
    def register_rounds(self) -> int:
        return sum(shard.register_rounds for shard in self._observable_shards())

    @property
    def publish_rounds(self) -> int:
        return sum(shard.publish_rounds for shard in self._observable_shards())

    def backlog(self) -> int:
        return sum(shard.backlog() for shard in self._observable_shards())

    def membership_report(self) -> Dict[str, object]:
        """The membership's own snapshot (epoch, statuses, transition state)."""
        report = self.membership.report()
        report["rebalances"] = self.rebalances
        report["blobs_migrated"] = self.blobs_migrated
        report["migration_batches"] = self.migration_batches
        report["migration_catchup_records"] = self.migration_catchup_records
        return report

    def shard_reports(self) -> List[Dict[str, object]]:
        """Per-shard monitoring records (the QoS monitor's hot-shard input).

        Reported against the *current membership epoch*: every record
        carries the epoch and the slot's membership status, a crashed shard
        is reported through its serving standby (flagged ``alive: False``
        so monitors can tell a takeover from normal load), and a retired
        slot reports its final — empty — state rather than pretending to
        own blobs that migrated away.
        """
        epoch = self.membership.epoch
        statuses = self.membership.statuses()
        return [
            {
                "shard": index,
                "shard_id": shard_id,
                "alive": statuses[index]
                not in (ShardStatus.DOWN, ShardStatus.RETIRED),
                "status": statuses[index].value,
                "epoch": epoch,
                **shard.report(),
            }
            for index, (shard_id, shard) in enumerate(
                zip(self.shard_ids, self._observable_shards())
            )
        ]

    def blob_distribution(self) -> Dict[str, int]:
        """How many existing blobs each *ring member* owns right now.

        Attribution follows the current membership epoch's routing — not
        the deployment-time shard list — so a failed-over shard's blobs
        count against their (down) owner rather than the standby's host,
        and a drained shard's blobs count against the shards that inherited
        them instead of a retired slot.
        """
        counts: Dict[str, int] = {
            self.shard_ids[index]: 0
            for index in self.membership.ring_member_indexes()
        }
        for blob_id in self.blob_ids():
            counts[self.shard_ids[self.membership.owner_index(blob_id)]] += 1
        return counts
