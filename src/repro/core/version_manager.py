"""Version manager: the serialisation point of BlobSeer.

The version manager is "responsible of assigning versions to writes and
appends and exposing these versions to reads in such way as to ensure
consistency" (Section I.B.2).  It is deliberately tiny: all it serialises
is (1) assigning the next version number together with the snapshot size
that version will expose, and (2) publishing completed versions *in
assignment order*.  Everything else — pushing chunks to data providers and
weaving the new metadata tree — happens concurrently on the clients, which
is what lets BlobSeer sustain write/write and read/write concurrency.

Linearizability argument (Section I.B.1 references [1]): each write takes
effect atomically at the moment its version becomes the published frontier;
the frontier only ever advances one version at a time and in assignment
order, and readers only ever observe published frontiers, so every history
is equivalent to the sequential history ordered by version number.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .config import DEFAULT_CHUNK_SIZE
from .errors import (
    BlobNotFoundError,
    CommitError,
    InvalidRangeError,
    VersionNotFoundError,
)
from .metadata.segment_tree import WriteRecord, root_key
from .types import BlobId, BlobInfo, NodeKey, SnapshotInfo, Version, WriteTicket


class WriteState(Enum):
    """Lifecycle of one registered write."""

    PENDING = "pending"        # version assigned, client still working
    COMPLETED = "completed"    # client published, waiting for earlier versions
    PUBLISHED = "published"    # visible to readers
    ABORTED = "aborted"        # client declared failure before completing


@dataclass
class _WriteEntry:
    record: WriteRecord
    state: WriteState = WriteState.PENDING
    is_append: bool = False
    writer: Optional[str] = None


@dataclass
class _BlobState:
    info: BlobInfo
    #: entries[v - 1] describes version v (version 0 is the implicit empty snapshot)
    entries: List[_WriteEntry] = field(default_factory=list)
    published_frontier: Version = 0

    @property
    def tentative_size(self) -> int:
        """Size the next write will be layered on (last assigned version's size)."""
        return self.entries[-1].record.new_size if self.entries else 0

    @property
    def next_version(self) -> Version:
        return len(self.entries) + 1

    def entry(self, version: Version) -> _WriteEntry:
        return self.entries[version - 1]

    def size_of(self, version: Version) -> int:
        if version == 0:
            return 0
        return self.entry(version).record.new_size


class VersionManager:
    """Central (but extremely lightweight) version assignment and publication.

    One coordinator shard.  The layers above reach it through a
    :class:`~repro.core.version_coordinator.VersionCoordinator` router,
    which holds it in-process or calls it over RPC in a ``--role
    coordinator`` process; the in-process router passes the epoch
    ``guard`` that the mutating calls run under their lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._blobs: Dict[BlobId, _BlobState] = {}
        self._next_blob_id = 1
        #: Counters exposed for monitoring / benchmark harnesses.
        self.writes_registered = 0
        self.versions_published = 0
        #: Serialised rounds taken (one bulk call = one round, however many
        #: operations it carried) — what the sharding benchmarks contend on.
        self.register_rounds = 0
        self.publish_rounds = 0
        #: Optional write-ahead log (:class:`~repro.resilience.journal.
        #: ShardJournal`): when set, every state transition is appended —
        #: inside the commit lock, before the caller is acknowledged — so a
        #: crashed shard replays back to its exact frontier.
        self.journal = None

    # -- blob lifecycle ---------------------------------------------------------
    def create_blob(
        self,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        replication: int = 1,
        blob_id: Optional[BlobId] = None,
        avoid_shards: Optional[Sequence[int]] = None,
    ) -> BlobInfo:
        """Create an empty blob and return its immutable parameters.

        ``blob_id`` is normally assigned here; a sharded coordinator
        allocates ids globally and passes the chosen one down so that every
        shard's namespace stays disjoint.  ``avoid_shards`` is the sharded
        coordinator's placement-steering hint; with a single shard there is
        nowhere else to go, so it is accepted and ignored.
        """
        if chunk_size < 1:
            raise InvalidRangeError("chunk_size must be >= 1")
        if replication < 1:
            raise InvalidRangeError("replication must be >= 1")
        with self._lock:
            if blob_id is None:
                blob_id = self._next_blob_id
                self._next_blob_id += 1
            else:
                if blob_id in self._blobs:
                    raise CommitError(f"blob {blob_id} already exists")
                self._next_blob_id = max(self._next_blob_id, blob_id + 1)
            info = BlobInfo(blob_id=blob_id, chunk_size=chunk_size, replication=replication)
            self._blobs[blob_id] = _BlobState(info=info)
            if self.journal is not None:
                self.journal.append(
                    "create", blob_id, chunk_size=chunk_size, replication=replication
                )
            return info

    def blob_ids(self) -> List[BlobId]:
        with self._lock:
            return sorted(self._blobs)

    def blob_info(self, blob_id: BlobId) -> BlobInfo:
        return self._state(blob_id).info

    def _state(self, blob_id: BlobId) -> _BlobState:
        state = self._blobs.get(blob_id)
        if state is None:
            raise BlobNotFoundError(blob_id)
        return state

    # -- write registration (the serialised step) ---------------------------------
    def register_write(
        self,
        blob_id: BlobId,
        offset: int,
        size: int,
        writer: Optional[str] = None,
    ) -> WriteTicket:
        """Assign the next version to a write of ``size`` bytes at ``offset``.

        The write is layered on the most recently *assigned* snapshot (not
        the most recently published one): BlobSeer writers never wait for
        each other, ordering is resolved at publication time.
        """
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
        """Assign consecutive versions to several writes in one serialised round.

        This is the batched form of :meth:`register_write`: a client that
        pipelined the chunk pushes of N independent writes takes all N
        version assignments under a single lock acquisition (one round trip
        to the version manager instead of N), keeping the serialised step
        proportionally *smaller* as batches grow.  Specs are processed in
        order and each is validated against the tentative size as the
        earlier ones in the same call take effect.  An invalid spec yields
        its exception object in place of a ticket and consumes no version —
        per-operation failure isolation, so one bad write in a batch never
        poisons its siblings.
        """
        return self.register_writes_bulk([(blob_id, writes)], writer=writer)[0]

    def register_writes_bulk(
        self,
        batches: Sequence[Tuple[BlobId, Sequence[Tuple[int, int]]]],
        writer: Optional[str] = None,
        guard: Optional[Callable[[], None]] = None,
    ) -> List[List[Union[WriteTicket, Exception]]]:
        """Register the writes of several blobs in one serialised round.

        This is the per-shard round the sharded coordinator runs for a
        batch: all blobs of a batch owned by one coordinator shard take
        their version assignments under a single lock acquisition — one
        round trip per *shard*, not per blob or per operation.  Results are aligned with
        ``batches``: one ticket-or-exception list per (blob, specs) entry,
        in spec order.  An unknown blob id fails the round *before* any
        version is assigned (all-or-nothing) — otherwise the earlier
        blobs' freshly assigned tickets would be orphaned behind the
        exception and stall their frontiers forever; invalid specs of
        known blobs keep their per-spec isolation.

        ``guard`` (set by the sharded coordinator's router) runs under the
        commit lock before anything is assigned; it raises the retryable
        :class:`~repro.core.errors.EpochRetryError` when the membership
        epoch moved or a blob of the round is mid-migration.
        """
        results: List[List[Union[WriteTicket, Exception]]] = []
        with self._lock:
            if guard is not None:
                guard()
            self.register_rounds += 1
            resolved = [(self._state(blob_id), writes) for blob_id, writes in batches]
            for state, writes in resolved:
                outcomes: List[Union[WriteTicket, Exception]] = []
                for offset, size in writes:
                    if size <= 0:
                        outcomes.append(InvalidRangeError("write size must be > 0"))
                        continue
                    if offset < 0:
                        outcomes.append(InvalidRangeError("write offset must be >= 0"))
                        continue
                    base_size = state.tentative_size
                    if offset > base_size:
                        outcomes.append(
                            InvalidRangeError(
                                f"write offset {offset} is beyond the blob end ({base_size}); "
                                f"writing past the end would create an unreadable gap"
                            )
                        )
                        continue
                    outcomes.append(self._register_locked(state, offset, size, False, writer))
                results.append(outcomes)
        return results

    def register_append(
        self,
        blob_id: BlobId,
        size: int,
        writer: Optional[str] = None,
        guard: Optional[Callable[[], None]] = None,
    ) -> WriteTicket:
        """Assign the next version to an append of ``size`` bytes.

        The append offset is chosen atomically with the version assignment,
        so concurrent appenders never collide.
        """
        if size <= 0:
            raise InvalidRangeError("append size must be > 0")
        with self._lock:
            if guard is not None:
                guard()
            self.register_rounds += 1
            state = self._state(blob_id)
            return self._register_locked(state, state.tentative_size, size, True, writer)

    def _register_locked(
        self,
        state: _BlobState,
        offset: int,
        size: int,
        is_append: bool,
        writer: Optional[str],
    ) -> WriteTicket:
        version = state.next_version
        base_size = state.tentative_size
        new_size = max(base_size, offset + size)
        record = WriteRecord(version=version, offset=offset, size=size, new_size=new_size)
        state.entries.append(_WriteEntry(record=record, is_append=is_append, writer=writer))
        self.writes_registered += 1
        if self.journal is not None:
            self.journal.append(
                "register",
                state.info.blob_id,
                version=version,
                offset=offset,
                size=size,
                is_append=is_append,
                writer=writer,
            )
        return WriteTicket(
            blob_id=state.info.blob_id,
            version=version,
            offset=offset,
            size=size,
            is_append=is_append,
            new_blob_size=new_size,
            base_blob_size=base_size,
        )

    # -- publication ------------------------------------------------------------------
    def publish(self, blob_id: BlobId, version: Version) -> Version:
        """Mark ``version`` as completed and advance the published frontier.

        Returns the new published frontier.  Versions are only ever exposed
        in assignment order: if an earlier version is still pending, the
        completed one waits (readers keep seeing the old frontier, which is
        exactly the paper's "readers see a consistent snapshot at all
        times").
        """
        return self.publish_many(blob_id, [version])

    def publish_many(
        self,
        blob_id: BlobId,
        versions: Sequence[Version],
        guard: Optional[Callable[[], None]] = None,
    ) -> Version:
        """Mark several of one blob's versions completed in a single round.

        The bulk form of :meth:`publish` (mirroring
        :meth:`register_writes`): a batch that produced N snapshots of one
        blob notifies the coordinator once instead of N times.  Versions are
        processed in ascending order and the frontier advances once at the
        end; the same ordering rules apply — nothing becomes visible while
        an earlier version is still pending.  Returns the new frontier.
        """
        with self._lock:
            if guard is not None:
                guard()
            self.publish_rounds += 1
            state = self._state(blob_id)
            ordered = sorted(versions)
            # Validate the whole round before mutating anything: a rejected
            # version must not leave its siblings half-completed behind an
            # exception the caller reads as total failure.
            for version in ordered:
                if version < 1 or version > len(state.entries):
                    raise VersionNotFoundError(blob_id, version)
                if state.entry(version).state == WriteState.ABORTED:
                    raise CommitError(
                        f"version {version} was aborted and cannot be published"
                    )
            for version in ordered:
                entry = state.entry(version)
                if entry.state == WriteState.PENDING:
                    entry.state = WriteState.COMPLETED
                if self.journal is not None:
                    self.journal.append("publish", blob_id, version=version)
            self._advance_frontier_locked(state)
            self._maybe_snapshot_locked()
            return state.published_frontier

    def abort(
        self,
        blob_id: BlobId,
        version: Version,
        guard: Optional[Callable[[], None]] = None,
    ) -> None:
        """Declare a registered write as failed.

        The version stays in the history (later writers may already
        reference the interval it announced); a subsequent
        :meth:`repair` — typically issued by the client library — must
        install no-op metadata so the frontier can pass it.
        """
        with self._lock:
            if guard is not None:
                guard()
            state = self._state(blob_id)
            if version < 1 or version > len(state.entries):
                raise VersionNotFoundError(blob_id, version)
            entry = state.entry(version)
            if entry.state == WriteState.PUBLISHED:
                raise CommitError(f"version {version} is already published")
            entry.state = WriteState.ABORTED
            if self.journal is not None:
                self.journal.append("abort", blob_id, version=version)

    def mark_repaired(
        self,
        blob_id: BlobId,
        version: Version,
        guard: Optional[Callable[[], None]] = None,
    ) -> Version:
        """Mark an aborted version as repaired (its no-op metadata now exists)."""
        with self._lock:
            if guard is not None:
                guard()
            state = self._state(blob_id)
            entry = state.entry(version)
            if entry.state != WriteState.ABORTED:
                raise CommitError(f"version {version} is not aborted")
            entry.state = WriteState.COMPLETED
            if self.journal is not None:
                self.journal.append("repair", blob_id, version=version)
            self._advance_frontier_locked(state)
            self._maybe_snapshot_locked()
            return state.published_frontier

    def _advance_frontier_locked(self, state: _BlobState) -> None:
        while state.published_frontier < len(state.entries):
            entry = state.entry(state.published_frontier + 1)
            if entry.state not in (WriteState.COMPLETED, WriteState.PUBLISHED):
                break
            entry.state = WriteState.PUBLISHED
            state.published_frontier += 1
            self.versions_published += 1

    # -- read-side queries ---------------------------------------------------------------
    def latest_version(self, blob_id: BlobId) -> Version:
        """Most recent published version (0 = empty initial snapshot)."""
        with self._lock:
            return self._state(blob_id).published_frontier

    def get_snapshot(self, blob_id: BlobId, version: Optional[Version] = None) -> SnapshotInfo:
        """Describe one published snapshot (latest when ``version`` is None)."""
        with self._lock:
            state = self._state(blob_id)
            if version is None:
                version = state.published_frontier
            if version < 0 or version > state.published_frontier:
                raise VersionNotFoundError(blob_id, version)
            chunk_size = state.info.chunk_size
            size = state.size_of(version)
            root: Optional[NodeKey]
            if version == 0:
                root = None
            else:
                root = root_key(blob_id, version, size, chunk_size)
            return SnapshotInfo(
                blob_id=blob_id,
                version=version,
                size=size,
                chunk_size=chunk_size,
                root=root,
            )

    def get_history(self, blob_id: BlobId, upto_version: Version) -> List[WriteRecord]:
        """Write records of versions 1..upto (published or not) — metadata weaving input."""
        with self._lock:
            state = self._state(blob_id)
            upto = min(upto_version, len(state.entries))
            return [state.entries[i].record for i in range(upto)]

    def pending_versions(self, blob_id: BlobId) -> List[Version]:
        """Versions assigned but not yet published (monitoring / recovery)."""
        with self._lock:
            state = self._state(blob_id)
            return [
                entry.record.version
                for entry in state.entries
                if entry.state in (WriteState.PENDING, WriteState.COMPLETED)
                and entry.record.version > state.published_frontier
            ]

    def writer_tickets(self, blob_id: BlobId, writer: str) -> List[WriteTicket]:
        """Tickets previously assigned to ``writer`` on this blob, in order.

        The reconcile surface for at-most-once registration over a lossy
        network: a client whose register ack was lost (e.g. the coordinator
        process was SIGKILLed after journaling but before responding)
        retries with the same per-call writer token, and the shard answers
        with the tickets it already holds instead of assigning duplicates.
        Rebuilds each ticket from the entry list — a linear scan of one
        blob's history, paid only on the retry path, never on the hot path.
        """
        with self._lock:
            state = self._state(blob_id)
            tickets: List[WriteTicket] = []
            for index, entry in enumerate(state.entries):
                if entry.writer != writer:
                    continue
                base = state.entries[index - 1].record.new_size if index else 0
                tickets.append(
                    WriteTicket(
                        blob_id=blob_id,
                        version=entry.record.version,
                        offset=entry.record.offset,
                        size=entry.record.size,
                        is_append=entry.is_append,
                        new_blob_size=entry.record.new_size,
                        base_blob_size=base,
                    )
                )
            return tickets

    def aborted_versions(self, blob_id: BlobId) -> List[Version]:
        with self._lock:
            state = self._state(blob_id)
            return [
                entry.record.version
                for entry in state.entries
                if entry.state == WriteState.ABORTED
            ]

    def version_state(self, blob_id: BlobId, version: Version) -> WriteState:
        with self._lock:
            state = self._state(blob_id)
            if version < 1 or version > len(state.entries):
                raise VersionNotFoundError(blob_id, version)
            return state.entry(version).state

    # -- migration (shard add/remove streams blob histories between shards) --------------
    def export_blob_records(self, blob_id: BlobId) -> List["object"]:
        """One blob's full history as replayable journal records.

        This is the planned analogue of the failover handoff: the sequence
        ``create, register*, publish/abort*`` re-derives the blob's exact
        state — entries, states and published frontier — when replayed
        through :func:`~repro.resilience.journal.apply_record` on the new
        owner.  Taken under the commit lock, so the copy is a consistent
        cut: everything assigned before the export is included, everything
        after is redirected by the migration guard.
        """
        from ..resilience.journal import JournalRecord

        with self._lock:
            state = self._state(blob_id)
            records: List[JournalRecord] = [
                JournalRecord(
                    lsn=0,
                    op="create",
                    blob_id=blob_id,
                    payload={
                        "chunk_size": state.info.chunk_size,
                        "replication": state.info.replication,
                    },
                )
            ]
            for entry in state.entries:
                records.append(
                    JournalRecord(
                        lsn=0,
                        op="register",
                        blob_id=blob_id,
                        payload={
                            "version": entry.record.version,
                            "offset": entry.record.offset,
                            "size": entry.record.size,
                            "is_append": entry.is_append,
                            "writer": entry.writer,
                        },
                    )
                )
            for entry in state.entries:
                if entry.state in (WriteState.COMPLETED, WriteState.PUBLISHED):
                    records.append(
                        JournalRecord(
                            lsn=0,
                            op="publish",
                            blob_id=blob_id,
                            payload={"version": entry.record.version},
                        )
                    )
                elif entry.state == WriteState.ABORTED:
                    records.append(
                        JournalRecord(
                            lsn=0,
                            op="abort",
                            blob_id=blob_id,
                            payload={"version": entry.record.version},
                        )
                    )
            return records

    def discount_replayed_activity(
        self, registers: int, publishes: int, published: int
    ) -> None:
        """Back replayed-history bumps out of the monitoring counters.

        A migration replays a moved blob's whole history through the
        public API, which increments this shard's activity counters as if
        it had just performed hundreds of commits.  That activity already
        happened — on the source shard, which keeps its counters — so the
        router subtracts the replay's exact contribution (``registers``
        register records, ``publishes`` publish rounds, a frontier of
        ``published`` versions) to keep per-shard commit deltas and the
        imbalance signal honest across a rebalance.
        """
        with self._lock:
            self.writes_registered -= registers
            self.register_rounds -= registers
            self.publish_rounds -= publishes
            self.versions_published -= published

    def drop_blob(self, blob_id: BlobId) -> None:
        """Forget one blob (its history now lives on another shard).

        Journaled like every other transition, so a crash-replayed (or
        standby-followed) shard drops the blob too instead of resurrecting
        a stale copy alongside the new owner's live one.
        """
        with self._lock:
            if blob_id not in self._blobs:
                raise BlobNotFoundError(blob_id)
            del self._blobs[blob_id]
            if self.journal is not None:
                self.journal.append("drop", blob_id)

    # -- durability ----------------------------------------------------------------------
    def _maybe_snapshot_locked(self) -> None:
        """Compact the journal when its WAL tail outgrew the auto interval."""
        if self.journal is not None and self.journal.snapshot_due():
            self.journal.snapshot(self._dump_state_locked())

    def dump_state(self) -> Dict[str, object]:
        """Serialise the full shard state (JSON-safe) for a journal snapshot."""
        with self._lock:
            return self._dump_state_locked()

    def _dump_state_locked(self) -> Dict[str, object]:
        return {
            "next_blob_id": self._next_blob_id,
            "blobs": [
                {
                    "blob_id": state.info.blob_id,
                    "chunk_size": state.info.chunk_size,
                    "replication": state.info.replication,
                    "published_frontier": state.published_frontier,
                    "entries": [
                        {
                            "version": entry.record.version,
                            "offset": entry.record.offset,
                            "size": entry.record.size,
                            "new_size": entry.record.new_size,
                            "state": entry.state.value,
                            "is_append": entry.is_append,
                            "writer": entry.writer,
                        }
                        for entry in state.entries
                    ],
                }
                for state in self._blobs.values()
            ],
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`dump_state` snapshot (recovery; replaces all state).

        Counters are re-derived from the snapshot (published/registered
        totals), not carried over — they are monitoring artefacts, not part
        of the linearised history.
        """
        with self._lock:
            self._blobs = {}
            self._next_blob_id = int(state["next_blob_id"])
            for blob in state["blobs"]:  # type: ignore[index]
                info = BlobInfo(
                    blob_id=blob["blob_id"],
                    chunk_size=blob["chunk_size"],
                    replication=blob["replication"],
                )
                entries = [
                    _WriteEntry(
                        record=WriteRecord(
                            version=entry["version"],
                            offset=entry["offset"],
                            size=entry["size"],
                            new_size=entry["new_size"],
                        ),
                        state=WriteState(entry["state"]),
                        is_append=entry["is_append"],
                        writer=entry.get("writer"),
                    )
                    for entry in blob["entries"]
                ]
                self._blobs[info.blob_id] = _BlobState(
                    info=info,
                    entries=entries,
                    published_frontier=blob["published_frontier"],
                )
            self.writes_registered = sum(
                len(s.entries) for s in self._blobs.values()
            )
            self.versions_published = sum(
                s.published_frontier for s in self._blobs.values()
            )

    # -- monitoring ----------------------------------------------------------------------
    def backlog(self) -> int:
        """Versions assigned but not yet published, across all blobs.

        This is the coordinator's queue depth: how far the published
        frontier lags behind assignment.  A persistently high backlog on
        one shard is the "hot shard" signal the QoS monitor watches.
        """
        with self._lock:
            return self._backlog_locked()

    def _backlog_locked(self) -> int:
        return sum(
            len(state.entries) - state.published_frontier
            for state in self._blobs.values()
        )

    def report(self) -> Dict[str, int]:
        """Monitoring counters of this (one) coordinator process."""
        with self._lock:
            return {
                "blobs": len(self._blobs),
                "writes_registered": self.writes_registered,
                "versions_published": self.versions_published,
                "register_rounds": self.register_rounds,
                "publish_rounds": self.publish_rounds,
                "backlog": self._backlog_locked(),
            }
