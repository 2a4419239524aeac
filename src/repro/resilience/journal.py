"""Write-ahead journal + snapshots for one version-coordinator shard.

The coordinator shards of :mod:`repro.core.version_coordinator` keep every
blob's write history and publication frontier in memory — fast, but a
crashed shard forgets which versions it promised readers.  The BlobSeer
versioning argument (every mutation is an *append* to a per-blob history)
makes crash recovery a pure replay problem: if the shard logs each state
transition before acknowledging it, a restarted shard that replays the log
reaches exactly the state it crashed in, published frontier included.

:class:`ShardJournal` is that log.  Seven record kinds cover the whole
coordinator state machine:

==========  =========================================================
op          payload
==========  =========================================================
create      ``chunk_size``, ``replication`` (blob id on the record)
register    ``version``, ``offset``, ``size``, ``is_append``, ``writer``
publish     ``version``
abort       ``version``
repair      ``version``
drop        (none — the blob's history migrated to another shard)
membership  ``epoch``, ``reason``, ``shard_ids``, ``statuses``
==========  =========================================================

``membership`` records are *deployment* state, not shard state: the
coordinator writes one to every live shard's journal each time the ring
changes (a shard joins, drains, retires, fails over), so a restarted
deployment re-derives the membership — which slots exist and which are
retired — from any surviving journal instead of the operator having to
pass ``statuses=`` to ``recover_from``.  They replay as no-ops
(:func:`apply_record` skips them); the journal itself tracks the
highest-epoch one seen, surfaced through :meth:`ShardJournal.
latest_membership` and persisted across snapshot truncation.

Because every record is emitted *inside* the shard's commit lock, the
journal is a total order of the shard's transitions; replaying it through
the same public ``VersionManager`` API (:func:`apply_record`) rebuilds the
identical state — version numbers, snapshot sizes and frontier all
re-derive deterministically.  A periodic **snapshot** bounds replay time:
the journal captures the shard's full state (``VersionManager.dump_state``)
and truncates the records it subsumes.

The journal is also the shard's **replication stream**: a
:class:`~repro.resilience.failover.StreamedStandby` on the ring successor
follows it by lsn — in-process by subscribing (:meth:`ShardJournal.
subscribe` hands out the bootstrap view, then every append), across
processes by pulling :meth:`ShardJournal.stream_state` over RPC — so a hot
standby tracks the primary record by record and can take over mid-workload.

Journals live in memory by default (the simulator's shards are in-process);
pass ``directory`` to persist the WAL as JSON lines plus a snapshot file,
and reopen it with :meth:`ShardJournal.open` after a real process restart.
"""

from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import ServiceError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace

#: Record kinds a journal understands (also the replay dispatch table's keys).
JOURNAL_OPS = ("create", "register", "publish", "abort", "repair", "drop", "membership")


class JournalReplayError(ServiceError):
    """A journal record did not replay to the state it originally produced."""


@dataclass(frozen=True)
class JournalRecord:
    """One durable state transition of a coordinator shard.

    ``lsn`` is the journal-local sequence number (1-based, dense); replay
    order is lsn order.  ``payload`` holds the op-specific fields listed in
    the module docstring, all JSON-serialisable.
    """

    lsn: int
    op: str
    blob_id: int
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {"lsn": self.lsn, "op": self.op, "blob_id": self.blob_id, "payload": self.payload},
            sort_keys=True,
        )

    @staticmethod
    def from_json(line: str) -> "JournalRecord":
        data = json.loads(line)
        return JournalRecord(
            lsn=data["lsn"], op=data["op"], blob_id=data["blob_id"], payload=data["payload"]
        )


class ShardJournal:
    """Write-ahead log + snapshot for one coordinator shard.

    Appends are durable-before-ack: the record is stored (and written to the
    WAL file when the journal is file-backed) before :meth:`append` returns
    to the coordinator, which only then acknowledges the client.  Snapshots
    compact the log: :meth:`snapshot` captures a full state dump and drops
    the records it covers, so replay cost is bounded by
    ``snapshot_interval`` instead of the shard's lifetime.
    """

    def __init__(
        self,
        shard_id: str = "vm-000",
        directory: Optional[str | Path] = None,
        snapshot_interval: int = 0,
        snapshot_max_bytes: int = 0,
        snapshot_max_age: float = 0.0,
        keep_snapshots: int = 1,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if snapshot_interval < 0:
            raise ValueError("snapshot_interval must be >= 0")
        if snapshot_max_bytes < 0:
            raise ValueError("snapshot_max_bytes must be >= 0")
        if snapshot_max_age < 0:
            raise ValueError("snapshot_max_age must be >= 0")
        if keep_snapshots < 1:
            raise ValueError("keep_snapshots must be >= 1")
        self.shard_id = shard_id
        self.snapshot_interval = snapshot_interval
        #: Auto-snapshot once the WAL tail exceeds this many bytes (0 = off).
        self.snapshot_max_bytes = snapshot_max_bytes
        #: Auto-snapshot once the oldest un-snapshotted record is this many
        #: seconds old (0 = off).  Uses a monotonic wall clock by default;
        #: inject ``clock`` to drive the policy from simulated time.
        self.snapshot_max_age = snapshot_max_age
        #: How many snapshots (and the WAL segments newer than the oldest of
        #: them) to retain on disk for point-in-time debugging; 1 keeps only
        #: the latest, matching the pre-GC behaviour.
        self.keep_snapshots = keep_snapshots
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._records: List[JournalRecord] = []
        self._next_lsn = 1
        self._snapshot_state: Optional[Dict[str, Any]] = None
        self._snapshot_lsn = 0
        self._subscribers: List[Callable[[JournalRecord], None]] = []
        #: Monitoring counters (the simulator charges time per append).
        self.appends = 0
        self.snapshots = 0
        #: Whether :meth:`open` dropped a torn (half-written) final WAL line.
        self.torn_tail_dropped = False
        #: WAL segments deleted by the retention policy (monitoring).
        self.segments_deleted = 0
        self._tail_bytes = 0
        self._tail_started: Optional[float] = None
        #: Highest-epoch membership payload this journal has seen (from
        #: appends, ingests, snapshot restore or WAL replay).
        self._membership_state: Optional[Dict[str, Any]] = None
        self._directory: Optional[Path] = Path(directory) if directory is not None else None
        self._wal_handle = None
        if self._directory is not None:
            self._directory.mkdir(parents=True, exist_ok=True)

    # -- file layout -------------------------------------------------------------
    @property
    def directory(self) -> Optional[Path]:
        """Backing directory of a file-backed journal (None when in-memory)."""
        return self._directory

    @property
    def wal_path(self) -> Optional[Path]:
        if self._directory is None:
            return None
        return self._directory / f"wal-{self.shard_id}.jsonl"

    @property
    def snapshot_path(self) -> Optional[Path]:
        if self._directory is None:
            return None
        return self._directory / f"snapshot-{self.shard_id}.json"

    @classmethod
    def open(
        cls,
        directory: str | Path,
        shard_id: str = "vm-000",
        snapshot_interval: int = 0,
        **policy: Any,
    ) -> "ShardJournal":
        """Reopen a file-backed journal after a process restart.

        ``policy`` passes through the snapshot-GC knobs
        (``snapshot_max_bytes``, ``snapshot_max_age``, ``keep_snapshots``).
        """
        journal = cls(
            shard_id=shard_id,
            directory=directory,
            snapshot_interval=snapshot_interval,
            **policy,
        )
        snapshot_path = journal.snapshot_path
        assert snapshot_path is not None and journal.wal_path is not None
        if snapshot_path.exists():
            data = json.loads(snapshot_path.read_text())
            journal._snapshot_state = data["state"]
            journal._snapshot_lsn = data["lsn"]
            journal._next_lsn = data["lsn"] + 1
            membership = data.get("membership")
            if membership is not None:
                journal._note_membership_locked(membership)
        if journal.wal_path.exists():
            lines = [
                line for line in journal.wal_path.read_text().splitlines() if line.strip()
            ]
            for position, line in enumerate(lines):
                try:
                    record = JournalRecord.from_json(line)
                except (json.JSONDecodeError, KeyError):
                    # A torn *final* line is a write the process died inside —
                    # never acknowledged, safe to drop.  Anywhere else it is
                    # corruption and must fail loudly.
                    if position == len(lines) - 1:
                        journal.torn_tail_dropped = True
                        break
                    raise
                journal._records.append(record)
                journal._next_lsn = max(journal._next_lsn, record.lsn + 1)
                if record.op == "membership":
                    journal._note_membership_locked(record.payload)
        return journal

    # -- the write-ahead log ------------------------------------------------------
    def append(self, op: str, blob_id: int, **payload: Any) -> JournalRecord:
        """Log one state transition; durable (and streamed) before returning."""
        if op not in JOURNAL_OPS:
            raise ValueError(f"unknown journal op {op!r}")
        started = time.perf_counter()
        with self._lock:
            record = JournalRecord(
                lsn=self._next_lsn, op=op, blob_id=blob_id, payload=payload
            )
            self._next_lsn += 1
            self._records.append(record)
            self.appends += 1
            self._write_record(record)
            if op == "membership":
                self._note_membership_locked(record.payload)
            subscribers = tuple(self._subscribers)
        # Notification happens outside the journal lock; the caller (the
        # owning shard) holds its commit lock through this call, so the
        # stream preserves the shard's total order.
        for callback in subscribers:
            callback(record)
        elapsed = time.perf_counter() - started
        if obs_metrics.enabled():
            obs_metrics.registry().histogram("journal_append_seconds").record(elapsed)
        tr = obs_trace.tracer()
        if tr.enabled:
            ctx = obs_trace.current_context()
            if ctx is not None:
                # The append happened inside a server dispatch span: nest a
                # child so the WAL write shows up on the commit critical path.
                wall_end = time.time()
                tr.record(
                    "journal:append", ctx.child(), wall_end - elapsed, wall_end,
                    tags={"op": op},
                )
        return record

    def ingest(
        self,
        records: Sequence[JournalRecord],
        apply_to: Optional[Any] = None,
        notify: bool = False,
    ) -> List[JournalRecord]:
        """Adopt records produced elsewhere (failover handoff, migration).

        Each record is re-stamped with this journal's next lsn and stored.
        Subscribers are *not* notified by default — the recovery path's
        standby produced the records and already holds their effects.  The
        planned-migration path passes ``notify=True`` instead: there the
        records arrive from *another shard*, so this journal's own standby
        must receive them through the stream like any other transition.
        When ``apply_to`` (a ``VersionManager``) is given, each record is
        replayed into it as it is adopted, so the destination catches up
        and stays durable in one pass.
        """
        adopted: List[JournalRecord] = []
        for record in records:
            with self._lock:
                stamped = JournalRecord(
                    lsn=self._next_lsn,
                    op=record.op,
                    blob_id=record.blob_id,
                    payload=dict(record.payload),
                )
                self._next_lsn += 1
                self._records.append(stamped)
                self.appends += 1
                self._write_record(stamped)
                if stamped.op == "membership":
                    self._note_membership_locked(stamped.payload)
                subscribers = tuple(self._subscribers) if notify else ()
            for callback in subscribers:
                callback(stamped)
            if apply_to is not None:
                apply_record(apply_to, stamped)
            adopted.append(stamped)
        return adopted

    def _write_record(self, record: JournalRecord) -> None:
        line: Optional[str] = None
        path = self.wal_path
        if path is not None:
            # One append-mode handle for the journal's lifetime (reset by
            # snapshot truncation): the WAL write is the durable-commit hot
            # path, one open/close syscall pair per record would dominate it.
            if self._wal_handle is None:
                self._wal_handle = path.open("a")
            line = record.to_json()
            self._wal_handle.write(line + "\n")
            self._wal_handle.flush()
        if self.snapshot_max_bytes > 0:
            if line is None:
                line = record.to_json()
            self._tail_bytes += len(line) + 1
        if self._tail_started is None:
            self._tail_started = self._clock()

    def close(self) -> None:
        """Release the WAL file handle (file-backed journals only)."""
        with self._lock:
            if self._wal_handle is not None:
                self._wal_handle.close()
                self._wal_handle = None

    def discard_files(self) -> None:
        """Delete this journal's on-disk files.

        Used for handoff journals once their records were folded into the
        primary WAL — a stale handoff file left behind would be re-ingested
        (and double-applied) by a later deployment restart.
        """
        self.close()
        for path in (self.wal_path, self.snapshot_path):
            if path is not None and path.exists():
                path.unlink()
        for path in (*self.snapshot_files(), *self.wal_segments()):
            path.unlink(missing_ok=True)

    # -- streaming ----------------------------------------------------------------
    def subscribe(self, callback: Callable[[JournalRecord], None]) -> Dict[str, Any]:
        """Register a replication-stream consumer (called once per append).

        Returns the bootstrap view (``stream_state(bootstrap=True)``) taken
        in the same critical section as the registration: every record is
        either in that view or delivered to ``callback``, never both and
        never neither.
        """
        with self._lock:
            self._subscribers.append(callback)
            return self._stream_view(0, bootstrap=True)

    def unsubscribe(self, callback: Callable[[JournalRecord], None]) -> None:
        """Remove one stream consumer (no-op when it is not subscribed)."""
        with self._lock:
            try:
                self._subscribers.remove(callback)
            except ValueError:
                pass

    def clear_subscribers(self) -> None:
        """Drop every stream consumer.

        Called when a journal is re-wired to a new deployment
        (``enable_durability`` / ``recover_from``): the previous
        deployment's standbys must stop receiving — a stale standby left
        mid-takeover would otherwise reject the new primary's stream, and a
        healthy one would double-apply every record.
        """
        with self._lock:
            self._subscribers.clear()

    # -- snapshots -----------------------------------------------------------------
    def snapshot(self, state: Dict[str, Any]) -> None:
        """Install a full-state snapshot and drop the records it subsumes.

        For a file-backed journal with ``keep_snapshots > 1``, the subsumed
        WAL is first archived as a segment (``wal-<shard>-<lsn>.jsonl``) and
        the snapshot is additionally written lsn-stamped; the retention
        pass then keeps the newest ``keep_snapshots`` snapshots and deletes
        every WAL segment at or below the oldest retained snapshot's lsn —
        a segment older than every snapshot it could roll forward from is
        pure dead weight.
        """
        started = time.perf_counter()
        with self._lock:
            self._snapshot_state = state
            self._snapshot_lsn = self._next_lsn - 1
            self._records.clear()
            self.snapshots += 1
            self._tail_bytes = 0
            self._tail_started = None
            if self._directory is not None:
                assert self.snapshot_path is not None and self.wal_path is not None
                # The snapshot carries the latest membership alongside the
                # shard state — truncation would otherwise drop the WAL
                # records the ring derivation depends on.
                payload = json.dumps(
                    {
                        "lsn": self._snapshot_lsn,
                        "state": state,
                        "membership": self._membership_state,
                    },
                    sort_keys=True,
                )
                if self._wal_handle is not None:
                    self._wal_handle.close()
                    self._wal_handle = None
                if self.keep_snapshots > 1:
                    if self.wal_path.exists():
                        self.wal_path.rename(
                            self._directory
                            / f"wal-{self.shard_id}-{self._snapshot_lsn:010d}.jsonl"
                        )
                    (
                        self._directory
                        / f"snapshot-{self.shard_id}-{self._snapshot_lsn:010d}.json"
                    ).write_text(payload)
                self.snapshot_path.write_text(payload)
                self.wal_path.write_text("")
                self._prune_locked()
        if obs_metrics.enabled():
            obs_metrics.registry().histogram("journal_snapshot_seconds").record(
                time.perf_counter() - started
            )

    def snapshot_due(self) -> bool:
        """Whether an auto-snapshot policy says the WAL tail should compact.

        Three independent triggers, any of which fires the compaction:
        record count (``snapshot_interval``), tail byte size
        (``snapshot_max_bytes``) and tail age (``snapshot_max_age``).
        """
        with self._lock:
            if not self._records:
                return False
            if 0 < self.snapshot_interval <= len(self._records):
                return True
            if 0 < self.snapshot_max_bytes <= self._tail_bytes:
                return True
            if (
                self.snapshot_max_age > 0
                and self._tail_started is not None
                and self._clock() - self._tail_started >= self.snapshot_max_age
            ):
                return True
            return False

    # -- retention ------------------------------------------------------------------
    def _archived(self, kind: str) -> List[Tuple[int, Path]]:
        """(lsn, path) of every lsn-stamped ``kind`` file, oldest first."""
        if self._directory is None:
            return []
        pattern = re.compile(
            rf"{kind}-{re.escape(self.shard_id)}-(\d+)\.(?:json|jsonl)$"
        )
        found: List[Tuple[int, Path]] = []
        for path in self._directory.iterdir():
            match = pattern.fullmatch(path.name)
            if match:
                found.append((int(match.group(1)), path))
        return sorted(found)

    def snapshot_files(self) -> List[Path]:
        """Retained lsn-stamped snapshot files, oldest first (GC surface)."""
        return [path for _, path in self._archived("snapshot")]

    def wal_segments(self) -> List[Path]:
        """Retained archived WAL segments, oldest first (GC surface)."""
        return [path for _, path in self._archived("wal")]

    def _prune_locked(self) -> None:
        snapshots = self._archived("snapshot")
        keep = snapshots[-self.keep_snapshots :] if self.keep_snapshots > 0 else []
        for lsn, path in snapshots[: len(snapshots) - len(keep)]:
            path.unlink(missing_ok=True)
        oldest_kept = keep[0][0] if keep else self._snapshot_lsn
        for lsn, path in self._archived("wal"):
            if lsn <= oldest_kept:
                path.unlink(missing_ok=True)
                self.segments_deleted += 1

    # -- membership -------------------------------------------------------------------
    def _note_membership_locked(self, payload: Dict[str, Any]) -> None:
        """Adopt a membership payload if it is as new as the one held.

        Uses a max-epoch rule (``>=`` so a re-stamped copy of the current
        epoch still refreshes): handoff and migration streams re-ingest
        old records, and a stale epoch must never regress the stored ring.
        """
        current = self._membership_state
        if current is None or payload.get("epoch", 0) >= current.get("epoch", 0):
            self._membership_state = dict(payload)

    def latest_membership(self) -> Optional[Dict[str, Any]]:
        """Highest-epoch membership state this journal holds (or ``None``).

        The payload is what the coordinator journaled on the ring change:
        ``epoch``, ``reason``, ``shard_ids`` and per-slot ``statuses``
        (status values as strings).  ``recover_from`` scans every reopened
        journal's answer and adopts the globally highest epoch.
        """
        with self._lock:
            state = self._membership_state
            return dict(state) if state is not None else None

    # -- replay ---------------------------------------------------------------------
    def replay_into(self, manager: Any) -> int:
        """Rebuild a shard's state: load the snapshot, replay the WAL tail.

        ``manager`` is a (typically fresh) ``VersionManager``.  Returns the
        number of records replayed on top of the snapshot.
        """
        with self._lock:
            state = self._snapshot_state
            records = list(self._records)
        if state is not None:
            manager.load_state(state)
        for record in records:
            apply_record(manager, record)
        return len(records)

    # -- introspection ----------------------------------------------------------------
    def records(self) -> List[JournalRecord]:
        with self._lock:
            return list(self._records)

    def stream_state(self, after_lsn: int = 0, bootstrap: bool = False) -> Dict[str, Any]:
        """One consistent catch-up view for a journal-stream follower.

        A follower that has applied everything up to ``after_lsn`` gets the
        incremental tail (records with higher lsns).  When it has fallen
        behind a snapshot truncation — or asks for a full ``bootstrap``
        (late join, primary restart) — the answer carries the snapshot
        state plus the complete in-memory tail, captured under one lock so
        snapshot and records can never straddle a concurrent compaction.
        """
        with self._lock:
            return self._stream_view(after_lsn, bootstrap)

    def _stream_view(self, after_lsn: int, bootstrap: bool) -> Dict[str, Any]:
        if bootstrap or after_lsn < self._snapshot_lsn:
            return {
                "bootstrap": True,
                "snapshot": self._snapshot_state,
                "snapshot_lsn": self._snapshot_lsn,
                "records": list(self._records),
            }
        return {
            "bootstrap": False,
            "snapshot": None,
            "snapshot_lsn": self._snapshot_lsn,
            "records": [record for record in self._records if record.lsn > after_lsn],
        }

    @property
    def snapshot_lsn(self) -> int:
        """Lsn the current snapshot covers (0 when no snapshot was taken)."""
        with self._lock:
            return self._snapshot_lsn

    @property
    def last_lsn(self) -> int:
        with self._lock:
            if self._records:
                return self._records[-1].lsn
            return self._snapshot_lsn

    @property
    def has_history(self) -> bool:
        """Whether this journal already holds state worth recovering.

        True for a reopened (or otherwise lived-in) journal; False for a
        freshly constructed one.  Callers that would overwrite the journal
        (e.g. seeding a baseline snapshot) must check this first — a
        journal with history is input for recovery, not a blank slate.
        """
        with self._lock:
            return (
                self._snapshot_state is not None
                or bool(self._records)
                or self._snapshot_lsn > 0
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


def apply_record(manager: Any, record: JournalRecord) -> None:
    """Replay one journal record through a ``VersionManager``'s public API.

    Journaling on ``manager`` is suppressed for the duration: replay must
    not re-log (or re-stream) transitions the journal already holds.  The
    register path re-derives version numbers and snapshot sizes through the
    exact production code; a divergence from the logged values means the
    journal and the code disagree and raises :class:`JournalReplayError`
    rather than silently rebuilding a different history.
    """
    if record.op == "membership":
        # Deployment-level ring state: tracked by the journal itself
        # (``latest_membership``), nothing to apply to a shard's manager.
        return
    payload = record.payload
    saved_journal = manager.journal
    manager.journal = None
    try:
        if record.op == "create":
            manager.create_blob(
                chunk_size=payload["chunk_size"],
                replication=payload["replication"],
                blob_id=record.blob_id,
            )
        elif record.op == "register":
            if payload["is_append"]:
                ticket = manager.register_append(
                    record.blob_id, payload["size"], writer=payload.get("writer")
                )
            else:
                ticket = manager.register_write(
                    record.blob_id,
                    payload["offset"],
                    payload["size"],
                    writer=payload.get("writer"),
                )
            if ticket.version != payload["version"] or ticket.offset != payload["offset"]:
                raise JournalReplayError(
                    f"journal replay diverged for blob {record.blob_id}: "
                    f"logged version {payload['version']} at offset "
                    f"{payload['offset']}, replayed as version {ticket.version} "
                    f"at offset {ticket.offset}"
                )
        elif record.op == "publish":
            manager.publish(record.blob_id, payload["version"])
        elif record.op == "abort":
            manager.abort(record.blob_id, payload["version"])
        elif record.op == "repair":
            manager.mark_repaired(record.blob_id, payload["version"])
        elif record.op == "drop":
            manager.drop_blob(record.blob_id)
        else:
            raise JournalReplayError(f"unknown journal op {record.op!r}")
    finally:
        manager.journal = saved_journal
