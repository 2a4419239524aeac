"""Shard failover: a hot standby on the ring successor of every shard.

A coordinator shard is a single point of failure for the blobs it owns: the
ISSUE's QoS regime (long service up-time under component failures) needs
those blobs to *keep committing* while the shard is down.  The mechanism is
the classic primary/backup pair built on the journal stream:

* every shard's :class:`~repro.resilience.journal.ShardJournal` streams its
  records to the :class:`StreamedStandby` hosted on the shard's **ring
  successor** (shard ``i``'s standby lives with shard ``(i + 1) % n``);
* the standby applies each record to a replica ``VersionManager``, so it
  tracks the primary's state record by record — published frontier, pending
  versions, everything;
* when the primary crashes, the router
  (:class:`~repro.core.version_coordinator.ShardedVersionManager`, or the
  process cluster's monitor) sends the dead shard's traffic to the standby,
  which serves it from the replica and logs every new transition to a
  **handoff journal**;
* when the primary rejoins, the standby resigns, the primary replays its own
  WAL (state as of the crash) and folds in the handoff records
  (:func:`fold_handoff`), and the standby follows the primary again.

One standby class, two feeds of the same lsn cursor: in-process the stream
is one local call (:meth:`StreamedStandby.follow` subscribes to the
journal), across processes a puller thread fetches ``journal_stream``
batches over RPC.  The standby never talks back to the primary, so there are
no lock cycles: records flow strictly primary → journal → standby.
"""

from __future__ import annotations

import threading
import uuid
from pathlib import Path
from typing import Any, Dict, Optional

from ..core.errors import ServiceError
from ..core.version_manager import VersionManager
from .journal import JournalRecord, ShardJournal, apply_record


def fold_handoff(journal: ShardJournal, manager: VersionManager) -> int:
    """Primary rejoin: adopt the on-disk handoff its standby left behind.

    The handoff journal's records (everything the standby committed while
    the primary was down) are ingested into the primary's WAL — re-stamped
    with fresh lsns — and applied to ``manager``; only then are the handoff
    files dropped.  Returns the records adopted (0 for an in-memory journal,
    whose handoff died with its host).
    """
    if journal.directory is None:
        return 0
    handoff = ShardJournal.open(journal.directory, shard_id=f"{journal.shard_id}-handoff")
    records = handoff.records()
    journal.ingest(records, apply_to=manager)
    handoff.discard_files()
    return len(records)


class StreamedStandby:
    """Hot replica of one coordinator shard: one lsn cursor over its journal.

    The replica applies the primary's journal records in lsn order and
    acks the highest one applied (:attr:`applied_lsn`).  Two feeds drive
    the same cursor through :meth:`apply_batch`:

    * **in-process** — :meth:`follow` bootstraps from a
      :class:`~repro.resilience.journal.ShardJournal` and then receives each
      append through its ``subscribe()`` hook;
    * **across processes** — the standby server's puller thread calls the
      coordinator's ``journal_stream`` RPC with the replica's acked lsn, and
      each response carries the primary's per-boot ``stream_id`` token, an
      optional snapshot bootstrap, and the records after that lsn.

    Transport-free by design: the :mod:`repro.net` layer fetches and decodes
    batches, this class holds the replica state machine, the lsn cursor, and
    the takeover lifecycle.  The ``stream_id`` token guards against a primary
    restart mid-stream — a restarted primary folds its handoff records back
    in with *re-stamped* lsns, so resuming by lsn across a restart would
    silently diverge; a token mismatch forces a snapshot re-bootstrap
    instead, and a standby that resigned holds no token at all.
    """

    def __init__(self, shard_id: str) -> None:
        self.shard_id = shard_id
        #: The replica state machine, trailing the primary by at most one
        #: un-pulled stream batch.
        self.manager = VersionManager()
        #: Highest primary lsn applied to the replica (the stream ack cursor).
        self.applied_lsn = 0
        #: Boot token of the primary journal this replica is following.
        self.stream_id: Optional[str] = None
        self.taking_over = False
        self.handoff: ShardJournal = ShardJournal(shard_id=f"{shard_id}-handoff")
        #: Monitoring counters.
        self.records_applied = 0
        self.bootstraps = 0
        self.takeovers = 0
        #: The in-process journal :meth:`follow` subscribed to, if any.
        self._followed: Optional[ShardJournal] = None
        # Serialises the in-process feed (appends arrive on committing
        # threads) against the bootstrap and the takeover.
        self._lock = threading.Lock()

    # -- the in-process stream ----------------------------------------------------
    def follow(self, journal: ShardJournal) -> None:
        """Follow an in-process primary journal: bootstrap, then every append.

        The journal hands out its bootstrap view and registers the
        subscriber in one critical section, so each record is either in the
        view or delivered to :meth:`_on_record`; an append delivered while
        the view is still being applied waits on the replica lock.
        """
        self.unfollow()
        with self._lock:
            self._followed = journal
            self.apply_batch(uuid.uuid4().hex, journal.subscribe(self._on_record))

    def unfollow(self) -> None:
        """Stop receiving the in-process stream (no-op when not following)."""
        if self._followed is not None:
            self._followed.unsubscribe(self._on_record)
            self._followed = None

    def _on_record(self, record: JournalRecord) -> None:
        with self._lock:
            self.apply_batch(self.stream_id, {"bootstrap": False, "records": (record,)})

    # -- the pull stream ----------------------------------------------------------
    def apply_batch(self, stream_id: Optional[str], view: Dict[str, Any]) -> int:
        """Apply one stream view; returns records applied.

        ``view`` has the shape of :meth:`ShardJournal.stream_state` (the
        ``journal_stream`` RPC answers with it too).  A ``bootstrap`` view
        replaces the replica wholesale (snapshot state plus the primary's
        full record tail); an incremental view must come from the stream
        token the replica is already following, otherwise the primary
        restarted since the last pull and the caller must re-request with
        ``bootstrap=True`` rather than resume by lsn.
        """
        if self.taking_over:
            raise ServiceError(
                f"shard {self.shard_id} standby received stream records during takeover"
            )
        if view["bootstrap"]:
            manager = VersionManager()
            if view["snapshot"] is not None:
                manager.load_state(view["snapshot"])
            self.manager = manager
            self.applied_lsn = int(view["snapshot_lsn"])
            self.stream_id = stream_id
            self.bootstraps += 1
        elif self.stream_id != stream_id:
            raise ServiceError(
                f"shard {self.shard_id} stream token changed "
                f"({self.stream_id!r} -> {stream_id!r}): primary restarted, "
                "re-bootstrap required"
            )
        applied = 0
        for record in view["records"]:
            if record.lsn <= self.applied_lsn:
                continue
            apply_record(self.manager, record)
            self.applied_lsn = record.lsn
            applied += 1
        self.records_applied += applied
        return applied

    # -- takeover lifecycle --------------------------------------------------------
    def take_over(self, journal_dir: Optional[str | Path] = None) -> None:
        """Promote the replica to the shard's state of record.

        Before serving, the standby catches up from the dead primary's
        on-disk WAL in the shared ``journal_dir`` — append-flush-before-ack
        makes that WAL the durable truth, so registrations the primary
        acknowledged but never streamed (in flight when it was SIGKILLed)
        are recovered here, not lost.  If the replica has fallen behind a
        snapshot truncation, or follows no stream (it resigned, so the lsns
        past its cursor may be its own handoff re-stamped), it rebuilds
        wholesale; otherwise it applies the WAL tail past its cursor.  From
        then on every transition is logged to a file-backed handoff journal
        the rejoining primary ingests; a handoff left by a predecessor
        standby that died mid-takeover is folded in first and extended,
        never discarded.
        """
        with self._lock:
            if self.taking_over:
                return
            if journal_dir is not None:
                disk = ShardJournal.open(journal_dir, shard_id=self.shard_id)
                view = disk.stream_state(self.applied_lsn, bootstrap=self.stream_id is None)
                disk.close()
                self.apply_batch(self.stream_id, view)
                self.handoff = ShardJournal.open(
                    journal_dir, shard_id=f"{self.shard_id}-handoff"
                )
                for record in self.handoff.records():
                    apply_record(self.manager, record)
                    self.records_applied += 1
            else:
                self.handoff = ShardJournal(shard_id=f"{self.shard_id}-handoff")
            self.manager.journal = self.handoff
            self.taking_over = True
            self.takeovers += 1

    def resign(self) -> None:
        """Stop serving (the primary is rejoining).

        Closes the handoff journal but leaves its files on disk — the
        respawned primary ingests them into its WAL and only then discards
        them; dropping them here would lose every commit the standby served.
        The stream token is cleared: the primary re-stamps those records
        into its WAL, so the replica's cursor no longer names a position in
        the primary's lsn sequence.
        """
        if not self.taking_over:
            return
        self.manager.journal = None
        self.taking_over = False
        self.stream_id = None
        self.handoff.close()

    def status(self) -> Dict[str, Any]:
        """Stream/takeover introspection (the standby server's RPC answer)."""
        return {
            "shard_id": self.shard_id,
            "applied_lsn": self.applied_lsn,
            "stream_id": self.stream_id,
            "taking_over": self.taking_over,
            "records_applied": self.records_applied,
            "bootstraps": self.bootstraps,
            "takeovers": self.takeovers,
        }
