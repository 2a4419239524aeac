"""Anti-entropy scrub: background re-replication of the metadata DHT.

Read repair (PR 3) converges a lossy-recovered metadata provider only for
keys that happen to be *read* through a fallback replica; everything else
stays under-replicated until a lucky read or forever.  The
:class:`AntiEntropyScrubber` removes the luck: it walks the whole ring in
batches, compares each key's live owner set against who actually holds the
key, bulk-fetches the missing values from the surviving replicas
(:meth:`~repro.dht.distributed_store.DistributedKeyValueStore.get_many`)
and installs them on the owners that lost them
(:meth:`~repro.dht.distributed_store.DistributedKeyValueStore.re_replicate`,
counted in the providers' existing ``repairs`` stat).

A pass over a ring with no under-replication is cheap — membership digests
only, no value transfer — so the scrubber is safe to run continuously.  A
seeded under-replication (one provider recovered with data loss) converges
in one repairing pass plus one verifying pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..dht.hashing import ring_position


@dataclass(frozen=True)
class ScrubTick:
    """Outcome of one (possibly partial) scrub tick.

    A tick examines at most ``max_batches`` batches starting at the
    persisted ring-walk cursor; ``completed_pass`` carries the finished
    pass's :class:`ScrubReport` when this tick reached the end of the ring,
    ``None`` while the walk is still mid-ring.
    """

    batches: int
    keys_scanned: int
    repairs: int
    completed_pass: Optional["ScrubReport"]


@dataclass(frozen=True)
class ScrubReport:
    """Outcome of one full scrub pass over the ring."""

    pass_index: int
    keys_scanned: int
    #: Keys whose live owner set was incomplete when the pass visited them.
    under_replicated: int
    #: (key, provider) pairs actually re-installed this pass.
    repairs: int
    #: Keys that could not be recovered (no live replica holds a value).
    unrecoverable: int
    batches: int

    @property
    def clean(self) -> bool:
        """A clean pass found every key on every live owner."""
        return self.under_replicated == 0


class AntiEntropyScrubber:
    """Walks the DHT ring in batches and re-replicates missing copies."""

    def __init__(self, store: Any, batch_size: int = 64) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.store = store
        self.batch_size = batch_size
        self.reports: List[ScrubReport] = []
        self.total_repairs = 0
        #: Ring-walk cursor: the last key the incremental walk scanned, or
        #: None when the next tick starts a fresh pass.  Persisting it
        #: across ticks is what lets a large ring scrub a few batches at a
        #: time instead of one full pass per tick.
        self._cursor: Optional[Any] = None
        self._partial: Dict[str, int] = {}
        #: Ticks skipped by the caller's backpressure policy (monitoring).
        self.skipped_ticks = 0
        self.ticks = 0

    # -- inspection ---------------------------------------------------------------
    def under_replicated(self) -> Dict[Any, List[str]]:
        """Current ``{key: [live owners missing it]}`` map (test/monitor aid)."""
        missing: Dict[Any, List[str]] = {}
        for key in self.store.scan_keys():
            holes = self._missing_owners(key)
            if holes:
                missing[key] = holes
        return missing

    def _missing_owners(self, key: Any) -> List[str]:
        return [
            pid
            for pid in self.store.live_owners(key)
            if key not in self.store.store_of(pid)
        ]

    # -- one batch -----------------------------------------------------------------
    def _scrub_batch(self, batch: List[Any]) -> Tuple[int, int, int]:
        """Digest-and-repair one key batch; returns (under, repairs, unrecoverable).

        Costs one membership digest per provider holding keys of the batch
        plus — only when holes were found — one bulk ``get_many`` round for
        the missing values and one bulk repair round installing them.
        """
        plan: Dict[Any, List[str]] = {}
        for key in batch:
            holes = self._missing_owners(key)
            if holes:
                plan[key] = holes
        if not plan:
            return 0, 0, 0
        values = self.store.get_many(list(plan))
        # get_many's own read repair may have filled some of the holes
        # (fallback-rank hits); recompute so nothing is double-installed.
        unrecoverable = 0
        todo: List[Tuple[Any, Any]] = []
        missing_at: Dict[Any, List[str]] = {}
        for key in plan:
            if key not in values:
                unrecoverable += 1
                continue
            holes = self._missing_owners(key)
            if holes:
                todo.append((key, values[key]))
                missing_at[key] = holes
        repairs = self.store.re_replicate(todo, missing_at)
        return len(plan), repairs, unrecoverable

    # -- incremental ticks ---------------------------------------------------------
    def run_tick(self, max_batches: Optional[int] = None) -> ScrubTick:
        """Advance the ring walk by up to ``max_batches`` batches.

        The walk resumes at the persisted cursor (the last key scanned —
        re-anchored by ring position, so keys inserted or dropped between
        ticks never derail it) and accumulates the pass's statistics across
        ticks; when the walk reaches the end of the ring the finished
        pass's :class:`ScrubReport` is emitted and the cursor resets.
        ``max_batches=None`` walks to the end of the ring in one tick,
        which makes a fresh-cursor tick exactly the old full pass.
        """
        self.ticks += 1
        keys = self.store.scan_keys()
        start = 0
        if self._cursor is not None:
            anchor = ring_position(self._cursor)
            start = len(keys)
            for index, key in enumerate(keys):
                if ring_position(key) > anchor:
                    start = index
                    break
        partial = self._partial
        batches = 0
        scanned = 0
        repairs_this_tick = 0
        index = start
        while index < len(keys):
            if max_batches is not None and batches >= max_batches:
                break
            batch = keys[index : index + self.batch_size]
            under, repairs, unrecoverable = self._scrub_batch(batch)
            partial["under"] = partial.get("under", 0) + under
            partial["repairs"] = partial.get("repairs", 0) + repairs
            partial["unrecoverable"] = partial.get("unrecoverable", 0) + unrecoverable
            partial["batches"] = partial.get("batches", 0) + 1
            partial["keys"] = partial.get("keys", 0) + len(batch)
            repairs_this_tick += repairs
            scanned += len(batch)
            batches += 1
            index += len(batch)
        self.total_repairs += repairs_this_tick
        if index < len(keys):
            # Mid-ring: persist the cursor and keep accumulating next tick.
            self._cursor = keys[index - 1] if index > 0 else self._cursor
            return ScrubTick(
                batches=batches,
                keys_scanned=scanned,
                repairs=repairs_this_tick,
                completed_pass=None,
            )
        report = ScrubReport(
            pass_index=len(self.reports),
            keys_scanned=partial.get("keys", 0),
            under_replicated=partial.get("under", 0),
            repairs=partial.get("repairs", 0),
            unrecoverable=partial.get("unrecoverable", 0),
            batches=partial.get("batches", 0),
        )
        self.reports.append(report)
        self._cursor = None
        self._partial = {}
        return ScrubTick(
            batches=batches,
            keys_scanned=scanned,
            repairs=repairs_this_tick,
            completed_pass=report,
        )

    # -- one pass -----------------------------------------------------------------
    def run_pass(self) -> ScrubReport:
        """Scrub the whole ring once (finishing any partial walk first)."""
        while True:
            tick = self.run_tick(max_batches=None)
            if tick.completed_pass is not None:
                return tick.completed_pass

    def run_until_converged(self, max_passes: int = 3) -> int:
        """Scrub until a pass finds no under-replication.

        Returns the number of passes taken (including the final clean one).
        Raises ``RuntimeError`` if the ring has not converged within
        ``max_passes`` — persistent holes mean a provider keeps flapping or
        every replica of some key is gone.
        """
        for attempt in range(1, max_passes + 1):
            report = self.run_pass()
            if report.clean:
                return attempt
        raise RuntimeError(
            f"anti-entropy scrub did not converge within {max_passes} passes "
            f"({report.under_replicated} keys still under-replicated)"
        )
