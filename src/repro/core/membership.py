"""Coordinator membership: the single source of truth for shard routing.

Until this layer existed, "which coordinator shard owns blob B" was an
answer scattered across :class:`~repro.core.version_coordinator.
ShardedVersionManager` internals (``_ring``/``_index_of``/``_shard_alive``),
the failover path, the QoS placement steering and the simulators — and the
shard *set* was frozen at deployment time.  :class:`CoordinatorMembership`
centralises all of it:

* an **epoch number** — every routing-visible change (a shard joining,
  draining out, crashing or recovering) commits exactly one epoch bump, so
  any two parties can compare a single integer to know whether they agree
  on the ring;
* a **consistent-hash ring** over the shards that currently route blobs
  (the same :mod:`repro.dht.ring` machinery the metadata DHT uses, so a
  membership change moves the minimal set of blobs);
* a **per-shard status** — ``active`` (in the ring, serving), ``joining``
  (being streamed its blobs, not yet routed to), ``draining`` (in the ring
  but handing its blobs off), ``down`` (crashed; the ring keeps it so its
  traffic can fail over to its standby) and ``retired`` (drained out; the
  slot is kept so shard indexes stay stable for journals, standbys and
  simulated machines).

Membership *transitions* (shard add/remove) are two-phase: ``begin_*``
publishes the pending ring and freezes the set of **migrating** blobs —
any commit-path request touching one of them is rejected with a retryable
:class:`~repro.core.errors.EpochRetryError` while its history streams to
the new owner — and ``commit_transition`` swaps the ring, bumps the epoch
and wakes every waiter in one atomic step.  Nothing is ever applied to the
old owner after its copy was taken, so no commit can be lost or
double-assigned across a rebalance.
"""

from __future__ import annotations

import threading
from enum import Enum
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..dht.ring import ConsistentHashRing, build_ring
from .errors import EpochRetryError, InvalidConfigError, ServiceError
from .types import BlobId


class ShardStatus(str, Enum):
    """Lifecycle of one coordinator shard slot."""

    ACTIVE = "active"      # in the ring, serving its blobs
    JOINING = "joining"    # being streamed its blobs; not routed to yet
    DRAINING = "draining"  # in the ring, handing its blobs off
    DOWN = "down"          # crashed; traffic fails over to its standby
    RETIRED = "retired"    # drained out; slot kept for index stability


#: Statuses whose slots participate in blob routing (own ring positions).
RING_STATUSES = (ShardStatus.ACTIVE, ShardStatus.DRAINING, ShardStatus.DOWN)


def _blob_key(blob_id: BlobId) -> Tuple[str, BlobId]:
    """The ring key a blob routes by (shared with the pre-membership code)."""
    return ("vm-blob", blob_id)


class CoordinatorMembership:
    """Epoch-versioned shard set + consistent-hash routing for blobs.

    All reads (:meth:`owner_index`, :meth:`status_of`) and
    the transition protocol are serialised on one internal lock; waiting
    for a transition to finish (:meth:`wait_stable`) uses the paired
    condition, which :meth:`commit_transition` notifies.
    """

    def __init__(self, shard_ids: Sequence[str], virtual_nodes: int = 32) -> None:
        if not shard_ids:
            raise InvalidConfigError("membership needs at least one shard")
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        self.virtual_nodes = virtual_nodes
        self.shard_ids: List[str] = list(shard_ids)
        self._index_of: Dict[str, int] = {
            shard_id: index for index, shard_id in enumerate(self.shard_ids)
        }
        if len(self._index_of) != len(self.shard_ids):
            raise InvalidConfigError("shard ids must be unique")
        self._status: List[ShardStatus] = [ShardStatus.ACTIVE] * len(self.shard_ids)
        self._ring: ConsistentHashRing = build_ring(
            self.shard_ids, virtual_nodes=virtual_nodes
        )
        self.epoch = 1
        #: Pending state of an in-flight transition (None when stable).
        self._pending_ring: Optional[ConsistentHashRing] = None
        self._pending_status: Optional[Tuple[int, ShardStatus]] = None
        self._migrating: FrozenSet[BlobId] = frozenset()
        #: (epoch, description) per committed transition — monitoring aid.
        self.epoch_log: List[Tuple[int, str]] = [(1, "genesis")]
        #: Observer fired (under the membership lock) after every committed
        #: epoch bump with a JSON-able state dict — durability wiring uses
        #: it to journal the ring so a restart can re-derive routing.
        self.on_change: Optional[Callable[[Dict[str, object]], None]] = None

    def state(self) -> Dict[str, object]:
        """JSON-able description of the committed membership (durable form)."""
        with self._lock:
            return {
                "epoch": self.epoch,
                "reason": self.epoch_log[-1][1],
                "shard_ids": list(self.shard_ids),
                "statuses": [status.value for status in self._status],
            }

    # -- introspection -----------------------------------------------------------
    @property
    def num_slots(self) -> int:
        """Total shard slots ever created (retired slots included)."""
        with self._lock:
            return len(self.shard_ids)

    @property
    def in_transition(self) -> bool:
        with self._lock:
            return self._pending_ring is not None

    def status_of(self, index: int) -> ShardStatus:
        with self._lock:
            return self._status[index]

    def statuses(self) -> List[ShardStatus]:
        with self._lock:
            return list(self._status)

    def index_of(self, shard_id: str) -> int:
        with self._lock:
            return self._index_of[shard_id]

    def ring_member_indexes(self) -> List[int]:
        """Slot indexes currently participating in routing."""
        with self._lock:
            return [
                index
                for index, status in enumerate(self._status)
                if status in RING_STATUSES
            ]

    def active_count(self) -> int:
        with self._lock:
            return sum(1 for status in self._status if status is ShardStatus.ACTIVE)

    def is_migrating(self, blob_id: BlobId) -> bool:
        with self._lock:
            return blob_id in self._migrating

    def report(self) -> Dict[str, object]:
        """One JSON-able snapshot of the membership (monitoring surface)."""
        with self._lock:
            return {
                "epoch": self.epoch,
                "in_transition": self._pending_ring is not None,
                "shards": [
                    {"shard": index, "shard_id": shard_id, "status": status.value}
                    for index, (shard_id, status) in enumerate(
                        zip(self.shard_ids, self._status)
                    )
                ],
                "migrating_blobs": len(self._migrating),
            }

    # -- routing ------------------------------------------------------------------
    def owner_index(self, blob_id: BlobId) -> int:
        """Slot index of the shard owning ``blob_id`` under the current epoch."""
        with self._lock:
            return self._index_of[self._ring.owner(_blob_key(blob_id))]

    def pending_owner_index(self, blob_id: BlobId) -> int:
        """Owner under the in-flight transition's ring (migration targets)."""
        with self._lock:
            if self._pending_ring is None:
                raise ServiceError("no membership transition is in flight")
            return self._index_of[self._pending_ring.owner(_blob_key(blob_id))]

    def successor_index(self, index: int) -> int:
        """Next non-retired slot after ``index`` (standby host topology)."""
        with self._lock:
            return self._neighbour(index, +1)

    def predecessor_index(self, index: int) -> int:
        """Previous non-retired slot before ``index``."""
        with self._lock:
            return self._neighbour(index, -1)

    def _neighbour(self, index: int, step: int) -> int:
        n = len(self.shard_ids)
        candidate = index
        for _ in range(n):
            candidate = (candidate + step) % n
            if self._status[candidate] is not ShardStatus.RETIRED:
                return candidate
        return index

    # -- status flips (crash / recovery) -------------------------------------------
    def mark_down(self, index: int) -> None:
        with self._lock:
            if self._status[index] is ShardStatus.RETIRED:
                return
            self._status[index] = ShardStatus.DOWN
            self._bump(f"shard {self.shard_ids[index]} down")

    def mark_active(self, index: int) -> None:
        with self._lock:
            if self._status[index] is ShardStatus.RETIRED:
                return
            self._status[index] = ShardStatus.ACTIVE
            self._bump(f"shard {self.shard_ids[index]} active")

    def restore_statuses(self, statuses: Sequence[ShardStatus]) -> None:
        """Install a saved status vector (deployment restart after scaling).

        Routing is a pure function of the ring member set, so a restarted
        coordinator that restores the old membership's statuses (notably
        which slots are ``retired``) resolves every blob to the shard whose
        journal holds it.
        """
        with self._lock:
            self._require_stable()
            if len(statuses) != len(self.shard_ids):
                raise InvalidConfigError(
                    f"expected {len(self.shard_ids)} statuses, got {len(statuses)}"
                )
            self._status = [ShardStatus(status) for status in statuses]
            self._ring = self._clone_ring()
            self._bump("membership restored")

    def adopt_state(self, state: Dict[str, object]) -> bool:
        """Adopt a membership :meth:`state` learned from another party.

        The wire-refresh path of the networked client: a mirror that
        observed a dead shard pulls ``membership`` from every reachable
        coordinator/standby process and feeds the highest-epoch answer
        here.  The state is applied only when it is strictly newer than
        this membership's epoch *and* describes the same slot lineage
        (identical ``shard_ids``) — a stale or foreign state is refused
        (``False``) rather than regressing the ring.  Unlike
        :meth:`restore_statuses`, the adopted epoch is installed verbatim
        so both parties agree on the single integer from then on.
        """
        with self._lock:
            epoch = int(state["epoch"])  # type: ignore[arg-type]
            if epoch <= self.epoch or list(state.get("shard_ids") or []) != self.shard_ids:
                return False
            self._require_stable()
            self._status = [ShardStatus(status) for status in state["statuses"]]  # type: ignore[index]
            self._ring = self._clone_ring()
            self.epoch = epoch
            reason = f"adopted: {state.get('reason', 'remote state')}"
            self.epoch_log.append((self.epoch, reason))
            self._changed.notify_all()
            if self.on_change is not None:
                self.on_change(
                    {
                        "epoch": self.epoch,
                        "reason": reason,
                        "shard_ids": list(self.shard_ids),
                        "statuses": [status.value for status in self._status],
                    }
                )
            return True

    def _bump(self, reason: str) -> None:
        self.epoch += 1
        self.epoch_log.append((self.epoch, reason))
        self._changed.notify_all()
        if self.on_change is not None:
            self.on_change(
                {
                    "epoch": self.epoch,
                    "reason": reason,
                    "shard_ids": list(self.shard_ids),
                    "statuses": [status.value for status in self._status],
                }
            )

    # -- the commit guard -----------------------------------------------------------
    def check_commit(self, blob_ids: Iterable[BlobId], epoch: Optional[int]) -> None:
        """The guard every commit-path shard call runs under its shard lock.

        Rejects (with the retryable :class:`EpochRetryError`) any request
        that (a) carries a stale routing epoch, or (b) touches a blob whose
        history is mid-stream to a new owner.  Because the guard runs
        *inside* the owning shard's commit lock — the same lock the
        migration's history export takes — every commit is either included
        in the streamed copy or redirected to the new owner; there is no
        interleaving in which it lands on the old owner after the copy.
        """
        with self._lock:
            if epoch is not None and epoch != self.epoch:
                raise EpochRetryError(
                    f"commit routed at epoch {epoch} but membership is at "
                    f"epoch {self.epoch}; re-route and retry",
                    epoch=self.epoch,
                )
            if self._migrating:
                for blob_id in blob_ids:
                    if blob_id in self._migrating:
                        raise EpochRetryError(
                            f"blob {blob_id} is migrating to a new owner "
                            f"(epoch {self.epoch} -> {self.epoch + 1}); retry",
                            epoch=self.epoch,
                        )

    # -- transitions -------------------------------------------------------------------
    def begin_join(self, shard_id: str, migrating: Iterable[BlobId]) -> ConsistentHashRing:
        """Open an add-shard transition: new JOINING slot, pending ring.

        Returns the pending ring (current members + the new shard) so the
        caller can compute migration targets.  Until
        :meth:`commit_transition`, routing still answers with the old ring
        and every commit touching a ``migrating`` blob is rejected for
        retry.
        """
        with self._lock:
            self._require_stable()
            if shard_id in self._index_of:
                raise InvalidConfigError(f"shard id {shard_id!r} already exists")
            self.shard_ids.append(shard_id)
            self._index_of[shard_id] = len(self.shard_ids) - 1
            self._status.append(ShardStatus.JOINING)
            pending = self._clone_ring(extra=shard_id)
            self._pending_ring = pending
            self._pending_status = (len(self.shard_ids) - 1, ShardStatus.ACTIVE)
            self._migrating = frozenset(migrating)
            return pending

    def begin_drain(self, index: int, migrating: Iterable[BlobId]) -> ConsistentHashRing:
        """Open a remove-shard transition: slot DRAINING, pending ring without it."""
        with self._lock:
            self._require_stable()
            if self._status[index] is not ShardStatus.ACTIVE:
                raise ServiceError(
                    f"shard {self.shard_ids[index]} is "
                    f"{self._status[index].value}, not active; cannot drain"
                )
            if len(self.ring_member_indexes()) < 2:
                raise ServiceError("cannot drain the last routing shard")
            self._status[index] = ShardStatus.DRAINING
            pending = self._clone_ring(without=self.shard_ids[index])
            self._pending_ring = pending
            self._pending_status = (index, ShardStatus.RETIRED)
            self._migrating = frozenset(migrating)
            return pending

    def set_migrating(self, blob_ids: Iterable[BlobId]) -> None:
        """Freeze the commit paths of ``blob_ids`` for the open transition.

        Callers that need the pending ring to *compute* the moved set open
        the transition with an empty migrating set, derive the plan from
        the returned ring, and install it here — before any history is
        exported, so the guard invariant (no commit lands on the old owner
        after its copy was taken) holds from the first export onwards.
        """
        with self._lock:
            if self._pending_ring is None:
                raise ServiceError("no membership transition is in flight")
            self._migrating = frozenset(blob_ids)

    def commit_transition(self, reason: str) -> int:
        """Atomically install the pending ring, flip the pending status and
        bump the epoch; wakes every :meth:`wait_stable` waiter.  Returns the
        new epoch."""
        with self._lock:
            if self._pending_ring is None:
                raise ServiceError("no membership transition to commit")
            self._ring = self._pending_ring
            index, status = self._pending_status
            self._status[index] = status
            self._pending_ring = None
            self._pending_status = None
            self._migrating = frozenset()
            self._bump(reason)
            return self.epoch

    def abort_transition(self) -> None:
        """Roll a failed transition back (the pending ring is discarded)."""
        with self._lock:
            if self._pending_ring is None:
                return
            index, status = self._pending_status
            if status is ShardStatus.ACTIVE:
                # A failed join: drop the slot we appended (it is the last).
                if index == len(self.shard_ids) - 1:
                    shard_id = self.shard_ids.pop()
                    self._index_of.pop(shard_id, None)
                    self._status.pop()
                else:  # pragma: no cover - joins always append
                    self._status[index] = ShardStatus.RETIRED
            else:
                # A failed drain: the shard keeps serving.
                self._status[index] = ShardStatus.ACTIVE
            self._pending_ring = None
            self._pending_status = None
            self._migrating = frozenset()
            self._changed.notify_all()

    def wait_stable(self, timeout: float = 5.0) -> bool:
        """Block until no transition is in flight (True) or timeout (False)."""
        deadline_left = timeout
        with self._lock:
            while self._pending_ring is not None:
                if deadline_left <= 0:
                    return False
                step = min(deadline_left, 0.05)
                self._changed.wait(step)
                deadline_left -= step
            return True

    def _require_stable(self) -> None:
        if self._pending_ring is not None:
            raise ServiceError(
                "a membership transition is already in flight; "
                "one shard add/remove at a time"
            )

    def _clone_ring(
        self, extra: Optional[str] = None, without: Optional[str] = None
    ) -> ConsistentHashRing:
        members = [
            self.shard_ids[index]
            for index in range(len(self.shard_ids))
            if self._status[index] in RING_STATUSES
            or (extra is not None and self.shard_ids[index] == extra)
        ]
        if extra is not None and extra not in members:
            members.append(extra)
        if without is not None:
            members = [m for m in members if m != without]
        return build_ring(members, virtual_nodes=self.virtual_nodes)
