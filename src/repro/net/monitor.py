"""Heartbeat failure detection and standby promotion for the process cluster.

:class:`ClusterMonitor` is the deployment's liveness loop (owned by
:class:`~repro.net.deployment.ProcessDeployment`, or run standalone against
any set of addresses): every ``interval`` seconds it probes each watched
process with the cheap ``health`` RPC over a dedicated short-timeout
client.  A target that misses ``suspect_after`` consecutive probes is
declared down — the classic K-miss heartbeat detector, the simple end of
the accrual-detector family production stores use.

For a *coordinator* target the declaration has teeth: the monitor marks the
shard ``DOWN`` in the deployment's shared membership mirror (bumping the
epoch — routing keeps the shard's ring slot, its standby serves it),
orders the shard's standby process to ``take_over`` with that membership
state (journaled into the handoff, so restarts adopt the takeover epoch),
and broadcasts ``note_membership`` to every surviving coordinator and
standby so late-joining clients can learn the epoch over the wire.  For
``standby`` and ``meta`` targets detection is report-only; recovery of any
target is likewise only reported — rejoin is orchestrated explicitly
(:meth:`ProcessDeployment.restart_coordinator_shard`), never guessed at by
the prober.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.membership import CoordinatorMembership, ShardStatus
from .rpc import RpcClient

__all__ = ["ClusterMonitor", "MonitorEvent"]


@dataclass(frozen=True)
class MonitorEvent:
    """One observed liveness transition (monitoring / test surface)."""

    at: float
    kind: str  # "suspect" | "takeover" | "takeover_failed" | "recovered"
    role: str
    index: int
    detail: str = ""


@dataclass
class _Target:
    role: str
    index: int
    address: Tuple[str, int]
    client: RpcClient
    misses: int = 0
    down: bool = False
    last_seen: Optional[float] = None
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Last ``health`` payload (role, uptime, serving state, RSS): the
    #: liveness probe doubles as a vitals scrape.
    vitals: Dict[str, Any] = field(default_factory=dict)
    #: Last ``metrics`` snapshot (only when ``metrics_interval`` > 0).
    metrics: Dict[str, Any] = field(default_factory=dict)
    last_metrics_at: Optional[float] = None


class ClusterMonitor:
    """K-miss heartbeat detector driving standby takeover.

    ``membership`` is the client-side routing mirror the takeover must
    move (the deployment's ``version_manager.membership``); ``broadcast``
    is called with the post-``mark_down`` membership state so the
    deployment can push it to the surviving processes.
    """

    def __init__(
        self,
        membership: Optional[CoordinatorMembership] = None,
        interval: float = 0.25,
        suspect_after: int = 3,
        codec: str = "json",
        broadcast: Optional[Callable[[Dict[str, Any]], None]] = None,
        on_event: Optional[Callable[[MonitorEvent], None]] = None,
        metrics_interval: float = 0.0,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be > 0")
        if suspect_after < 1:
            raise ValueError("suspect_after must be >= 1")
        if metrics_interval < 0:
            raise ValueError("metrics_interval must be >= 0")
        self.membership = membership
        self.interval = interval
        self.suspect_after = suspect_after
        #: Scrape each target's ``metrics`` RPC this often (0 = never —
        #: on-demand aggregation through the deployment stays available).
        self.metrics_interval = metrics_interval
        self.codec = codec
        self.broadcast = broadcast
        self.on_event = on_event
        self.events: List[MonitorEvent] = []
        self._targets: Dict[Tuple[str, int], _Target] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: Monitoring counters.
        self.probes = 0
        self.takeovers = 0

    # -- target management ----------------------------------------------------------
    def _probe_client(
        self, address: Tuple[str, int], min_request_timeout: float = 0.2
    ) -> RpcClient:
        # Tight timeouts, no internal retry: the K-miss counter *is* the
        # retry policy, and a probe must never outlive its interval by much.
        return RpcClient(
            [address],
            connect_timeout=max(0.05, self.interval),
            request_timeout=max(min_request_timeout, 4 * self.interval),
            max_retries=0,
            codec=self.codec,
        )

    def watch(self, role: str, index: int, address: Tuple[str, int], **extra: Any) -> None:
        """Start probing ``role``/``index`` at ``address``.

        A coordinator target may carry ``standby=(host, port)`` in ``extra``
        — the process promoted when the coordinator is declared down.
        """
        key = (role, index)
        with self._lock:
            old = self._targets.pop(key, None)
            self._targets[key] = _Target(
                role=role,
                index=index,
                address=tuple(address),
                client=self._probe_client(tuple(address)),
                extra=extra,
            )
        if old is not None:
            old.client.close()

    def update_target(self, role: str, index: int, address: Tuple[str, int], **extra: Any) -> None:
        """Repoint a probe after a restart (fresh client, misses reset)."""
        key = (role, index)
        with self._lock:
            merged = dict(self._targets[key].extra) if key in self._targets else {}
        merged.update(extra)
        self.watch(role, index, address, **merged)

    def unwatch(self, role: str, index: int) -> None:
        with self._lock:
            target = self._targets.pop((role, index), None)
        if target is not None:
            target.client.close()

    # -- the probe loop ---------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="cluster-monitor", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None
        with self._lock:
            targets = list(self._targets.values())
            self._targets.clear()
        for target in targets:
            target.client.close()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            with self._lock:
                targets = list(self._targets.values())
            for target in targets:
                if self._stop.is_set():
                    return
                self._probe(target)

    def _probe(self, target: _Target) -> None:
        self.probes += 1
        try:
            answer = target.client.call("health")
        except Exception:  # noqa: BLE001 - any failure is a missed heartbeat
            target.misses += 1
            if target.misses >= self.suspect_after and not target.down:
                target.down = True
                self._record("suspect", target, f"{target.misses} missed heartbeats")
                if target.role == "coordinator":
                    self._fail_over(target)
            return
        target.last_seen = time.monotonic()
        target.misses = 0
        if isinstance(answer, dict):
            # The probe doubles as a vitals scrape: health now reports role,
            # uptime, serving state and process RSS.
            target.vitals = answer
        if self.metrics_interval > 0 and (
            target.last_metrics_at is None
            or time.monotonic() - target.last_metrics_at >= self.metrics_interval
        ):
            try:
                snapshot = target.client.call("metrics")
            except Exception:  # noqa: BLE001 - metrics are best-effort
                pass
            else:
                if isinstance(snapshot, dict):
                    target.metrics = snapshot
                target.last_metrics_at = time.monotonic()
        if target.down:
            # Report-only: rejoin is an orchestrated restart, not something
            # the prober should improvise from one good heartbeat.
            target.down = False
            self._record("recovered", target, "health answered again")

    # -- takeover -------------------------------------------------------------------
    def _fail_over(self, target: _Target) -> None:
        state: Optional[Dict[str, Any]] = None
        if self.membership is not None:
            try:
                if self.membership.status_of(target.index) != ShardStatus.DOWN:
                    self.membership.mark_down(target.index)
                state = self.membership.state()
            except Exception as exc:  # noqa: BLE001 - e.g. mirror mid-transition
                self._record("takeover_failed", target, f"membership: {exc}")
                return
        standby_addr = target.extra.get("standby")
        if standby_addr is None:
            self._record("takeover_failed", target, "no standby deployed")
            return
        # Generous timeout relative to probes: the standby may replay a
        # WAL tail before it starts serving.
        client = self._probe_client(tuple(standby_addr), min_request_timeout=10.0)
        try:
            client.call("take_over", {"state": state})
        except Exception as exc:  # noqa: BLE001
            self._record("takeover_failed", target, str(exc))
            return
        finally:
            client.close()
        self.takeovers += 1
        self._record("takeover", target, f"standby at {standby_addr} serving")
        if self.broadcast is not None and state is not None:
            try:
                self.broadcast(state)
            except Exception as exc:  # noqa: BLE001
                self._record("takeover_failed", target, f"broadcast: {exc}")

    # -- scraped state ----------------------------------------------------------------
    def vitals(self) -> Dict[Tuple[str, int], Dict[str, Any]]:
        """Last ``health`` payload per watched target (empty until probed)."""
        with self._lock:
            return {
                key: dict(target.vitals)
                for key, target in self._targets.items()
                if target.vitals
            }

    def scraped_metrics(self) -> Dict[Tuple[str, int], Dict[str, Any]]:
        """Last ``metrics`` snapshot per target (``metrics_interval`` > 0)."""
        with self._lock:
            return {
                key: target.metrics
                for key, target in self._targets.items()
                if target.metrics
            }

    def _record(self, kind: str, target: _Target, detail: str) -> None:
        event = MonitorEvent(
            at=time.monotonic(),
            kind=kind,
            role=target.role,
            index=target.index,
            detail=detail,
        )
        self.events.append(event)
        if self.on_event is not None:
            try:
                self.on_event(event)
            except Exception:  # noqa: BLE001 - observer bugs must not kill probing
                pass
