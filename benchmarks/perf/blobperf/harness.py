"""Measurement plumbing shared by the workloads.

Closed loop: a client thread issues its next call only when the previous one
returned.  A *round* is a fixed list of steps per client thread; one step is
one public call (``client.submit_ops`` with one op, or with a whole batch).
Statistics are taken per round and the reported figure is the median over
rounds, so one noisy round (host steal on this shared 2-core box) moves a
number far less than it would move a pooled percentile.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .tracing import Recorder

KIB = 1024
MIB = 1024 * 1024


# -- statistics -------------------------------------------------------------------


def p50(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def p90(samples: Sequence[float]) -> float:
    """Nearest-rank 90th percentile (a 128-sample round has 12 samples beyond it)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def median_of(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- host noise -------------------------------------------------------------------


def _cpu_ticks() -> Tuple[int, int]:
    """(steal, total) jiffies from the aggregate ``cpu`` line of /proc/stat."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as fh:
            fields = fh.readline().split()[1:]
    except OSError:
        return 0, 0
    values = [int(v) for v in fields]
    steal = values[7] if len(values) > 7 else 0
    return steal, sum(values[:8])


class StealMeter:
    """Share of CPU time the hypervisor took away between start() and ratio()."""

    def start(self) -> None:
        self._steal, self._total = _cpu_ticks()

    def ratio(self) -> float:
        steal, total = _cpu_ticks()
        elapsed = total - self._total
        return (steal - self._steal) / elapsed if elapsed > 0 else 0.0


def calib_spin_ms(iterations: int = 100_000) -> float:
    """A fixed pure-Python loop: how fast this host runs the interpreter now."""
    started = perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i & 7
    return 1e3 * (perf_counter() - started)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up timing ----------------------------------------------------------------


def timed_setups(
    open_state: Callable[[], Any], close_state: Callable[[Any], None], repeats: int
) -> Tuple[Any, float]:
    """Set up ``repeats`` times; keep the last state, report the median time.

    The earlier states are torn down again right away: they exist only so
    that ``setup_s`` is a median and not one sample of process spawning.
    """
    times: List[float] = []
    state = None
    for attempt in range(repeats):
        started = perf_counter()
        state = open_state()
        times.append(perf_counter() - started)
        if attempt < repeats - 1:
            close_state(state)
    return state, median_of(times)


# -- rounds -----------------------------------------------------------------------


@dataclass
class Step:
    """One public call: ``client.submit_ops(ops)``.

    ``label`` names the latency class the sample goes to.  A multi-op step is
    a batch and contributes wall / len(ops).  ``serials[i]`` are the oracle
    serials op ``i`` writes (``None`` for reads).
    """

    label: str
    ops: List[Any]
    serials: List[Optional[List[int]]]


@dataclass
class RoundResult:
    wall: float = 0.0
    ops: int = 0
    user_bytes: int = 0
    steal_ratio: float = 0.0
    spin_ms: float = 0.0
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: (step, results) per call, for verification after the clock stopped.
    done: List[Tuple[Step, List[Any]]] = field(default_factory=list)

    def ops_per_s(self) -> float:
        return self.ops / self.wall if self.wall > 0 else 0.0

    def goodput_mbps(self) -> float:
        return self.user_bytes / self.wall / 1e6 if self.wall > 0 else 0.0


def _op_bytes(op: Any) -> int:
    data = getattr(op, "data", None)
    return len(data) if data is not None else op.size


def _run_thread(
    client: Any,
    steps: Sequence[Step],
    rec: Optional[Recorder],
    first_op_id: int,
    out: List[Tuple[Step, List[Any], float]],
) -> None:
    submit = client.submit_ops
    for index, step in enumerate(steps):
        if rec is not None:
            rec.begin(step.label, first_op_id + index)
        started = perf_counter()
        results = submit(step.ops)
        elapsed = perf_counter() - started
        if rec is not None:
            rec.end()
        out.append((step, results, elapsed))


def run_round(
    clients: Sequence[Any],
    plans: Sequence[Sequence[Step]],
    rec: Optional[Recorder] = None,
    first_op_id: int = 0,
) -> RoundResult:
    """Run one round: ``plans[i]`` on ``clients[i]``, one thread per client."""
    result = RoundResult(spin_ms=calib_spin_ms())
    outs: List[List[Tuple[Step, List[Any], float]]] = [[] for _ in clients]
    steal = StealMeter()
    if len(clients) == 1:
        steal.start()
        started = perf_counter()
        _run_thread(clients[0], plans[0], rec, first_op_id, outs[0])
        result.wall = perf_counter() - started
    else:
        barrier = threading.Barrier(len(clients) + 1)
        errors: List[BaseException] = []

        def body(index: int) -> None:
            barrier.wait()
            try:
                _run_thread(
                    clients[index], plans[index], rec, first_op_id + 100_000 * index, outs[index]
                )
            except BaseException as exc:  # re-raised on the main thread below
                errors.append(exc)

        threads = [
            threading.Thread(target=body, args=(index,), name=f"perf-client-{index}")
            for index in range(len(clients))
        ]
        for thread in threads:
            thread.start()
        steal.start()
        barrier.wait()
        started = perf_counter()
        for thread in threads:
            thread.join()
        result.wall = perf_counter() - started
        if errors:
            raise errors[0]
    result.steal_ratio = steal.ratio()
    for out in outs:
        for step, results, elapsed in out:
            count = len(step.ops)
            result.samples.setdefault(step.label, []).append(elapsed / count)
            result.ops += count
            result.user_bytes += sum(_op_bytes(op) for op in step.ops)
            result.done.append((step, results))
    return result


def over_rounds(rounds: Sequence[RoundResult], fn: Callable[[RoundResult], float]) -> float:
    return median_of([fn(r) for r in rounds])


def latency_ms(rounds: Sequence[RoundResult], label: str, quantile: Callable) -> float:
    """Median over rounds of the per-round quantile of ``label`` samples, in ms."""
    values = [1e3 * quantile(r.samples[label]) for r in rounds if r.samples.get(label)]
    return median_of(values)


def work_dir(root: str) -> str:
    """Scratch directory inside the checkout (journals, traces); git-ignored."""
    path = os.path.join(root, ".perf_work")
    os.makedirs(path, exist_ok=True)
    return path
