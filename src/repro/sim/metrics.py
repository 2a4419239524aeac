"""Metrics collection for simulated experiments.

Every simulated client operation is recorded as an :class:`OperationRecord`
(kind, bytes, start/end simulated time, success flag).  The collector turns
those records into the quantities the paper reports: aggregate throughput
(total bytes moved divided by the experiment makespan), per-client
throughput, operation latency statistics, and time-binned throughput series
for the QoS experiment (which looks at throughput *stability* over time,
not just its mean).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True, slots=True)
class OperationRecord:
    """One completed (or failed) client operation in the simulation."""

    client_id: str
    kind: str               # "read" | "write" | "append" | ...
    nbytes: int
    start: float
    end: float
    ok: bool = True
    detail: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def throughput(self) -> float:
        """Bytes per second achieved by this single operation."""
        if self.duration <= 0:
            return 0.0
        return self.nbytes / self.duration


@dataclass
class MetricsCollector:
    """Accumulates operation records and derives experiment-level metrics."""

    records: List[OperationRecord] = field(default_factory=list)

    def record(self, record: OperationRecord) -> None:
        self.records.append(record)

    def add(
        self,
        client_id: str,
        kind: str,
        nbytes: int,
        start: float,
        end: float,
        ok: bool = True,
        detail: str = "",
    ) -> None:
        self.records.append(
            OperationRecord(client_id, kind, nbytes, start, end, ok, detail)
        )

    # -- filters --------------------------------------------------------------------
    def successful(self, kind: Optional[str] = None) -> List[OperationRecord]:
        return [
            r for r in self.records
            if r.ok and (kind is None or r.kind == kind)
        ]

    def failed(self, kind: Optional[str] = None) -> List[OperationRecord]:
        return [
            r for r in self.records
            if not r.ok and (kind is None or r.kind == kind)
        ]

    # -- headline metrics ------------------------------------------------------------
    def makespan(self, kind: Optional[str] = None) -> float:
        ops = self.successful(kind)
        if not ops:
            return 0.0
        return max(r.end for r in ops) - min(r.start for r in ops)

    def total_bytes(self, kind: Optional[str] = None) -> int:
        return sum(r.nbytes for r in self.successful(kind))

    def aggregate_throughput(self, kind: Optional[str] = None) -> float:
        """Total successful bytes divided by the experiment makespan (B/s).

        This is the paper's "aggregated throughput" metric.
        """
        span = self.makespan(kind)
        if span <= 0:
            return 0.0
        return self.total_bytes(kind) / span

    def latency_stats(self, kind: Optional[str] = None) -> Dict[str, float]:
        durations = np.array([r.duration for r in self.successful(kind)], dtype=float)
        if durations.size == 0:
            return {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
        return {
            "mean": float(durations.mean()),
            "p50": float(np.percentile(durations, 50)),
            "p95": float(np.percentile(durations, 95)),
            "p99": float(np.percentile(durations, 99)),
            "max": float(durations.max()),
        }

    def success_rate(self, kind: Optional[str] = None) -> float:
        relevant = [r for r in self.records if kind is None or r.kind == kind]
        if not relevant:
            return 1.0
        return sum(1 for r in relevant if r.ok) / len(relevant)

    # -- time series (QoS experiment) ----------------------------------------------------
    def throughput_series(
        self, bin_seconds: float, kind: Optional[str] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Binned aggregate throughput over time: ``(bin_starts, bytes_per_second)``.

        Each operation's bytes are attributed to its completion bin, which is
        how a monitoring system sampling counters would see it.
        """
        ops = self.successful(kind)
        if not ops or bin_seconds <= 0:
            return np.array([]), np.array([])
        end_time = max(r.end for r in ops)
        n_bins = max(1, int(np.ceil(end_time / bin_seconds)))
        edges = np.arange(0, (n_bins + 1) * bin_seconds, bin_seconds)
        totals = np.zeros(n_bins)
        for r in ops:
            index = min(n_bins - 1, int(r.end / bin_seconds))
            totals[index] += r.nbytes
        return edges[:-1], totals / bin_seconds

    def stability(
        self, bin_seconds: float, kind: Optional[str] = None
    ) -> Dict[str, float]:
        """Mean, standard deviation and coefficient of variation of the series."""
        _, series = self.throughput_series(bin_seconds, kind)
        if series.size == 0:
            return {"mean": 0.0, "std": 0.0, "cv": 0.0}
        mean = float(series.mean())
        std = float(series.std())
        return {"mean": mean, "std": std, "cv": (std / mean) if mean > 0 else 0.0}

    # -- summary ---------------------------------------------------------------------------
    def summary(self, kind: Optional[str] = None) -> Dict[str, float]:
        return {
            "operations": len(self.successful(kind)),
            "failures": len(self.failed(kind)),
            "total_bytes": float(self.total_bytes(kind)),
            "makespan_s": self.makespan(kind),
            "aggregate_throughput_MBps": self.aggregate_throughput(kind) / 1e6,
            "success_rate": self.success_rate(kind),
            **{f"latency_{k}_s": v for k, v in self.latency_stats(kind).items()},
        }
