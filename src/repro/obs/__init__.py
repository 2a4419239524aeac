"""Unified observability: distributed tracing + a per-process metrics plane.

Two stdlib-only modules shared by every layer of the system:

- :mod:`repro.obs.trace` — ``TraceContext`` propagation (client op → RPC
  envelope → server handler), per-process span recording, Chrome trace-event
  and JSON-lines export, and a slow-op log.
- :mod:`repro.obs.metrics` — counters, gauges and log-bucketed mergeable
  histograms; one registry per process, scraped over the ``metrics`` RPC and
  merged deployment-wide by ``ProcessDeployment.metrics_snapshot()``.

:func:`configure_observability` wires both to ``BlobSeerConfig`` knobs
(``obs_tracing``, ``obs_slow_op_threshold``, ``obs_metrics_interval``); server
processes call it at boot, deployments call it for the client process.
"""

from __future__ import annotations

from typing import Any, Optional

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    percentiles,
    registry,
)
from .trace import (
    Span,
    TraceContext,
    Tracer,
    activate,
    current_context,
    save_chrome_trace,
    save_jsonl,
    tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "TraceContext",
    "Tracer",
    "activate",
    "configure_observability",
    "current_context",
    "merge_snapshots",
    "percentiles",
    "registry",
    "save_chrome_trace",
    "save_jsonl",
    "tracer",
]


def configure_observability(config: Any, role: Optional[str] = None) -> None:
    """Apply a config's ``obs_*`` knobs to this process's tracer + registry."""
    registry(role=role)
    tracer().configure(
        enabled=config.obs_tracing,
        slow_op_threshold=config.obs_slow_op_threshold,
        service=role,
    )
