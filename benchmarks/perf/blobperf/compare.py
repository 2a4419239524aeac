"""Summaries of repeated runs, and the A-versus-B verdict per metric.

A result file is ``{"schema": 1, "runs": [record, ...], "summary": {...}}``
where a record is what one run of one workload measured.  ``summarise`` folds
the runs into a median, quartiles and a spread (inter-quartile distance as a
share of the median, the same figure the driver computes) per (workload,
metric); ``compare`` sets two such summaries side by side.

Verdicts, per (workload, end-to-end metric), with ``bound`` from the catalogue:

* ``unresolved`` — either side's run-to-run spread is wider than the bound, so
  the runs cannot tell a regression of that size from noise;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better than A's by more than either side's spread;
* ``within`` — anything else.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, Iterable, List, Tuple

from . import catalogue

SCHEMA = 1


def _quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarise(records: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, Dict[str, float]]]:
    """{workload: {metric: {median, q1, q3, spread, n}}} over all given runs."""
    samples: Dict[str, Dict[str, List[float]]] = {}
    for record in records:
        per_workload = samples.setdefault(record["workload"], {})
        for group in ("end_to_end", "specific", "per_layer"):
            for name, value in (record.get(group) or {}).items():
                per_workload.setdefault(name, []).append(float(value))
    summary: Dict[str, Dict[str, Dict[str, float]]] = {}
    for workload, metrics in samples.items():
        for name, values in metrics.items():
            median = statistics.median(values)
            q1, q3 = _quartiles(values)
            summary.setdefault(workload, {})[name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / abs(median) if median else 0.0,
                "n": len(values),
            }
    return summary


def load(path: str) -> Dict[str, Dict[str, Dict[str, float]]]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return summarise(data["runs"] if "runs" in data else [data])  # a set, or one run's record


def verdict(metric: catalogue.Metric, a: Dict[str, float], b: Dict[str, float]) -> Tuple[str, float]:
    """(``within`` | ``worse`` | ``better`` | ``unresolved``, share B is worse by)."""
    base = a["median"]
    change = b["median"] - base
    if metric.better == "higher":
        change = -change
    worse_by = change / abs(base) if base else (1.0 if change > 0 else 0.0)
    bound = metric.bound or 0.0
    if bound > 0 and max(a["spread"], b["spread"]) > bound:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < 0 and -worse_by > max(a["spread"], b["spread"]):
        return "better", worse_by
    return "within", worse_by


def compare(path_a: str, path_b: str, out=print) -> int:
    """Print the verdict table; return 1 if any metric is ``worse``."""
    a, b = load(path_a), load(path_b)
    gated = catalogue.END_TO_END + catalogue.SPECIFIC
    worse = 0
    out(f"{'workload':<20} {'metric':<22} {'A':>12} {'B':>12} {'unit':<6} {'bound':>6} {'worse by':>9}  verdict")
    for workload in catalogue.WORKLOAD_NAMES:
        if workload not in a or workload not in b:
            continue
        for metric in gated:
            if metric.name not in a[workload] or metric.name not in b[workload]:
                continue
            label, worse_by = verdict(metric, a[workload][metric.name], b[workload][metric.name])
            worse += label == "worse"
            out(
                f"{workload:<20} {metric.name:<22} "
                f"{a[workload][metric.name]['median']:>12.4f} {b[workload][metric.name]['median']:>12.4f} "
                f"{metric.unit:<6} {metric.bound:>6.2f} {100 * worse_by:>8.1f}%  {label}"
            )
    out(f"{worse} metric(s) worse than their bound")
    return 1 if worse else 0
