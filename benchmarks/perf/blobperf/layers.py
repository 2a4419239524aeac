"""Per-layer metrics: spans from the traced rounds + the program's own exports.

Everything here reads what the program already publishes — ``client.counters``,
``client.metadata_cache_stats``, ``OpResult.timing``, ``rpc_stats()``,
``metrics_snapshot()``, ``load_per_provider()``, ``storage_report()`` — as a
difference between a snapshot taken just before the traced rounds and one
taken just after, plus the spans the benchmark's recorder collected in
between.  ``*_per_op`` divides by the client ops timed in those rounds.
"""

from __future__ import annotations

import math
import os
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .harness import RoundResult
from .tracing import CHILD_TIME, END, LAYER, NAME, NOTE, OP_ID, ROOT_LAYER, START, Recorder

#: Server-side handler histograms (seconds) that add up to "time in handlers".
_HANDLER_HISTOGRAMS = (
    "provider_put_seconds",
    "provider_get_seconds",
    "coordinator_commit_seconds",
    "coordinator_register_seconds",
)


@dataclass
class OpCounts:
    """What the traced rounds did, counted from their results."""

    ops: int = 0
    mutations: int = 0
    reads: int = 0
    user_bytes: int = 0
    written_bytes: int = 0
    send_s: float = 0.0
    wait_s: float = 0.0

    def add(self, other: "OpCounts") -> None:
        for name in ("ops", "mutations", "reads", "user_bytes", "written_bytes", "send_s", "wait_s"):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    @classmethod
    def of(cls, rounds: Sequence[RoundResult]) -> "OpCounts":
        counts = cls()
        for result in rounds:
            for step, outcomes in result.done:
                for op, outcome in zip(step.ops, outcomes):
                    counts.ops += 1
                    data = getattr(op, "data", None)
                    if data is None:
                        counts.reads += 1
                        counts.user_bytes += op.size
                    else:
                        counts.mutations += 1
                        counts.user_bytes += len(data)
                        counts.written_bytes += len(data)
                    counts.send_s += outcome.timing.send_seconds
                    counts.wait_s += outcome.timing.wait_seconds
        return counts


# -- snapshots --------------------------------------------------------------------


def _dir_bytes(path: Optional[str]) -> int:
    if not path or not os.path.isdir(path):
        return 0
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total


def _server_snapshots(deployment: Any) -> Dict[str, Any]:
    scrape = getattr(deployment, "metrics_snapshot", None)
    if scrape is None:
        return {}
    processes = dict(scrape()["processes"])
    processes.pop("client", None)
    return processes


def _rss_mb(servers: Dict[str, Any]) -> float:
    return sum(
        float((snap.get("gauges") or {}).get("process_rss_bytes", 0.0))
        for snap in servers.values()
    ) / (1024.0 * 1024.0)


def server_rss_mb(deployment: Any) -> float:
    return _rss_mb(_server_snapshots(deployment))


def snapshot(
    deployment: Any,
    clients: Sequence[Any],
    readers: Sequence[Any],
    last: bool = False,
    wal_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Counters and histograms of every layer, as exported right now.

    ``clients`` contribute their op counters, ``readers`` (the clients the
    rounds run on) their metadata-cache statistics: deep history's writer is
    a client of its own precisely so that it does not warm the reader's cache.

    Scraping the servers costs RPCs of its own, so the first snapshot reads
    ``rpc_stats()`` after the scrape and the last one before it: the
    difference then holds the traced rounds' requests and nothing else.
    """
    from repro.obs import metrics as obs_metrics

    rpc_stats = getattr(deployment, "rpc_stats", None)

    def rpc_totals() -> Tuple[int, int]:
        if rpc_stats is None:
            return 0, 0
        stats = rpc_stats().values()
        return (
            sum(s["requests_sent"] for s in stats),
            max((s["peak_inflight"] for s in stats), default=0),
        )

    if last:
        requests, peak = rpc_totals()
        servers = _server_snapshots(deployment)
    else:
        servers = _server_snapshots(deployment)
        requests, peak = rpc_totals()
    counters: Dict[str, int] = {}
    cache: Dict[str, int] = {}
    for client in clients:
        for key, value in client.counters.items():
            counters[key] = counters.get(key, 0) + value
    for client in readers:
        for key, value in client.metadata_cache_stats.items():
            cache[key] = cache.get(key, 0) + value
    return {
        "counters": counters,
        "cache": cache,
        "requests_sent": requests,
        "peak_inflight": peak,
        "servers": obs_metrics.merge_snapshots(servers.values()) if servers else {},
        "server_rss_mb": _rss_mb(servers),
        "registry": obs_metrics.registry().snapshot(),
        "wal_bytes": _dir_bytes(wal_dir),
    }


def _delta(after: Dict[str, Any], before: Dict[str, Any], group: str, key: str) -> float:
    return float(after[group].get(key, 0)) - float(before[group].get(key, 0))


def _hist(snap: Dict[str, Any], name: str) -> Dict[str, Any]:
    return (snap.get("histograms") or {}).get(name) or {}


def _hist_delta_p50(after: Dict[str, Any], before: Dict[str, Any], name: str) -> float:
    """p50 of what a log-bucketed histogram recorded between two snapshots."""
    from repro.obs.metrics import GROWTH

    buckets_after = _hist(after, name).get("buckets") or {}
    buckets_before = _hist(before, name).get("buckets") or {}
    buckets = {
        int(index): int(count) - int(buckets_before.get(index, 0))
        for index, count in buckets_after.items()
    }
    total = sum(c for c in buckets.values() if c > 0)
    if total <= 0:
        return 0.0
    rank, seen = math.ceil(0.5 * total), 0
    for index in sorted(buckets):
        seen += max(0, buckets[index])
        if seen >= rank:
            # Geometric middle of the bucket (bounds are GROWTH**i .. GROWTH**(i+1)).
            return GROWTH ** (index + 0.5)
    return 0.0


def _hist_delta(after: Dict[str, Any], before: Dict[str, Any], name: str, field: str) -> float:
    return float(_hist(after, name).get(field, 0.0)) - float(_hist(before, name).get(field, 0.0))


# -- direct probes ----------------------------------------------------------------


def _ping_rtt_us(deployment: Any, calls: int = 200) -> float:
    rpcs = getattr(deployment, "provider_rpcs", None)
    if not rpcs:
        return 0.0
    rpc = rpcs[sorted(rpcs)[0]]
    rpc.call("ping")
    samples = []
    for _ in range(calls):
        started = perf_counter()
        rpc.call("ping")
        samples.append(perf_counter() - started)
    return 1e6 * statistics.median(samples)


def _encode_us_per_64k(calls: int = 50) -> float:
    from repro.core.types import ChunkKey
    from repro.net import wire

    message = {"key": ChunkKey(1, 1, 0), "data": bytes(64 * 1024)}
    samples = []
    for _ in range(calls):
        started = perf_counter()
        wire.encode(message)
        samples.append(perf_counter() - started)
    return 1e6 * statistics.median(samples)


def _stored_bytes(deployment: Any) -> int:
    report = getattr(deployment, "storage_report", None)
    if report is not None:
        return sum(int(r["bytes_stored"]) for r in report())
    return sum(int(rpc.call("report")["bytes_stored"]) for rpc in deployment.provider_rpcs.values())


# -- the metrics ------------------------------------------------------------------


def metrics(
    rec: Recorder,
    before: Dict[str, Any],
    after: Dict[str, Any],
    counts: OpCounts,
    deployment: Any,
    written_total: int,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(per-layer metrics, self-time breakdown in ms per op) of the traced rounds."""
    ops = max(1, counts.ops)
    mutations = max(1, counts.mutations)
    reads = max(1, counts.reads)
    networked = hasattr(deployment, "provider_rpcs")
    in_ops = [s for s in rec.spans if s[OP_ID] is not None]
    by_name: Dict[str, List[list]] = {}
    for span in in_ops:
        by_name.setdefault(span[NAME], []).append(span)

    def total_ms(*names: str) -> float:
        return 1e3 * sum(s[END] - s[START] for name in names for s in by_name.get(name, ()))

    def count(*names: str) -> int:
        return sum(len(by_name.get(name, ())) for name in names)

    def prefixed(prefix: str) -> int:
        return sum(len(spans) for name, spans in by_name.items() if name.startswith(prefix))

    def mean_ms(name: str) -> float:
        spans = by_name.get(name, ())
        return total_ms(name) / len(spans) if spans else 0.0

    def p50_ms(name: str) -> float:
        # Worker-thread spans have no op; per-call figures want them all.
        durations = [1e3 * (s[END] - s[START]) for s in rec.spans if s[NAME] == name]
        return statistics.median(durations) if durations else 0.0

    def noted(name: str) -> float:
        return float(sum(s[NOTE] or 0 for s in by_name.get(name, ())))

    self_ms = rec.layer_self_ms()
    hits = _delta(after, before, "cache", "hits")
    misses = _delta(after, before, "cache", "misses")
    probes = _delta(after, before, "counters", "metadata_probes")
    dht_calls = count("dht.get_many", "dht.put_many")
    loads = list(deployment.metadata_store.load_per_provider().values())
    servers_after, servers_before = after["servers"], before["servers"]
    handler_ms = 1e3 * sum(
        _hist_delta(servers_after, servers_before, name, "sum") for name in _HANDLER_HISTOGRAMS
    )
    wait_ms = 1e3 * counts.wait_s / ops
    journal_records = _hist_delta(servers_after, servers_before, "journal_append_seconds", "count")
    registry_after, registry_before = after["registry"], before["registry"]

    out: Dict[str, float] = {
        "core.client.self_ms_per_op": self_ms.get("core.client", 0.0) / ops,
        "transport.transfer_ms_per_op": total_ms("transport.transfer") / ops,
        "transport.control_ms_per_op": total_ms("transport.control", "transport.control_many_timed") / ops,
        "transport.control_calls_per_op": count("transport.control", "transport.control_many_timed") / ops,
        "version.calls_per_op": prefixed("version.") / ops,
        "version.register_ms_per_op": total_ms("version.register_append", "version.register_writes_bulk") / ops,
        "version.publish_ms_per_op": total_ms("version.publish_many") / ops,
        "version.get_history_ms_per_op": total_ms("version.get_history") / ops,
        "version.history_records_per_op": noted("version.get_history") / ops,
        "pmgr.calls_per_op": prefixed("pmgr.") / ops,
        "pmgr.allocate_ms_per_op": total_ms("pmgr.allocate") / ops,
        "metadata.build_ms_per_op": total_ms("metadata.build") / mutations,
        "metadata.nodes_written_per_op": _delta(after, before, "counters", "metadata_nodes_written") / mutations,
        "metadata.put_rounds_per_op": _delta(after, before, "counters", "metadata_put_rounds") / mutations,
        "metadata.lookup_ms_per_read": total_ms("metadata.lookup") / reads,
        "metadata.levels_fetched_per_read": _delta(after, before, "counters", "metadata_levels_fetched") / reads,
        "metadata.nodes_fetched_per_read": _delta(after, before, "counters", "metadata_nodes_fetched") / reads,
        "metadata.cache_hit_ratio": hits / (hits + misses) if hits + misses > 0 else 0.0,
        "metadata.cache_evictions": _delta(after, before, "cache", "evictions"),
        "dht.get_many_ms_per_call": mean_ms("dht.get_many"),
        "dht.put_many_ms_per_call": mean_ms("dht.put_many"),
        "dht.keys_per_round": (noted("dht.get_many") + noted("dht.put_many")) / dht_calls if dht_calls else 0.0,
        "dht.provider_load_skew": max(loads) / (sum(loads) / len(loads)) if loads and sum(loads) else 0.0,
        "filters.probes_per_read": probes / reads,
        "filters.probe_negative_ratio": _delta(after, before, "counters", "metadata_probe_negatives") / probes if probes else 0.0,
        "filters.skipped_rpcs": float(registry_after["counters"].get("filters.skipped_rpcs", 0))
        - float(registry_before["counters"].get("filters.skipped_rpcs", 0)),
        "provider.bytes_stored_per_user_byte": _stored_bytes(deployment) / written_total if written_total else 0.0,
        "trace.coverage": rec.coverage(),
    }
    if networked:
        out.update(
            {
                "provider.put_ms_p50": 1e3 * _hist_delta_p50(servers_after, servers_before, "provider_put_seconds"),
                "provider.get_ms_p50": 1e3 * _hist_delta_p50(servers_after, servers_before, "provider_get_seconds"),
                "net.wire.encode_ms_per_op": total_ms("wire.encode") / ops,
                "net.wire.decode_ms_per_op": total_ms("wire.decode") / ops,
                "net.wire.encode_us_per_64k": _encode_us_per_64k(),
                "net.frames.tx_bytes_per_user_byte": rec.tx_bytes / counts.user_bytes if counts.user_bytes else 0.0,
                "net.frames.rx_bytes_per_user_byte": rec.rx_bytes / counts.user_bytes if counts.user_bytes else 0.0,
                "net.frames.encode_ms_per_op": total_ms("frames.encode") / ops,
                "net.rpc.round_trips_per_op": (after["requests_sent"] - before["requests_sent"]) / ops,
                "net.rpc.send_ms_per_op": 1e3 * counts.send_s / ops,
                "net.rpc.wait_ms_per_op": wait_ms,
                "net.rpc.ping_rtt_us": _ping_rtt_us(deployment),
                "net.rpc.peak_inflight": float(after["peak_inflight"]),
                "net.rpc.queue_wait_ms_p50": 1e3 * _hist_delta_p50(registry_after, registry_before, "rpc_client_queue_wait_seconds"),
                "net.rpc.coalesce_batch_p50": _hist_delta_p50(registry_after, registry_before, "rpc_client_coalesce_batch"),
                "net.server.handler_ms_per_op": handler_ms / ops,
                "net.server.unexplained_wait_ms_per_op": wait_ms - handler_ms / ops,
                "net.server.rss_mb": after["server_rss_mb"],
                "journal.append_ms_p50": 1e3 * _hist_delta_p50(servers_after, servers_before, "journal_append_seconds"),
                "journal.records_per_commit": journal_records / mutations,
                "journal.wal_bytes_per_commit": (after["wal_bytes"] - before["wal_bytes"]) / mutations,
            }
        )
    else:
        out["provider.put_ms_p50"] = p50_ms("provider.put")
        out["provider.get_ms_p50"] = p50_ms("provider.get")

    roots = [s for s in rec.spans if s[LAYER] == ROOT_LAYER]
    breakdown = {layer: value / ops for layer, value in sorted(self_ms.items())}
    breakdown["(outside any layer span)"] = (
        1e3 * sum(s[END] - s[START] - s[CHILD_TIME] for s in roots) / ops
    )
    breakdown["(op span)"] = 1e3 * sum(s[END] - s[START] for s in roots) / ops
    return out, breakdown
