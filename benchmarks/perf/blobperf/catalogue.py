"""The benchmark's catalogue: workloads, metrics, units, directions, bounds.

One table per kind of name.  ``BENCHMARK.json`` at the repo root is the
driver-facing copy of these tables (``test_perf_smoke.py`` asserts the two
agree); ``compare`` reads the bounds from here, and the README's metric
catalogue is this file rendered as prose.

Three kinds of metric:

* ``END_TO_END`` — what a user of the system sees, on *every* workload
  (the driver contract wants each run to print every end-to-end metric, so
  these are the ones that mean something everywhere).  Each has a bound: the
  share of the parent's median by which it may get worse.
* ``SPECIFIC`` — end-to-end metrics that only some workloads have (append
  vs read vs batch latency, ``history_slowdown``, the exact simulated-time
  curves).  They come from the same untraced measurement as the first kind
  and carry bounds that ``compare`` enforces, but ``BENCHMARK.json`` can only
  list them beside the layer metrics because a workload that lacks one
  prints 0 for it.
* ``PER_LAYER`` — one module each, from the traced run and from the
  counters and snapshots the program already exports.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Seconds of measurement one driver run asks for (``--seconds``).
RUN_SECONDS = 8

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the parent's median by which the metric may get worse
    #: (``None`` for per-layer metrics: they explain, they do not gate).
    bound: Optional[float]
    source: str


#: (name, why) in run order.  ``why`` is the one-liner BENCHMARK.json carries.
WORKLOADS: List[Tuple[str, str]] = [
    (
        "net_append_64k",
        "1 client, 64 KiB appends on fresh blobs (history <= 32): the net.* "
        "layers' round trips and base64 payload path do most of the work",
    ),
    (
        "net_read_1m",
        "1 client, 1 MiB and 64 KiB reads of a preloaded 32 MiB blob, warm "
        "metadata cache: payload decode and 16-chunk fan-out, 1 control RPC",
    ),
    (
        "net_batch_mixed",
        "2 clients, 32-op batches (12 appends, 4 overwrites, 16 reads) on 16 "
        "shared blobs: batch engine, pipelined RPC, contended version order",
    ),
    (
        "net_commit_storm",
        "2 clients, 1 KiB appends over 64 blobs, 2 journaled coordinator "
        "shards: per-message cost with no payload; payload work must not move it",
    ),
    (
        "direct_deep_history",
        "in-process, 1024 mutations of one blob then cold versioned reads: "
        "metadata, versioning and DHT do all the work, net.* does none",
    ),
    (
        "sim_paper_scaling",
        "discrete-event sim of the paper's 48+16-node cluster at 1, 8 and 64 "
        "clients: control-plane CPU cost, and exact curves that guard the model",
    ),
]

WORKLOAD_NAMES: List[str] = [name for name, _ in WORKLOADS]

END_TO_END: List[Metric] = [
    Metric(
        "op_p50_ms", "ms", "lower", 0.25,
        "median over rounds of the per-round p50 latency of the workload's "
        "primary op, timed by the generator around the public call",
    ),
    Metric(
        "op_p90_ms", "ms", "lower", 0.25,
        "median over rounds of the per-round p90 of the same samples",
    ),
    Metric(
        "ops_per_s", "1/s", "higher", 0.25,
        "median over rounds of client ops completed / round wall time",
    ),
    Metric(
        "goodput_MBps", "MB/s", "higher", 0.25,
        "median over rounds of user bytes read + written / round wall time",
    ),
    Metric(
        "peak_rss_mb", "MB", "lower", 0.10,
        "generator ru_maxrss + sum of server process_rss_bytes after the "
        "timed section",
    ),
    Metric(
        "setup_s", "s", "lower", 0.25,
        "median of the run's repeated set-ups: deployment spawn + preload "
        "until the first timed op could start",
    ),
]

SPECIFIC: List[Metric] = [
    Metric("append_p50_ms", "ms", "lower", 0.10, "per-round p50 of append latencies"),
    Metric("append_p90_ms", "ms", "lower", 0.15, "per-round p90 of append latencies"),
    Metric("read_p50_ms", "ms", "lower", 0.10, "per-round p50 of the primary read size"),
    Metric("read_p90_ms", "ms", "lower", 0.15, "per-round p90 of the primary read size"),
    Metric("read_small_p50_ms", "ms", "lower", 0.10, "per-round p50 of 64 KiB reads (net_read_1m)"),
    Metric("write_p50_ms", "ms", "lower", 0.10, "per-round p50 of overwrite latencies"),
    Metric("batch_op_ms", "ms", "lower", 0.10, "per-round p50 of batch wall / 32"),
    Metric("failed_op_ratio", "ratio", "lower", 0.0, "failed or wrong-content ops / attempted"),
    Metric(
        "history_slowdown", "ratio", "lower", 0.25,
        "direct_deep_history: append p50 of the last 128-mutation window / the first",
    ),
    Metric("sim_append_MBps_c64", "MB/s", "higher", 0.01, "simulated aggregate append throughput, 64 clients (exact)"),
    Metric("sim_read_MBps_c64", "MB/s", "higher", 0.01, "simulated aggregate read throughput, 64 clients (exact)"),
]


def _layer(name: str, unit: str, better: str, source: str) -> Metric:
    return Metric(name, unit, better, None, source)


PER_LAYER: List[Metric] = [
    # core.client
    _layer("core.client.self_ms_per_op", "ms", "lower", "submit_ops span minus child spans"),
    # core.transport / net.transport
    _layer("transport.transfer_ms_per_op", "ms", "lower", "transport.transfer spans"),
    _layer("transport.control_ms_per_op", "ms", "lower", "transport.control + control_many_timed spans"),
    _layer("transport.control_calls_per_op", "count", "lower", "number of those spans"),
    # core.version_coordinator (+ net.proxies.RemoteCoordinator)
    _layer("version.calls_per_op", "count", "lower", "spans on deployment.version_manager"),
    _layer("version.register_ms_per_op", "ms", "lower", "register_append + register_writes_bulk spans"),
    _layer("version.publish_ms_per_op", "ms", "lower", "publish_many spans"),
    _layer("version.get_history_ms_per_op", "ms", "lower", "get_history spans"),
    _layer("version.history_records_per_op", "count", "lower", "records returned by get_history"),
    # core.provider_manager
    _layer("pmgr.calls_per_op", "count", "lower", "spans on deployment.provider_manager"),
    _layer("pmgr.allocate_ms_per_op", "ms", "lower", "allocate spans"),
    # core.metadata
    _layer("metadata.build_ms_per_op", "ms", "lower", "SegmentTreeBuilder.build spans / mutations"),
    _layer("metadata.nodes_written_per_op", "count", "lower", "client.counters / mutations"),
    _layer("metadata.put_rounds_per_op", "count", "lower", "client.counters / mutations"),
    _layer("metadata.lookup_ms_per_read", "ms", "lower", "SegmentTreeReader.lookup spans / reads"),
    _layer("metadata.levels_fetched_per_read", "count", "lower", "client.counters / reads"),
    _layer("metadata.nodes_fetched_per_read", "count", "lower", "client.counters / reads"),
    _layer("metadata.cache_hit_ratio", "ratio", "higher", "client.metadata_cache_stats hits / (hits + misses)"),
    _layer("metadata.cache_evictions", "count", "lower", "client.metadata_cache_stats"),
    # dht
    _layer("dht.get_many_ms_per_call", "ms", "lower", "metadata_store.get_many spans"),
    _layer("dht.put_many_ms_per_call", "ms", "lower", "metadata_store.put_many spans"),
    _layer("dht.keys_per_round", "count", "higher", "keys carried / get_many + put_many calls"),
    _layer("dht.provider_load_skew", "ratio", "lower", "max / mean of entries per metadata provider"),
    # filters
    _layer("filters.probes_per_read", "count", "lower", "client.counters metadata_probes / reads"),
    _layer("filters.probe_negative_ratio", "ratio", "lower", "metadata_probe_negatives / metadata_probes"),
    _layer("filters.skipped_rpcs", "count", "higher", "client registry counter filters.skipped_rpcs"),
    # core.data_provider + storage
    _layer("provider.put_ms_p50", "ms", "lower", "server provider_put_seconds (net) or put spans (direct)"),
    _layer("provider.get_ms_p50", "ms", "lower", "server provider_get_seconds (net) or get spans (direct)"),
    _layer("provider.bytes_stored_per_user_byte", "B/B", "lower", "storage report bytes_stored / user bytes written"),
    # net.wire
    _layer("net.wire.encode_ms_per_op", "ms", "lower", "client-side wire.encode spans"),
    _layer("net.wire.decode_ms_per_op", "ms", "lower", "client-side wire.decode spans"),
    _layer("net.wire.encode_us_per_64k", "us", "lower", "direct call on a 64 KiB put_chunk message"),
    # net.frames
    _layer("net.frames.tx_bytes_per_user_byte", "B/B", "lower", "client frames out / user bytes"),
    _layer("net.frames.rx_bytes_per_user_byte", "B/B", "lower", "client bytes in / user bytes"),
    _layer("net.frames.encode_ms_per_op", "ms", "lower", "client-side encode_frame spans"),
    # net.rpc
    _layer("net.rpc.round_trips_per_op", "count", "lower", "rpc_stats() requests_sent delta"),
    _layer("net.rpc.send_ms_per_op", "ms", "lower", "OpTiming.send_seconds"),
    _layer("net.rpc.wait_ms_per_op", "ms", "lower", "OpTiming.wait_seconds"),
    _layer("net.rpc.ping_rtt_us", "us", "lower", "call('ping') on one provider, window 1"),
    _layer("net.rpc.peak_inflight", "count", "higher", "rpc_stats() peak_inflight"),
    _layer("net.rpc.queue_wait_ms_p50", "ms", "lower", "client histogram rpc_client_queue_wait_seconds"),
    _layer("net.rpc.coalesce_batch_p50", "count", "higher", "client histogram rpc_client_coalesce_batch"),
    # net.server
    _layer("net.server.handler_ms_per_op", "ms", "lower", "sum of server handler histograms"),
    _layer("net.server.unexplained_wait_ms_per_op", "ms", "lower", "net.rpc.wait_ms_per_op - handler_ms_per_op"),
    _layer("net.server.rss_mb", "MB", "lower", "sum of server process_rss_bytes"),
    # resilience.journal
    _layer("journal.append_ms_p50", "ms", "lower", "server histogram journal_append_seconds"),
    _layer("journal.records_per_commit", "count", "lower", "journal appends / published versions"),
    _layer("journal.wal_bytes_per_commit", "B", "lower", "WAL directory growth / published versions"),
    # sim
    _layer("sim.engine.wall_s", "s", "lower", "wall time of one full sweep"),
    _layer("sim.write_MBps_c64", "MB/s", "higher", "simulated aggregate write throughput, 64 clients"),
    _layer("sim.append_scaling_c64_over_c1", "ratio", "higher", "simulated append throughput c=64 / c=1"),
    _layer("sim.read_scaling_c64_over_c1", "ratio", "higher", "simulated read throughput c=64 / c=1"),
    # run quality
    _layer("host.steal_ratio", "ratio", "lower", "/proc/stat steal share during the timed rounds"),
    _layer("host.calib_spin_ms", "ms", "lower", "fixed pure-Python loop, median over rounds"),
    _layer("trace.coverage", "ratio", "higher", "sum of layer self-times / sum of op spans"),
    _layer("trace.overhead_ratio", "ratio", "lower", "traced op p50 / untraced op p50"),
]

#: Per-layer counts that must repeat exactly on single-client workloads.
EXACT_COUNTS: Tuple[str, ...] = (
    "transport.control_calls_per_op",
    "version.calls_per_op",
    "version.history_records_per_op",
    "pmgr.calls_per_op",
    "metadata.nodes_written_per_op",
    "metadata.put_rounds_per_op",
    "metadata.levels_fetched_per_read",
    "metadata.nodes_fetched_per_read",
    "net.rpc.round_trips_per_op",
)

#: Metrics that are exact by construction (simulated time).
EXACT_SIM: Tuple[str, ...] = (
    "sim_append_MBps_c64",
    "sim_read_MBps_c64",
    "sim.write_MBps_c64",
    "sim.append_scaling_c64_over_c1",
    "sim.read_scaling_c64_over_c1",
)


def by_name() -> Dict[str, Metric]:
    return {m.name: m for m in END_TO_END + SPECIFIC + PER_LAYER}


def benchmark_json() -> Dict[str, object]:
    """The ``BENCHMARK.json`` these tables imply (see the driver contract)."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in SPECIFIC + PER_LAYER
        ],
    }
