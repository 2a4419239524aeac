"""E18 — Observability: what the trace/metrics plane costs, and what it sees.

PR 8 wired a unified observability plane through every layer — trace
contexts on the RPC envelope, per-role metrics registries, ``metrics`` /
``trace_spans`` RPCs beside ``health``.  E18 prices it and proves it:

* **Part A — instrumentation overhead on the protocol floor.**  The E16
  ping workload (192-request pipelined batches, best of 3 rounds, each
  round timing every mode once) runs against three real servers:
  observability disabled end to end (``REPRO_OBS_DISABLE``), metrics on
  (the always-on default), and full tracing with span recording on both
  sides.  Asserted: the always-on
  metrics plane costs **<= 10%** per op on the floor workload — the
  regression gate for every future instrumentation change.  Tracing is
  opt-in, so its row is reported with only a sanity ceiling.

* **Part B — traced appender storm.**  Four writer threads stream batched
  appends at a multi-process deployment with ``obs_tracing`` on.  The
  harvest must reconstruct the cross-process story: a merged trace where
  server-side spans parent under the client spans that caused them, and a
  deployment-wide p50/p95/p99 commit-latency readout from
  ``metrics_snapshot()``.  The merged Chrome trace is saved next to the
  result tables.

* **Part C — traced SIGKILL failover.**  The E17 chaos scenario (journal,
  standby, heartbeat takeover) with tracing on: the span timeline must
  *cover* the outage window — operations stalled across the kill appear
  as long spans bridging it, so the trace explains the outage instead of
  going dark during it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.bench import ResultTable
from repro.core import BlobSeerConfig
from repro.core.deployment import make_deployment
from repro.net import RpcClient
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

from _helpers import KB, save_table

BATCH_N = 192
ROUNDS = 3
#: The E18 acceptance bar: always-on metrics instrumentation may cost at
#: most this much per op on the E16 protocol-floor ping workload.
MAX_METRICS_OVERHEAD = 1.10
#: Tracing is opt-in; its row only has to stay within an order-of-sanity
#: bound (span recording is two dict ops per RPC, measured ~1.1-1.3x).
MAX_TRACING_OVERHEAD = 2.0

STORM_WRITERS = 4
STORM_BATCHES = 4
STORM_APPENDS_PER_BATCH = 4
APPEND_SIZE = 16 * KB

FAILOVER_STORM_SECONDS = 5.0
KILL_AT = 1.2
RESTART_AT = 3.0
#: Longest the span timeline may go dark inside the outage window:
#: detection (3 x 0.1s heartbeats) + takeover + client re-route, with
#: headroom for slow shared runners.  E17 bounds the same path at 5 s.
MAX_DARK_GAP_SECONDS = 2.5


# -- Part A -----------------------------------------------------------------------


def _spawn_meta_server(extra_env=None, config=None):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if extra_env:
        env.update(extra_env)
    argv = [sys.executable, "-m", "repro.net.server", "--role", "meta", "--port", "0"]
    if config is not None:
        argv += ["--config", json.dumps(config.to_dict())]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
    ready = json.loads(proc.stdout.readline())
    return proc, (ready["host"], ready["port"])


def _per_op_us(client, calls) -> float:
    started = time.perf_counter()
    client.call_many(calls)
    return (time.perf_counter() - started) / len(calls) * 1e6


def run_overhead_sweep() -> ResultTable:
    table = ResultTable(
        "E18a: per-op cost of the observability plane on the protocol floor "
        f"({BATCH_N}-request pipelined batches, best of {ROUNDS} interleaved)",
        ["mode", "per_op_us", "ops_per_s"],
    )
    calls = [("ping", {})] * BATCH_N
    modes = (
        # (label, server env, server config, client tracing)
        ("obs-off", {"REPRO_OBS_DISABLE": "1"}, None, False),
        ("metrics", None, None, False),
        ("traced", None, BlobSeerConfig(obs_tracing=True), True),
    )
    # All three servers run for the whole sweep and each round times every
    # mode once, so a host-speed shift hits the modes alike instead of
    # becoming their ratio.
    procs, clients = [], []
    best = {label: float("inf") for label, *_ in modes}
    try:
        for _label, extra_env, config, _traced in modes:
            proc, address = _spawn_meta_server(extra_env=extra_env, config=config)
            procs.append(proc)
            clients.append(RpcClient([address], max_inflight=64))
        for _ in range(ROUNDS):
            for (label, _env, _config, traced), client in zip(modes, clients):
                obs_metrics.set_enabled(label != "obs-off")
                obs_trace.reset_tracer(enabled=traced)
                if traced:
                    # Record under one live context so every request pays
                    # the full envelope + span cost, like a traced batch.
                    with obs_trace.tracer().span("e18-traced-batch"):
                        per_op = _per_op_us(client, calls)
                else:
                    per_op = _per_op_us(client, calls)
                best[label] = min(best[label], per_op)
    finally:
        for client in clients:
            client.close()
        for proc in procs:
            proc.terminate()
            proc.wait()
        obs_trace.reset_tracer()
        obs_metrics.set_enabled(True)
    for label, per_op in best.items():
        table.add(mode=label, per_op_us=per_op, ops_per_s=1e6 / per_op)
    return table


@pytest.mark.benchmark(group="e18-observability")
def test_e18_instrumentation_overhead_within_bound(benchmark, results_dir):
    table = benchmark.pedantic(run_overhead_sweep, rounds=1, iterations=1)
    save_table(results_dir, "e18_overhead", table)
    rows = dict(zip(table.column("mode"), table.column("per_op_us")))
    metrics_ratio = rows["metrics"] / rows["obs-off"]
    tracing_ratio = rows["traced"] / rows["obs-off"]
    print(
        f"\n  E18a: metrics overhead {metrics_ratio:.3f}x, "
        f"tracing overhead {tracing_ratio:.3f}x vs obs-off floor"
    )
    # The gate: the always-on metrics plane stays within 10% of the
    # uninstrumented protocol floor.
    assert metrics_ratio <= MAX_METRICS_OVERHEAD
    # Opt-in tracing only needs to stay within an order-of-sanity bound.
    assert tracing_ratio <= MAX_TRACING_OVERHEAD


# -- Part B -----------------------------------------------------------------------


def _storm_config(**overrides) -> BlobSeerConfig:
    defaults = dict(
        num_data_providers=3,
        num_metadata_providers=2,
        num_version_managers=2,
        chunk_size=APPEND_SIZE,
        replication=1,
        transport="network",
        net_max_retries=0,
        net_backoff_base=0.01,
        net_codec=os.environ.get("REPRO_NET_CODEC", "json"),
        obs_tracing=True,
    )
    defaults.update(overrides)
    return BlobSeerConfig(**defaults)


def run_traced_storm(results_dir) -> ResultTable:
    table = ResultTable(
        "E18b: 4-writer traced appender storm — cross-process trace + "
        "deployment-wide commit latency",
        [
            "writers",
            "ops",
            "spans",
            "server_spans",
            "orphan_server_spans",
            "commit_p50_ms",
            "commit_p95_ms",
            "commit_p99_ms",
        ],
    )
    with make_deployment(_storm_config()) as deployment:
        clients = [deployment.client() for _ in range(STORM_WRITERS)]
        blob_ids = [deployment.create_blob().blob_id for _ in range(STORM_WRITERS)]
        payload = b"s" * APPEND_SIZE
        results: list = []
        lock = threading.Lock()

        def writer(slot: int) -> None:
            client, blob_id = clients[slot], blob_ids[slot]
            for _ in range(STORM_BATCHES):
                with client.batch() as batch:
                    futures = [
                        batch.append(blob_id, payload)
                        for _ in range(STORM_APPENDS_PER_BATCH)
                    ]
                with lock:
                    results.extend(f.result() for f in futures)

        threads = [
            threading.Thread(target=writer, args=(slot,))
            for slot in range(STORM_WRITERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(r.ok for r in results)
        assert all(r.trace_id is not None for r in results)

        snap = deployment.metrics_snapshot()
        latency = snap["commit_latency"]
        spans = deployment.trace_snapshot()
        trace_path = results_dir / "e18_storm_trace.json"
        obs_trace.save_chrome_trace(trace_path, spans)
        print(f"\n  E18b: merged Chrome trace saved to {trace_path}")

        # The cross-process join: every server span must hang under a
        # client span (or another server span) of the same trace.
        by_trace: dict = {}
        for span in spans:
            by_trace.setdefault(span.trace_id, []).append(span)
        server_spans = [s for s in spans if s.name.startswith("srv:")]
        orphans = 0
        for span in server_spans:
            siblings = {s.span_id for s in by_trace.get(span.trace_id, ())}
            if span.parent_id not in siblings:
                orphans += 1
        table.add(
            writers=STORM_WRITERS,
            ops=len(results),
            spans=len(spans),
            server_spans=len(server_spans),
            orphan_server_spans=orphans,
            commit_p50_ms=latency["p50"] * 1e3,
            commit_p95_ms=latency["p95"] * 1e3,
            commit_p99_ms=latency["p99"] * 1e3,
        )
    return table


@pytest.mark.benchmark(group="e18-observability")
def test_e18_traced_storm_reconstructs_cross_process_story(benchmark, results_dir):
    table = benchmark.pedantic(
        run_traced_storm, args=(results_dir,), rounds=1, iterations=1
    )
    save_table(results_dir, "e18_traced_storm", table)
    row = {name: table.column(name)[0] for name in table.columns}
    total = STORM_WRITERS * STORM_BATCHES * STORM_APPENDS_PER_BATCH
    assert row["ops"] == total
    # The merged trace joins processes: server spans exist and every one
    # parents under a span of its own trace — zero orphans.
    assert row["server_spans"] > 0
    assert row["orphan_server_spans"] == 0
    # The deployment-wide commit-latency readout is real and ordered.
    assert 0 < row["commit_p50_ms"] <= row["commit_p95_ms"] <= row["commit_p99_ms"]
    print(
        f"\n  E18b: commit latency p50/p95/p99 = "
        f"{row['commit_p50_ms']:.2f}/{row['commit_p95_ms']:.2f}/"
        f"{row['commit_p99_ms']:.2f} ms over {row['spans']} spans"
    )


# -- Part C -----------------------------------------------------------------------


def _failover_config() -> BlobSeerConfig:
    return _storm_config(
        journal_enabled=True,
        net_heartbeat_interval=0.1,
        net_failover_suspect_after=3,
        net_standby_per_shard=1,
    )


def _max_dark_gap(spans, lo: float, hi: float) -> float:
    """Longest sub-interval of ``[lo, hi]`` no span interval overlaps."""
    gap = 0.0
    frontier = lo
    for span in sorted(spans, key=lambda s: s.start):
        if span.end <= frontier:
            continue
        if span.start > frontier:
            gap = max(gap, min(span.start, hi) - frontier)
        frontier = max(frontier, span.end)
        if frontier >= hi:
            return gap
    return max(gap, hi - frontier)


def run_traced_failover() -> ResultTable:
    table = ResultTable(
        "E18c: traced SIGKILL failover — spans must cover the outage window",
        ["ops", "failed_ops", "outage_s", "spans", "kill_bridged", "max_dark_gap_s"],
    )
    with make_deployment(_failover_config()) as deployment:
        client = deployment.client()
        blob_id = deployment.create_blob().blob_id
        victim = deployment.version_manager.shard_index(blob_id)
        payload = b"f" * APPEND_SIZE
        counts = [0, 0]  # ok, failed
        stop = threading.Event()

        def writer() -> None:
            while not stop.is_set():
                try:
                    client.append(blob_id, payload)
                except Exception:  # noqa: BLE001 - counted, asserted zero
                    counts[1] += 1
                else:
                    counts[0] += 1

        thread = threading.Thread(target=writer)
        thread.start()
        started = time.monotonic()
        time.sleep(KILL_AT)
        kill_wall = time.time()
        deployment.kill_coordinator_shard(victim)
        time.sleep(RESTART_AT - KILL_AT)
        deployment.restart_coordinator_shard(victim)
        recover_wall = time.time()
        time.sleep(max(0.0, FAILOVER_STORM_SECONDS - (time.monotonic() - started)))
        stop.set()
        thread.join()

        spans = deployment.trace_snapshot()
        # An op stalled across the SIGKILL shows up as one long span
        # bridging the kill instant — the trace explains the stall.
        bridged = any(s.start <= kill_wall <= s.end for s in spans)
        table.add(
            ops=counts[0],
            failed_ops=counts[1],
            outage_s=recover_wall - kill_wall,
            spans=len(spans),
            kill_bridged=int(bridged),
            max_dark_gap_s=_max_dark_gap(spans, kill_wall, recover_wall),
        )
    return table


@pytest.mark.benchmark(group="e18-observability")
def test_e18_traced_failover_spans_cover_outage(benchmark, results_dir):
    table = benchmark.pedantic(run_traced_failover, rounds=1, iterations=1)
    save_table(results_dir, "e18_traced_failover", table)
    row = {name: table.column(name)[0] for name in table.columns}
    assert row["ops"] > 0
    assert row["failed_ops"] == 0
    # The trace never goes dark across the outage: the append stalled by
    # the SIGKILL appears as a span bridging the kill instant, and every
    # dark stretch inside [kill, recover] stays below the detection +
    # takeover bound (spans keep flowing through the promoted standby).
    assert row["kill_bridged"] == 1, "no span bridges the SIGKILL instant"
    assert row["max_dark_gap_s"] < MAX_DARK_GAP_SECONDS, (
        f"trace went dark for {row['max_dark_gap_s']:.2f}s inside the "
        f"{row['outage_s']:.2f}s outage window"
    )
