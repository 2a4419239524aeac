"""E15 — Networked service mode: per-op overhead and multi-process throughput.

The paper's deployments run each service as its own process on its own
machine; everything before this experiment invoked them in-process.  E15
measures what the real-socket path (:mod:`repro.net`: framed RPC over
localhost TCP to spawned server processes) costs and guarantees:

* **Part A — Direct vs Network per-op overhead.**  The same sequential
  64 KiB append workload runs against an in-process deployment and a
  spawned multi-process one; we report per-op latency, the overhead
  factor, and the network phase breakdown (``send``/``wait`` seconds the
  satellite surfaced on ``OpResult``) that accounts for the difference.
  A batched run over the same sockets shows the batch engine's fan-out
  amortising the round trips — the paper's pipelining argument, now over
  a real wire.

* **Part B — sustained append throughput with an injected kill.**  Four
  appender threads stream replicated chunks while one data-provider
  process is SIGKILLed mid-run.  The transport's replica failover and the
  provider manager's liveness steering must absorb the crash: asserted
  **zero failed operations**, and every surviving byte reads back.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.bench import ResultTable
from repro.core import BlobSeerConfig
from repro.core.deployment import make_deployment

from _helpers import KB, save_table

APPEND_SIZE = 64 * KB
SEQUENTIAL_OPS = 24
BATCH_OPS = 24
#: Ceiling on localhost-TCP vs in-process per-op latency — the CI guard
#: that catches a protocol regression (per-op chatter blow-up).  The
#: pipelined reactor client landed this at ~16-19x measured; the ceiling
#: leaves ~4x headroom for slow CI runners, down from the pre-pipelining
#: 500x placeholder.
MAX_OVERHEAD_FACTOR = 75.0

APPENDER_THREADS = 4
APPENDS_PER_THREAD = 10


def _config(transport: str, **overrides) -> BlobSeerConfig:
    defaults = dict(
        num_data_providers=3,
        num_metadata_providers=2,
        num_version_managers=1,
        chunk_size=APPEND_SIZE,
        replication=1,
        transport=transport,
        # A killed process should cost milliseconds, not retry sweeps.
        net_max_retries=0,
        net_backoff_base=0.01,
        # The msgpack CI leg re-runs this smoke over the other codec.
        net_codec=os.environ.get("REPRO_NET_CODEC", "json"),
    )
    defaults.update(overrides)
    return BlobSeerConfig(**defaults)


def _timed_appends(client, blob_id: int, count: int, batched: bool):
    """Run ``count`` appends; return (elapsed wall seconds, results)."""
    payload = b"e" * APPEND_SIZE
    started = time.perf_counter()
    if batched:
        with client.batch() as batch:
            futures = [batch.append(blob_id, payload) for _ in range(count)]
        results = [f.result() for f in futures]
    else:
        results = []
        for _ in range(count):
            with client.batch() as batch:
                futures = [batch.append(blob_id, payload)]
            results.extend(f.result() for f in futures)
    return time.perf_counter() - started, results


def run_overhead() -> ResultTable:
    table = ResultTable(
        "E15a: Direct vs Network per-op append latency (64 KiB appends)",
        ["mode", "per_op_ms", "ops_per_s", "send_ms", "wait_ms", "transfer_ms"],
    )
    for mode, transport, batched in (
        ("direct-sequential", "direct", False),
        ("network-sequential", "network", False),
        ("network-batch", "network", True),
    ):
        with make_deployment(_config(transport)) as deployment:
            client = deployment.client()
            blob = client.create_blob()
            count = BATCH_OPS if batched else SEQUENTIAL_OPS
            elapsed, results = _timed_appends(client, blob.blob_id, count, batched)
            assert all(r.ok for r in results)
            timings = [r.timing for r in results]
            table.add(
                mode=mode,
                per_op_ms=1e3 * elapsed / count,
                ops_per_s=count / elapsed,
                send_ms=1e3 * sum(t.send_seconds for t in timings) / count,
                wait_ms=1e3 * sum(t.wait_seconds for t in timings) / count,
                transfer_ms=1e3 * sum(t.transfer_seconds for t in timings) / count,
            )
    return table


def run_sustained_with_kill() -> ResultTable:
    table = ResultTable(
        "E15b: sustained multi-process append throughput across a SIGKILLed provider",
        ["appenders", "ops", "failed_ops", "throughput_MBps", "bytes_verified"],
    )
    config = _config("network", replication=2)
    with make_deployment(config) as deployment:
        clients = [deployment.client() for _ in range(APPENDER_THREADS)]
        blob_ids = [deployment.create_blob().blob_id for _ in range(APPENDER_THREADS)]
        payload = b"k" * APPEND_SIZE
        outcomes: list = []
        lock = threading.Lock()
        barrier = threading.Barrier(APPENDER_THREADS + 1)

        def appender(client, blob_id: int) -> None:
            barrier.wait()
            for _ in range(APPENDS_PER_THREAD):
                with client.batch() as batch:
                    future = batch.append(blob_id, payload)
                with lock:
                    outcomes.append(future.result())

        threads = [
            threading.Thread(target=appender, args=(client, blob_id))
            for client, blob_id in zip(clients, blob_ids)
        ]
        for thread in threads:
            thread.start()
        started = time.perf_counter()
        barrier.wait()
        # Let the storm get going, then SIGKILL one provider process.
        while True:
            with lock:
                if len(outcomes) >= (APPENDER_THREADS * APPENDS_PER_THREAD) // 3:
                    break
        deployment.kill_data_provider("provider-000")
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started

        failed = [r for r in outcomes if not r.ok]
        total_bytes = APPEND_SIZE * len(outcomes)
        # Every append published: read each blob back in full through the
        # surviving replicas (chunks first-placed on the dead provider
        # must fail over at the fetch path).
        verified = 0
        for client, blob_id in zip(clients, blob_ids):
            blob = client.open_blob(blob_id)
            data = blob.read(0, blob.size())
            assert data == payload * APPENDS_PER_THREAD
            verified += len(data)
        table.add(
            appenders=APPENDER_THREADS,
            ops=len(outcomes),
            failed_ops=len(failed),
            throughput_MBps=total_bytes / elapsed / 1e6,
            bytes_verified=verified,
        )
    return table


@pytest.mark.benchmark(group="e15-network")
def test_e15_direct_vs_network_overhead(benchmark, results_dir):
    table = benchmark.pedantic(run_overhead, rounds=1, iterations=1)
    save_table(results_dir, "e15_overhead", table)
    per_op = dict(zip(table.column("mode"), table.column("per_op_ms")))
    overhead = per_op["network-sequential"] / per_op["direct-sequential"]
    print(f"\n  network/direct per-op overhead factor: {overhead:.1f}x")
    # CI guard: localhost framing must not cost orders of magnitude.
    assert overhead < MAX_OVERHEAD_FACTOR
    # The satellite timings explain where network time goes: a networked
    # op spends real time on the wire, an in-process one none.
    send = dict(zip(table.column("mode"), table.column("send_ms")))
    wait = dict(zip(table.column("mode"), table.column("wait_ms")))
    assert send["network-sequential"] + wait["network-sequential"] > 0.0
    assert send["direct-sequential"] == wait["direct-sequential"] == 0.0
    # Batching the same ops over the same sockets amortises round trips
    # (parallel pushes, grouped publishes); at minimum it must not cost
    # more per op than one-batch-per-op (slack for scheduler noise).
    assert per_op["network-batch"] <= per_op["network-sequential"] * 1.25


@pytest.mark.benchmark(group="e15-network")
def test_e15_sustained_appends_survive_killed_provider(benchmark, results_dir):
    table = benchmark.pedantic(run_sustained_with_kill, rounds=1, iterations=1)
    save_table(results_dir, "e15_sustained_kill", table)
    # The E15 acceptance bar: zero lost operations across the injected kill.
    assert table.column("failed_ops") == [0]
    assert table.column("ops") == [APPENDER_THREADS * APPENDS_PER_THREAD]
    assert table.column("bytes_verified")[0] == (
        APPENDER_THREADS * APPENDS_PER_THREAD * APPEND_SIZE
    )
