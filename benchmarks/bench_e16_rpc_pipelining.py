"""E16 — Multiplexed pipelined RPC: window sweep and kill-mid-pipeline.

PR 6's client answered the paper's per-process deployment with blocking
sockets: one request per connection at a time, concurrency only by
burning a thread per in-flight RPC (``parallel_map`` fan-out, 8 workers).
PR 7 replaced it with a reactor client — one event loop owns every
connection, outbound frames coalesce into single writes, and up to
``max_inflight`` requests share a connection pipelined, demuxed by
request id.  The blocking client is gone from ``repro.net``; E16 keeps a
minimal blocking reference of its own (:class:`BlockingReferenceClient`)
so the swap stays quantified and guarded:

* **Part A — per-op overhead sweep.**  The same request batch runs through
  the blocking reference (sequentially, then with PR 6's transfer-engine
  idiom, an 8-way thread fan-out) and through the reactor at windows
  1/8/64 and 1 or 2 connections per server, against a real spawned server
  process.  The ``ping`` workload is the pure protocol floor — no
  payload, so per-op time *is* framing + scheduling + wire overhead, the
  thing PR 7 optimised.  Asserted: the window-64 reactor beats the
  blocking fan-out baseline **>= 2x** on that floor (measured ~3x), window
  8 already beats it, and deepening the window never hurts.  An 8 KiB
  payload row shows the data-plane view, where serialisation dilutes the
  win (asserted not-worse, not 2x).

* **Part B — SIGKILL mid-pipeline, zero failed ops.**  Four appender
  threads stream replicated batched appends through pipelined
  connections while a data-provider process is SIGKILLed mid-burst.
  Every in-flight request on the dead connections must fail over to
  surviving replicas: asserted **zero failed operations** and every byte
  read back.
"""

from __future__ import annotations

import concurrent.futures as cf
import contextlib
import itertools
import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.bench import ResultTable
from repro.core import BlobSeerConfig
from repro.core.deployment import make_deployment
from repro.net import RpcClient, wire
from repro.net.frames import FrameDecoder, encode_frame

from _helpers import KB, save_table

#: Requests per measured batch — big enough to amortise connect and fill a
#: 64-deep window three times over.
BATCH_N = 192
#: Interleaved rounds, best per client: per-op floors, not scheduler noise.
ROUNDS = 3
#: The acceptance bar: pipelined window-64 vs the blocking 8-way
#: fan-out, on the protocol-floor workload (measured ~2.7-3.6x locally).
MIN_PIPELINE_SPEEDUP = 2.0

DATA_PAYLOAD = 8 * KB

APPENDER_THREADS = 4
BATCHES_PER_THREAD = 5
APPENDS_PER_BATCH = 4
APPEND_SIZE = 64 * KB


# -- Part A -----------------------------------------------------------------------


def _spawn_meta_server():
    """One real ``repro.net.server`` process (meta role: ping/put/get)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.net.server", "--role", "meta", "--port", "0"],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    ready = json.loads(proc.stdout.readline())
    return proc, (ready["host"], ready["port"])


def _workload(name: str):
    if name == "ping":
        return [("ping", {})] * BATCH_N
    payload = "d" * DATA_PAYLOAD
    return [("put", {"key": f"e16-{i}", "value": payload}) for i in range(BATCH_N)]


class BlockingReferenceClient:
    """The baseline: one request in flight per socket, one socket per
    calling thread — no pool bound, no retry sweeps, no failover list."""

    def __init__(self, address) -> None:
        self.address = address
        self._local = threading.local()
        self._socks: list = []
        self._ids = itertools.count(1)

    def call(self, method: str, params=None):
        conn = getattr(self._local, "conn", None)
        if conn is None:
            sock = socket.create_connection(self.address, timeout=30.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = self._local.conn = (sock, FrameDecoder())
            self._socks.append(sock)
        sock, decoder = conn
        message = {"id": next(self._ids), "method": method, "params": wire.encode(params or {})}
        sock.sendall(encode_frame(message))
        while True:
            data = sock.recv(256 * 1024)
            if not data:
                raise ConnectionError("server closed the connection")
            for response in decoder.feed(data):
                if response.get("error") is not None:
                    raise wire.decode(response["error"])
                return wire.decode(response.get("result"))

    def __enter__(self) -> "BlockingReferenceClient":
        return self

    def __exit__(self, *exc) -> None:
        for sock in self._socks:
            sock.close()


def _run_batch(client, calls, fanout: int) -> None:
    if fanout > 1:
        # The PR 6 transfer engine's idiom: one blocking call per worker
        # thread, 8 workers — concurrency by thread, not by pipeline.  The
        # workers (and their sockets) are per batch; BATCH_N amortises it.
        with cf.ThreadPoolExecutor(fanout) as pool:
            list(pool.map(lambda call: client.call(call[0], call[1]), calls))
    elif isinstance(client, RpcClient):
        client.call_many(calls)
    else:
        for method, params in calls:
            client.call(method, params)


def _per_op_us(client, calls, fanout: int) -> float:
    started = time.perf_counter()
    _run_batch(client, calls, fanout)
    return (time.perf_counter() - started) / len(calls) * 1e6


def run_window_sweep() -> ResultTable:
    table = ResultTable(
        "E16a: per-op RPC cost — blocking reference vs pipelined reactor "
        f"({BATCH_N}-request batches, best of {ROUNDS} interleaved)",
        ["client", "workload", "per_op_us", "ops_per_s", "connections"],
    )
    proc, address = _spawn_meta_server()
    clients = (
        ("blocking-sequential", lambda: BlockingReferenceClient(address), 1),
        ("blocking-fanout8", lambda: BlockingReferenceClient(address), 8),
        ("reactor-w1", lambda: RpcClient([address], max_inflight=1), 1),
        ("reactor-w8", lambda: RpcClient([address], max_inflight=8), 1),
        ("reactor-w64", lambda: RpcClient([address], max_inflight=64), 1),
        (
            "reactor-w64-c2",
            lambda: RpcClient([address], max_inflight=64, connections_per_server=2),
            1,
        ),
    )
    try:
        # Every client stays open for the whole sweep and each round times
        # one batch per client in turn, so a host-speed shift hits the
        # clients alike instead of becoming their ratio.
        with contextlib.ExitStack() as stack:
            opened = [
                (label, stack.enter_context(make()), fanout)
                for label, make, fanout in clients
            ]
            for workload_name in ("ping", "put-8KiB"):
                calls = _workload(workload_name)
                best = {label: float("inf") for label, _, _ in opened}
                for _ in range(ROUNDS):
                    for label, client, fanout in opened:
                        best[label] = min(best[label], _per_op_us(client, calls, fanout))
                for label, client, fanout in opened:
                    connections = (
                        sum(s["connections"] for s in client.stats().values())
                        if isinstance(client, RpcClient)
                        else fanout
                    )
                    table.add(
                        client=label,
                        workload=workload_name,
                        per_op_us=best[label],
                        ops_per_s=1e6 / best[label],
                        connections=connections,
                    )
    finally:
        proc.terminate()
        proc.wait()
    return table


@pytest.mark.benchmark(group="e16-rpc-pipelining")
def test_e16_pipelining_beats_blocking_fanout(benchmark, results_dir):
    table = benchmark.pedantic(run_window_sweep, rounds=1, iterations=1)
    save_table(results_dir, "e16_window_sweep", table)
    rows = {
        (c, w): p
        for c, w, p in zip(
            table.column("client"), table.column("workload"), table.column("per_op_us")
        )
    }
    speedup = rows[("blocking-fanout8", "ping")] / rows[("reactor-w64", "ping")]
    print(f"\n  protocol-floor speedup, reactor-w64 vs blocking-fanout8: {speedup:.2f}x")
    # The PR 7 acceptance bar: >= 2x lower per-op overhead at window >= 8.
    assert speedup >= MIN_PIPELINE_SPEEDUP
    # Window 8 already beats thread fan-out; deepening never hurts.
    assert rows[("reactor-w8", "ping")] < rows[("blocking-fanout8", "ping")]
    assert rows[("reactor-w64", "ping")] <= rows[("reactor-w1", "ping")]
    # Data-plane ops are serialisation-bound — the pipeline win dilutes
    # but must never invert (slack for scheduler noise).
    assert rows[("reactor-w64", "put-8KiB")] <= rows[("blocking-fanout8", "put-8KiB")] * 1.25
    # The connections-per-server knob really opens extra sockets.
    connections = dict(zip(table.column("client"), table.column("connections")))
    assert connections["reactor-w64-c2"] == 2
    assert connections["reactor-w64"] == 1


# -- Part B -----------------------------------------------------------------------


def _kill_config() -> BlobSeerConfig:
    return BlobSeerConfig(
        num_data_providers=3,
        num_metadata_providers=2,
        num_version_managers=1,
        chunk_size=APPEND_SIZE,
        replication=2,
        transport="network",
        # A killed process should cost milliseconds, not retry sweeps.
        net_max_retries=0,
        net_backoff_base=0.01,
        net_codec=os.environ.get("REPRO_NET_CODEC", "json"),
    )


def run_kill_mid_pipeline() -> ResultTable:
    table = ResultTable(
        "E16b: batched appends across a SIGKILLed provider, pipelined client",
        ["appenders", "ops", "failed_ops", "throughput_MBps", "bytes_verified"],
    )
    with make_deployment(_kill_config()) as deployment:
        clients = [deployment.client() for _ in range(APPENDER_THREADS)]
        blob_ids = [deployment.create_blob().blob_id for _ in range(APPENDER_THREADS)]
        payload = b"p" * APPEND_SIZE
        outcomes: list = []
        lock = threading.Lock()
        barrier = threading.Barrier(APPENDER_THREADS + 1)

        def appender(client, blob_id: int) -> None:
            barrier.wait()
            for _ in range(BATCHES_PER_THREAD):
                # Each batch pipelines its replica pushes and control
                # calls over shared connections — the kill lands while
                # frames are in flight.
                with client.batch() as batch:
                    futures = [
                        batch.append(blob_id, payload)
                        for _ in range(APPENDS_PER_BATCH)
                    ]
                with lock:
                    outcomes.extend(f.result() for f in futures)

        threads = [
            threading.Thread(target=appender, args=(client, blob_id))
            for client, blob_id in zip(clients, blob_ids)
        ]
        for thread in threads:
            thread.start()
        started = time.perf_counter()
        barrier.wait()
        total_ops = APPENDER_THREADS * BATCHES_PER_THREAD * APPENDS_PER_BATCH
        while True:
            with lock:
                if len(outcomes) >= total_ops // 3:
                    break
        deployment.kill_data_provider("provider-000")
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started

        failed = [r for r in outcomes if not r.ok]
        verified = 0
        expected = payload * (BATCHES_PER_THREAD * APPENDS_PER_BATCH)
        for client, blob_id in zip(clients, blob_ids):
            blob = client.open_blob(blob_id)
            data = blob.read(0, blob.size())
            assert data == expected
            verified += len(data)
        table.add(
            appenders=APPENDER_THREADS,
            ops=len(outcomes),
            failed_ops=len(failed),
            throughput_MBps=APPEND_SIZE * len(outcomes) / elapsed / 1e6,
            bytes_verified=verified,
        )
    return table


@pytest.mark.benchmark(group="e16-rpc-pipelining")
def test_e16_kill_mid_pipeline_zero_failed_ops(benchmark, results_dir):
    table = benchmark.pedantic(run_kill_mid_pipeline, rounds=1, iterations=1)
    save_table(results_dir, "e16_kill_mid_pipeline", table)
    total = APPENDER_THREADS * BATCHES_PER_THREAD * APPENDS_PER_BATCH
    # The acceptance bar: a SIGKILL with a full window in flight fails
    # exactly zero operations — every affected request fails over.
    assert table.column("failed_ops") == [0]
    assert table.column("ops") == [total]
    assert table.column("bytes_verified")[0] == total * APPEND_SIZE
