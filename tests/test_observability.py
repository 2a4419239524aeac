"""The observability plane: metrics registry, tracing, and the obs RPCs.

Three layers of proof:

* **unit** — log-bucketed histograms merge exactly (bucket counts are
  additive) and their percentiles stay inside the bucket-growth error bound
  against numpy's exact answer; trace contexts round-trip the wire form;
  the keyed timing ledger drains by request-id set instead of drain order
  (the ``OpTiming`` attribution-drift fix);
* **wire** — every role answers ``metrics``/``trace_spans``/``slow_ops``
  next to ``health``, under both codecs, and ``health`` now carries vitals
  (role, uptime, serving state, process RSS);
* **end to end** — a traced batch against a real multi-process deployment
  yields a merged cross-process trace whose server spans parent under the
  client spans, a deployment-wide metrics snapshot with commit-latency
  percentiles, and a :func:`repro.qos.monitoring.sample_from_metrics`
  window sample, so the QoS loop sees networked deployments.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.core import BlobSeerConfig
from repro.core.deployment import make_deployment
from repro.core.errors import InvalidConfigError
from repro.net.frames import HAVE_MSGPACK
from repro.net.rpc import RpcClient, _charge, _new_timing_key, drain_timings, timing_scope
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.qos.monitoring import FEATURE_NAMES, sample_from_metrics

CHUNK = 256

#: Relative error bound of one log bucket (growth 2**(1/8) ≈ +9%); the
#: assertion allows slightly more to absorb the value landing mid-bucket.
BUCKET_ERROR = 2.0 ** (1.0 / 8.0) - 1.0 + 0.02


# ---------------------------------------------------------------------------
# Histograms: merge correctness and percentile error bounds
# ---------------------------------------------------------------------------


class TestHistogram:
    def test_merge_equals_single_histogram(self):
        rng = random.Random(7)
        values = [rng.lognormvariate(-7.0, 1.5) for _ in range(4000)]
        whole = obs_metrics.Histogram("lat")
        shards = [obs_metrics.Histogram("lat") for _ in range(4)]
        for index, value in enumerate(values):
            whole.record(value)
            shards[index % 4].record(value)
        merged = shards[0]
        for shard in shards[1:]:
            merged.merge(shard)
        assert merged.count == whole.count == len(values)
        assert merged.buckets == whole.buckets
        assert merged.min == whole.min
        assert merged.max == whole.max
        assert math.isclose(merged.sum, whole.sum, rel_tol=1e-9)

    @pytest.mark.parametrize("q", [0.5, 0.95, 0.99])
    def test_percentiles_within_bucket_error_after_merge(self, q):
        rng = random.Random(13)
        values = [rng.lognormvariate(-6.0, 1.0) for _ in range(8000)]
        shards = [obs_metrics.Histogram("lat") for _ in range(8)]
        for index, value in enumerate(values):
            shards[index % 8].record(value)
        merged = shards[0]
        for shard in shards[1:]:
            merged.merge(shard)
        exact = float(np.percentile(np.asarray(values), q * 100))
        estimate = merged.percentile(q)
        assert abs(estimate - exact) / exact <= BUCKET_ERROR

    def test_snapshot_round_trip_preserves_percentiles(self):
        hist = obs_metrics.Histogram("lat")
        for value in (0.001, 0.002, 0.004, 0.1, 1.5):
            hist.record(value)
        clone = obs_metrics.Histogram.from_dict(hist.to_dict(), "lat")
        for q in (0.5, 0.95, 0.99):
            assert clone.percentile(q) == hist.percentile(q)
        assert clone.count == hist.count

    def test_merge_snapshots_sums_counters_and_merges_histograms(self):
        a = obs_metrics.MetricsRegistry("provider-000")
        b = obs_metrics.MetricsRegistry("provider-001")
        a.counter("ops").inc(3)
        b.counter("ops").inc(4)
        a.histogram("lat").record(0.01)
        b.histogram("lat").record(0.02)
        merged = obs_metrics.merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["ops"] == 7
        assert obs_metrics.Histogram.from_dict(merged["histograms"]["lat"], "lat").count == 2

    def test_percentiles_helper_handles_missing_histogram(self):
        assert obs_metrics.percentiles({"histograms": {}}, "nope") == {
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
        }


# ---------------------------------------------------------------------------
# Keyed timing ledger: the OpTiming attribution-drift fix
# ---------------------------------------------------------------------------


class TestKeyedTimingLedger:
    def test_scope_drains_its_keys_even_when_charged_elsewhere(self):
        drain_timings()
        with timing_scope() as scope:
            key = _new_timing_key()
            # The reactor resolves futures on its own thread; the charge
            # must still drain here, by key, not by drain order.
            thread = threading.Thread(target=_charge, args=(key, 1.0, 2.0, 3.0))
            thread.start()
            thread.join()
        assert scope.drain() == (1.0, 2.0, 3.0)
        assert scope.drain() == (0.0, 0.0, 0.0)  # never double-charged
        assert drain_timings() == (0.0, 0.0, 0.0)

    def test_concurrent_scopes_cannot_steal_each_other(self):
        drain_timings()
        results = {}
        barrier = threading.Barrier(2)

        def worker(name, c):
            with timing_scope() as scope:
                key = _new_timing_key()
                barrier.wait()  # both scopes open before either charges
                _charge(key, c, 0.0, 0.0)
                barrier.wait()
            results[name] = scope.drain()

        threads = [
            threading.Thread(target=worker, args=("a", 1.0)),
            threading.Thread(target=worker, args=("b", 10.0)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results["a"] == (1.0, 0.0, 0.0)
        assert results["b"] == (10.0, 0.0, 0.0)

    def test_plain_drain_collects_thread_owned_keyed_charges(self):
        drain_timings()
        key = _new_timing_key()  # no scope open: owned by this thread
        _charge(key, 0.5, 0.25, 0.125)
        assert drain_timings() == (0.5, 0.25, 0.125)
        assert drain_timings() == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Trace contexts and the tracer
# ---------------------------------------------------------------------------


class TestTraceContext:
    def test_child_and_wire_round_trip(self):
        root = obs_trace.TraceContext.root()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        rebuilt = obs_trace.TraceContext.from_wire(list(child.to_wire()))
        assert rebuilt.trace_id == child.trace_id
        assert rebuilt.span_id == child.span_id

    @pytest.mark.parametrize("bogus", [None, 42, "x", ["only-one"], [1, 2]])
    def test_malformed_wire_values_decode_to_none(self, bogus):
        assert obs_trace.TraceContext.from_wire(bogus) is None

    def test_tracer_spans_nest_under_active_context(self):
        tr = obs_trace.Tracer(enabled=True)
        with tr.span("outer") as outer:
            with tr.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        spans = {span.name: span for span in tr.drain()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["inner"].trace_id == spans["outer"].trace_id

    def test_slow_op_log_catches_spans_over_threshold(self):
        tr = obs_trace.Tracer(enabled=True, slow_op_threshold=0.0001)
        tr.record("fast", obs_trace.TraceContext.root(), 10.0, 10.00001)
        tr.record("slow", obs_trace.TraceContext.root(), 10.0, 10.5)
        assert [entry["name"] for entry in tr.slow_ops()] == ["slow"]

    def test_direct_multi_shard_batch_traces_every_journal_append(self):
        """The commit rounds of a batch fan out over pool workers; each
        must re-activate the batch's trace context, or the journal appends
        it makes go untraced."""
        deployment = make_deployment(
            BlobSeerConfig(num_version_managers=4, chunk_size=CHUNK)
        )
        vm = deployment.version_manager
        journals = vm.enable_durability(failover=False)
        client = deployment.client()
        blobs = [client.create_blob() for _ in range(8)]
        assert len({vm.shard_index(blob.blob_id) for blob in blobs}) > 1
        tr = obs_trace.reset_tracer(enabled=True)
        try:
            appended = sum(journal.appends for journal in journals)
            with client.batch() as batch:
                futures = [batch.write(blob.blob_id, 0, b"j" * CHUNK) for blob in blobs]
            results = [future.result() for future in futures]
            appended = sum(journal.appends for journal in journals) - appended
            spans = [span for span in tr.drain() if span.name == "journal:append"]
        finally:
            obs_trace.reset_tracer()
            deployment.close()
        assert all(result.ok for result in results)
        assert appended == 2 * len(blobs)  # one register + one publish per blob
        assert len(spans) == appended
        assert {span.trace_id for span in spans} == {results[0].trace_id}


# ---------------------------------------------------------------------------
# Config knobs
# ---------------------------------------------------------------------------


class TestObsConfig:
    def test_knobs_round_trip(self):
        config = BlobSeerConfig(
            obs_tracing=True, obs_slow_op_threshold=0.25, obs_metrics_interval=1.5
        )
        clone = BlobSeerConfig.from_dict(config.to_dict())
        assert clone.obs_tracing is True
        assert clone.obs_slow_op_threshold == 0.25
        assert clone.obs_metrics_interval == 1.5

    @pytest.mark.parametrize(
        "overrides",
        [{"obs_slow_op_threshold": -0.1}, {"obs_metrics_interval": -1.0}],
    )
    def test_negative_knobs_rejected(self, overrides):
        with pytest.raises(InvalidConfigError):
            BlobSeerConfig(**overrides)


# ---------------------------------------------------------------------------
# The obs RPC surface, under both codecs
# ---------------------------------------------------------------------------


def _spawn_meta_server():
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


CODECS = ["json"] + (["msgpack"] if HAVE_MSGPACK else [])


class TestObsRpcSurface:
    @pytest.fixture(scope="class")
    def meta_server(self):
        proc, address = _spawn_meta_server()
        yield address
        proc.kill()
        proc.wait(timeout=5.0)
        proc.stdout.close()

    @pytest.mark.parametrize("codec", CODECS)
    def test_metrics_rpc_round_trips(self, meta_server, codec):
        with RpcClient([meta_server], codec=codec) as rpc:
            for _ in range(5):
                rpc.call("ping")
            snapshot = rpc.call("metrics")
        assert set(snapshot) >= {"role", "counters", "gauges", "histograms"}
        assert snapshot["role"] == "meta-000"
        assert snapshot["gauges"]["process_rss_bytes"] > 0

    @pytest.mark.parametrize("codec", CODECS)
    def test_health_reports_vitals(self, meta_server, codec):
        with RpcClient([meta_server], codec=codec) as rpc:
            health = rpc.call("health")
        assert health["role"] == "meta"
        assert health["serving"] is True
        assert health["uptime"] > 0
        assert health["rss_bytes"] > 0

    @pytest.mark.parametrize("codec", CODECS)
    def test_trace_spans_and_slow_ops_answer(self, meta_server, codec):
        with RpcClient([meta_server], codec=codec) as rpc:
            assert isinstance(rpc.call("trace_spans"), list)
            assert isinstance(rpc.call("slow_ops"), list)


# ---------------------------------------------------------------------------
# End to end: a traced, metered multi-process deployment
# ---------------------------------------------------------------------------


def _obs_config(**overrides):
    base = dict(
        num_data_providers=2,
        num_metadata_providers=2,
        num_version_managers=1,
        chunk_size=CHUNK,
        replication=1,
        transport="network",
        net_max_retries=0,
        net_connect_timeout=5.0,
        net_request_timeout=30.0,
        net_codec=os.environ.get("REPRO_NET_CODEC", "json"),
        obs_tracing=True,
    )
    base.update(overrides)
    return BlobSeerConfig(**base)


@pytest.fixture(scope="module")
def obs_deployment():
    obs_metrics.reset_registry("client")
    obs_trace.reset_tracer(enabled=True)
    dep = make_deployment(_obs_config())
    yield dep
    dep.close()
    obs_trace.reset_tracer()
    obs_metrics.reset_registry("process")


@pytest.mark.slow
class TestTracedDeployment:
    def test_client_spans_parent_server_spans(self, obs_deployment):
        client = obs_deployment.client()
        blob = client.create_blob()
        with client.batch() as batch:
            future = batch.append(blob.blob_id, b"t" * CHUNK)
        result = future.result()
        assert result.ok
        assert result.trace_id is not None

        spans = obs_deployment.trace_snapshot()
        ours = [span for span in spans if span.trace_id == result.trace_id]
        names = {span.name for span in ours}
        assert "batch" in names
        assert "op:append" in names
        server_spans = [span for span in ours if span.name.startswith("srv:")]
        assert server_spans, "no server-side spans joined the client trace"
        client_span_ids = {
            span.span_id for span in ours if not span.name.startswith("srv:")
        }
        # Every server span parents under a client span of the same trace:
        # the cross-process join the trace envelope exists for.
        for span in server_spans:
            assert span.parent_id in client_span_ids
        # The data plane was traced too (put_chunk dispatch on a provider)
        # and its decode/dispatch children nest under the srv: spans.
        assert any(span.name == "srv:put_chunk" for span in server_spans)
        server_span_ids = {span.span_id for span in server_spans}
        dispatch = [span for span in ours if span.name == "dispatch"]
        assert dispatch
        assert all(span.parent_id in server_span_ids for span in dispatch)

    def test_metrics_snapshot_aggregates_the_cluster(self, obs_deployment):
        client = obs_deployment.client()
        blob = client.create_blob()
        blob.append_many([b"m" * CHUNK for _ in range(8)])
        snap = obs_deployment.metrics_snapshot()
        assert "client" in snap["processes"]
        assert any(name.startswith("provider-") for name in snap["processes"])
        merged = snap["merged"]
        assert merged["counters"]["provider_put_bytes"] >= 8 * CHUNK
        assert "coordinator_commit_seconds" in merged["histograms"]
        latency = snap["commit_latency"]
        assert latency["p50"] > 0
        assert latency["p50"] <= latency["p95"] <= latency["p99"]

    def test_window_sample_from_scraped_metrics(self, obs_deployment):
        client = obs_deployment.client()
        blob = client.create_blob()
        before = obs_deployment.metrics_snapshot()
        blob.append_many([b"w" * CHUNK for _ in range(4)])
        after = obs_deployment.metrics_snapshot()
        sample = sample_from_metrics(after, 0.0, 1.0, previous=before)
        assert sample.write_load >= 4 * CHUNK
        assert 0.0 < sample.live_fraction <= 1.0
        assert sample.commit_latency_p99 >= sample.commit_latency_p50 > 0
        # The behaviour model's input layout is unchanged.
        assert len(sample.features()) == len(FEATURE_NAMES) == 6

    def test_monitor_probe_scrapes_vitals(self, obs_deployment):
        monitor = obs_deployment.monitor
        if monitor is None:
            from repro.net.monitor import ClusterMonitor

            monitor = ClusterMonitor(metrics_interval=0.01)
            monitor.watch(
                "coordinator", 0, obs_deployment._addrs[("coordinator", 0)]
            )
            try:
                for target in monitor._targets.values():
                    monitor._probe(target)
                vitals = monitor.vitals()
                assert vitals[("coordinator", 0)]["role"] == "coordinator"
                assert vitals[("coordinator", 0)]["rss_bytes"] > 0
                scraped = monitor.scraped_metrics()
                assert ("coordinator", 0) in scraped
            finally:
                monitor.stop()
