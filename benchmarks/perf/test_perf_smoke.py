"""Smoke test of the repo benchmark (tier-1, a few seconds).

Runs the two in-process workloads at ``--scale smoke`` twice and checks what a
later PR relies on: ``BENCHMARK.json`` is the catalogue, every declared metric
is emitted under a legal name with its unit, simulated results and
single-client counts repeat exactly, the oracle catches a wrong byte, and the
tracing wrappers leave the program as they found it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

from blobperf import catalogue, compare  # noqa: E402
from blobperf.cli import driver_line  # noqa: E402
from blobperf.oracle import Oracle  # noqa: E402
from blobperf.workloads import RunArgs, run_workload  # noqa: E402

SMOKE_WORKLOADS = ("direct_deep_history", "sim_paper_scaling")


def test_benchmark_json_is_the_catalogue_and_within_the_contract_limits():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        declared = json.load(fh)
    assert declared == catalogue.benchmark_json()
    assert set(declared) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert 1 <= declared["run_seconds"] <= 60
    names = (
        [w["name"] for w in declared["workloads"]]
        + [m["name"] for m in declared["end_to_end"]]
        + [m["name"] for m in declared["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(catalogue.NAME_RE.match(name) for name in names)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert catalogue.UNIT_RE.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in declared["end_to_end"]:
        assert 0 <= metric["bound"] <= 0.25
    for workload in declared["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": setup[0]["bound"]}]
    assert setup[0]["bound"] == max(m["bound"] for m in declared["end_to_end"])


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Each smoke workload run twice, traced, in this process."""
    from repro.core.metadata.segment_tree import SegmentTreeBuilder, SegmentTreeReader

    originals = (SegmentTreeBuilder.build, SegmentTreeReader.lookup)
    root = str(tmp_path_factory.mktemp("perf"))
    runs = {
        name: [
            dataclasses.asdict(
                run_workload(RunArgs(workload=name, seed=1, trace=True, scale="smoke", root=root))
            )
            for _ in range(2)
        ]
        for name in SMOKE_WORKLOADS
    }
    # The wrappers were installed on live classes: they must be gone again.
    assert (SegmentTreeBuilder.build, SegmentTreeReader.lookup) == originals
    return runs


@pytest.mark.parametrize("workload", SMOKE_WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(smoke_runs, workload):
    record = smoke_runs[workload][0]
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    known = catalogue.by_name()
    for traced, declared in (
        (False, catalogue.END_TO_END),
        (True, catalogue.SPECIFIC + catalogue.PER_LAYER),
    ):
        line = json.loads(driver_line({**record, "trace": traced}))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == {m.name for m in declared}
        for name, entry in line["metrics"].items():
            assert catalogue.NAME_RE.match(name)
            assert entry["unit"] == known[name].unit
            assert isinstance(entry["value"], float)
    # End-to-end metrics gate later PRs by ratio: none may read zero.
    assert all(value > 0 for value in record["end_to_end"].values())
    # Everything measured is in the catalogue (nothing printed but undeclared).
    measured = {**record["end_to_end"], **record["specific"], **record["per_layer"]}
    assert set(measured) <= set(known)


def test_simulated_results_and_single_client_counts_repeat_exactly(smoke_runs):
    first, second = smoke_runs["sim_paper_scaling"]
    for name in catalogue.EXACT_SIM:
        merged_first = {**first["specific"], **first["per_layer"]}
        merged_second = {**second["specific"], **second["per_layer"]}
        assert merged_first[name] == merged_second[name] and merged_first[name] > 0
    first, second = smoke_runs["direct_deep_history"]
    for name in catalogue.EXACT_COUNTS:
        assert first["per_layer"].get(name, 0.0) == second["per_layer"].get(name, 0.0), name
    assert first["per_layer"]["version.history_records_per_op"] > 0


def test_bypass_predictions_hold_on_the_in_process_workload(smoke_runs):
    layers = smoke_runs["direct_deep_history"][0]["per_layer"]
    assert not any(value for name, value in layers.items() if name.startswith(("net.", "journal.")))
    assert layers["trace.coverage"] >= 0.9


def test_oracle_catches_a_wrong_byte_and_a_torn_read():
    oracle = Oracle(seed=7, unit=64)
    data, serials = oracle.payload(4)
    oracle.record_write(1, 1, 0, serials)
    newer, newer_serials = oracle.payload(1)
    oracle.record_write(1, 2, 64, newer_serials)
    oracle.fold(1)
    expected = data[:64] + newer + data[128:]
    assert oracle.check_read(1, 0, 256, expected) and oracle.failures == 0
    corrupted = bytearray(expected)
    corrupted[100] ^= 0x01
    assert not oracle.check_read(1, 0, 256, bytes(corrupted))
    assert oracle.failures == 1
    # Unit 1 was written twice; either write is a legal frontier read, half
    # of each is torn.
    assert oracle.check_frontier_read(1, 64, 64, data[64:128])
    assert oracle.check_frontier_read(1, 64, 64, newer)
    assert not oracle.check_frontier_read(1, 64, 64, data[64:96] + newer[32:])
    # A version acknowledged twice, or skipped, is a broken commit order.
    oracle.record_write(1, 2, 0, serials[:1])
    oracle.record_write(1, 4, 0, serials[:1])
    oracle.fold(1)
    assert oracle.failures == 4 and oracle.errors


def test_compare_verdicts():
    metric = catalogue.by_name()["op_p50_ms"]  # lower is better

    def stats(median, spread=0.01):
        return {"median": median, "spread": spread}

    bound = metric.bound
    assert compare.verdict(metric, stats(10.0), stats(10.0 * (1 + bound / 2)))[0] == "within"
    assert compare.verdict(metric, stats(10.0), stats(10.0 * (1 + 2 * bound)))[0] == "worse"
    assert compare.verdict(metric, stats(10.0), stats(9.0))[0] == "better"
    assert compare.verdict(metric, stats(10.0, spread=2 * bound), stats(20.0))[0] == "unresolved"
    higher = catalogue.by_name()["ops_per_s"]
    assert compare.verdict(higher, stats(100.0), stats(100.0 * (1 - 2 * higher.bound)))[0] == "worse"
