"""E11 — Sharded version coordinator: scale out the serialised commit step.

BlobSeer decentralises everything in its write protocol *except* version
assignment and publication, which the paper concedes is handled by a
centralised version manager.  E5 showed what decentralisation buys at the
metadata layer; this experiment replays the same story at the **commit**
layer: blobs are routed by consistent hash to one of N version-coordinator
shards (``BlobSeerConfig.num_version_managers``), each owning its own lock,
write history and publication frontier on its own simulated machine.

N simulated clients append to M distinct blobs.  Register/publish RPCs are
charged to the owning shard's node, so the 1-shard curve flattens at the
coordinator's service rate while the sharded curves keep scaling with the
writer count — exactly E5's shape, one layer down.

A loaded coordinator spends ~1 ms per commit-path request (version-map
update plus write-ahead persistence); the same value is used for every
shard count, so the sweep isolates sharding itself.
"""

from __future__ import annotations

import pytest

from repro.bench import ResultTable
from repro.core import BlobSeerConfig
from repro.sim import NetworkModel, SimulatedBlobSeer, run_multi_blob_appenders

from _helpers import KB, save_table

WRITER_COUNTS = [4, 8, 16, 32, 64]
NUM_BLOBS = 16
APPEND_SIZE = 64 * KB
MODEL = NetworkModel(version_manager_service=1e-3)


def _config(num_shards: int) -> BlobSeerConfig:
    return BlobSeerConfig(
        num_data_providers=32,
        num_metadata_providers=16,
        chunk_size=APPEND_SIZE,
        num_version_managers=num_shards,
    )


def _storm_throughput(num_shards: int, writers: int) -> float:
    """Aggregate commits/second of ``writers`` appenders over 16 blobs."""
    cluster = SimulatedBlobSeer(_config(num_shards), model=MODEL)
    blobs = [cluster.create_blob() for _ in range(NUM_BLOBS)]
    result = run_multi_blob_appenders(
        cluster, blobs, writers, append_size=APPEND_SIZE, appends_per_client=1
    )
    return writers / result.makespan


def run_commit_storm_sweep() -> ResultTable:
    table = ResultTable(
        "E11b: concurrent appenders over 16 blobs — 1 vs 16 coordinator shards",
        ["writers", "central_commits_per_s", "sharded_commits_per_s", "gain"],
    )
    for writers in WRITER_COUNTS:
        central = _storm_throughput(1, writers)
        sharded = _storm_throughput(16, writers)
        table.add(
            writers=writers,
            central_commits_per_s=central,
            sharded_commits_per_s=sharded,
            gain=sharded / central if central else 0.0,
        )
    return table


@pytest.mark.benchmark(group="e11-version-sharding")
def test_e11_commit_storm_replays_e5_shape(benchmark, results_dir):
    table = benchmark.pedantic(run_commit_storm_sweep, rounds=1, iterations=1)
    save_table(results_dir, "e11_commit_storm", table)
    central = table.column("central_commits_per_s")
    sharded = table.column("sharded_commits_per_s")
    gains = table.column("gain")
    # Shape 1: the 1-shard curve flattens (the coordinator saturates).
    assert central[-1] < 1.3 * central[2]
    # Shape 2: the sharded curve keeps rising with the writer count.
    assert sharded[-1] > 2 * sharded[0]
    # Shape 3: the gap widens with concurrency and is large at full scale.
    assert gains[-1] > 3.0
    assert gains[-1] > gains[0]
