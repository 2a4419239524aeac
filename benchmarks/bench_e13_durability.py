"""E13 — Durability & recovery: WAL replay, shard failover, anti-entropy.

The paper's QoS experiment (Section IV.E) runs BlobSeer "for long periods
of service up-time while supporting failures of the physical storage
components".  Earlier experiments measured how throughput *degrades* under
data-provider failures; this one measures whether the control plane
*survives* failures of its stateful components:

* **Part A — coordinator shard crash mid appender storm.**  A
  version-coordinator shard is crashed while 32 appenders hammer 16 blobs.
  With journaling + failover on, the shard's blobs keep committing on its
  ring successor (served from the journal-streamed hot standby), and the
  rejoining shard replays its WAL plus the successor's handoff records.
  Asserted invariants: **zero committed-version loss**, zero failed
  operations, and forward progress during the downtime.

* **Part B — full restart from the journals.**  After the storm, a brand
  new coordinator is rebuilt with ``recover_from(journals)`` — the
  restarted deployment must resume at exactly the published frontiers the
  old one reached (again zero loss), and the replay must be fast (it is
  bounded by the snapshot interval, not history length).

* **Part C — anti-entropy convergence.**  A metadata provider recovers
  from a crash with its store wiped, seeding hundreds of under-replicated
  keys.  The background scrubber must converge the ring (every key back on
  its full live owner set) within 3 passes — in practice one repairing
  pass plus one clean verifying pass.
"""

from __future__ import annotations

import time

import pytest

from repro.bench import ResultTable
from repro.core import BlobSeerConfig
from repro.core.version_coordinator import ShardedVersionManager
from repro.resilience import AntiEntropyScrubber
from repro.sim import (
    NetworkModel,
    SimulatedBlobSeer,
    prime_blob,
    run_multi_blob_appenders,
)

from _helpers import KB, save_table

NUM_SHARDS = 4
NUM_BLOBS = 16
NUM_WRITERS = 32
APPENDS_PER_WRITER = 4
APPEND_SIZE = 64 * KB
CRASH_AT = 0.05
DOWNTIMES = [0.1, 0.2, 0.4]
MODEL = NetworkModel(version_manager_service=1e-3)


def _config(**overrides) -> BlobSeerConfig:
    defaults = dict(
        num_data_providers=32,
        num_metadata_providers=16,
        num_version_managers=NUM_SHARDS,
        chunk_size=APPEND_SIZE,
        journal_enabled=True,
        journal_snapshot_interval=256,
    )
    defaults.update(overrides)
    return BlobSeerConfig(**defaults)


# ---------------------------------------------------------------------------
# Part A: coordinator shard crash mid appender storm
# ---------------------------------------------------------------------------


def _crash_run(downtime: float) -> dict:
    cluster = SimulatedBlobSeer(_config(), model=MODEL)
    blobs = [cluster.create_blob() for _ in range(NUM_BLOBS)]
    dead = cluster.version_manager.shard_index(blobs[0].blob_id)
    owned = [b for b in blobs if cluster.version_manager.shard_index(b.blob_id) == dead]
    observed = {"at_crash": {}, "at_recover": {}, "catchup": 0, "replay_ms": 0.0}

    def chaos():
        yield cluster.env.timeout(CRASH_AT)
        observed["at_crash"] = {
            b.blob_id: cluster.version_manager.latest_version(b.blob_id) for b in owned
        }
        cluster.crash_coordinator_shard(dead)
        yield cluster.env.timeout(downtime)
        observed["at_recover"] = {
            b.blob_id: cluster.version_manager.latest_version(b.blob_id) for b in owned
        }
        wall = time.perf_counter()
        observed["catchup"] = cluster.recover_coordinator_shard(dead)
        observed["replay_ms"] = (time.perf_counter() - wall) * 1e3

    cluster.env.process(chaos(), name="chaos")
    run_multi_blob_appenders(
        cluster, blobs, NUM_WRITERS, append_size=APPEND_SIZE,
        appends_per_client=APPENDS_PER_WRITER,
    )
    ops_ok = sum(1 for r in cluster.metrics.records if r.ok)
    ops_failed = sum(1 for r in cluster.metrics.records if not r.ok)
    # Committed-version loss: versions published (acked to clients) before
    # the crash that the recovered shard no longer exposes.
    lost = sum(
        max(0, observed["at_crash"][bid] - cluster.version_manager.latest_version(bid))
        for bid in observed["at_crash"]
    )
    commits_during_downtime = sum(
        observed["at_recover"][bid] - observed["at_crash"][bid]
        for bid in observed["at_crash"]
    )
    # Every blob must end at its full expected frontier (no append went
    # missing anywhere, dead shard or not).
    incomplete = 0
    for index, blob in enumerate(blobs):
        expected = sum(
            APPENDS_PER_WRITER for c in range(NUM_WRITERS) if c % NUM_BLOBS == index
        )
        if cluster.version_manager.latest_version(blob.blob_id) != expected:
            incomplete += 1
    return {
        "downtime": downtime,
        "shard_blobs": len(owned),
        "ops_ok": ops_ok,
        "ops_failed": ops_failed,
        "commits_during_downtime": commits_during_downtime,
        "catchup_records": observed["catchup"],
        "replay_ms": observed["replay_ms"],
        "lost_versions": lost,
        "incomplete_blobs": incomplete,
    }


def run_crash_failover_sweep() -> ResultTable:
    table = ResultTable(
        "E13a: coordinator shard crash mid appender storm "
        f"({NUM_WRITERS} appenders x {APPENDS_PER_WRITER} over {NUM_BLOBS} blobs, "
        f"{NUM_SHARDS} shards, WAL + ring-successor failover)",
        [
            "downtime",
            "shard_blobs",
            "ops_ok",
            "ops_failed",
            "commits_during_downtime",
            "catchup_records",
            "replay_ms",
            "lost_versions",
            "incomplete_blobs",
        ],
    )
    for downtime in DOWNTIMES:
        table.add(**_crash_run(downtime))
    return table


# ---------------------------------------------------------------------------
# Part B: full restart — rebuild the coordinator from its journals
# ---------------------------------------------------------------------------


def run_restart_recovery() -> ResultTable:
    table = ResultTable(
        "E13b: full coordinator restart from per-shard journals "
        "(post-storm; frontier must survive byte-for-byte)",
        [
            "snapshot_interval",
            "versions_published",
            "journal_records",
            "replay_ms",
            "lost_versions",
        ],
    )
    for snapshot_interval in (0, 64):
        cluster = SimulatedBlobSeer(
            _config(journal_snapshot_interval=snapshot_interval), model=MODEL
        )
        blobs = [cluster.create_blob() for _ in range(NUM_BLOBS)]
        run_multi_blob_appenders(
            cluster, blobs, NUM_WRITERS, append_size=APPEND_SIZE,
            appends_per_client=APPENDS_PER_WRITER,
        )
        frontiers = {
            b.blob_id: cluster.version_manager.latest_version(b.blob_id) for b in blobs
        }
        journal_records = sum(len(j) for j in cluster.journals)
        wall = time.perf_counter()
        restarted = ShardedVersionManager(num_shards=NUM_SHARDS)
        restarted.recover_from(cluster.journals)
        replay_ms = (time.perf_counter() - wall) * 1e3
        lost = sum(
            max(0, frontier - restarted.latest_version(bid))
            for bid, frontier in frontiers.items()
        )
        table.add(
            snapshot_interval=snapshot_interval,
            versions_published=sum(frontiers.values()),
            journal_records=journal_records,
            replay_ms=replay_ms,
            lost_versions=lost,
        )
    return table


# ---------------------------------------------------------------------------
# Part C: anti-entropy scrub convergence after a lossy recovery
# ---------------------------------------------------------------------------


def run_scrub_convergence() -> ResultTable:
    table = ResultTable(
        "E13c: anti-entropy convergence after a metadata provider recovers "
        "with a wiped store (replication 3)",
        [
            "ring_keys",
            "seeded_holes",
            "passes_to_converge",
            "scrub_repairs",
            "read_repairs",
            "residual_holes",
        ],
    )
    cluster = SimulatedBlobSeer(
        BlobSeerConfig(
            num_data_providers=8,
            num_metadata_providers=8,
            metadata_replication=3,
            chunk_size=16 * KB,
        )
    )
    blob = cluster.create_blob()
    prime_blob(cluster, blob, 16 * KB * 256)
    victim = "meta-003"
    cluster.crash_metadata_provider(victim)
    cluster.recover_metadata_provider(victim, lose_data=True)
    scrubber = AntiEntropyScrubber(cluster.metadata_store, batch_size=64)
    seeded = len(scrubber.under_replicated())
    passes = scrubber.run_until_converged(max_passes=3)
    table.add(
        ring_keys=cluster.metadata_store.total_entries(),
        seeded_holes=seeded,
        passes_to_converge=passes,
        scrub_repairs=scrubber.total_repairs,
        read_repairs=cluster.metadata_store.store_of(victim).stats["repairs"],
        residual_holes=len(scrubber.under_replicated()),
    )
    return table


# ---------------------------------------------------------------------------
# pytest-benchmark entry points (CI durability smoke)
# ---------------------------------------------------------------------------


@pytest.mark.benchmark(group="e13-durability")
def test_e13_failover_commits_through_a_shard_crash(benchmark, results_dir):
    table = benchmark.pedantic(run_crash_failover_sweep, rounds=1, iterations=1)
    save_table(results_dir, "e13_durability", table)
    # The acceptance bar: a crashed shard's blobs never stop committing and
    # nothing published is ever lost.
    assert all(lost == 0 for lost in table.column("lost_versions"))
    assert all(n == 0 for n in table.column("incomplete_blobs"))
    assert all(failed == 0 for failed in table.column("ops_failed"))
    # Forward progress during every downtime window, and a non-trivial
    # journal handoff when the shard rejoins.
    assert all(c > 0 for c in table.column("commits_during_downtime"))
    assert all(c > 0 for c in table.column("catchup_records"))


@pytest.mark.benchmark(group="e13-durability")
def test_e13_restart_replays_to_the_published_frontier(benchmark, results_dir):
    table = benchmark.pedantic(run_restart_recovery, rounds=1, iterations=1)
    save_table(results_dir, "e13_restart_recovery", table)
    assert all(lost == 0 for lost in table.column("lost_versions"))
    # Snapshotting compacts the WAL: the snapshotted run replays fewer
    # records than the full-history run.
    records = table.column("journal_records")
    assert records[1] < records[0]


@pytest.mark.benchmark(group="e13-durability")
def test_e13_scrub_converges_within_three_passes(benchmark, results_dir):
    table = benchmark.pedantic(run_scrub_convergence, rounds=1, iterations=1)
    save_table(results_dir, "e13_scrub_convergence", table)
    assert table.column("seeded_holes")[0] > 0
    assert table.column("passes_to_converge")[0] <= 3
    assert table.column("residual_holes")[0] == 0
