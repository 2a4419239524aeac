"""Tests for the version manager: assignment, publication order, recovery.

Also covers the sharded version-coordinator service built on top of it:
routing invariants (a blob always maps to the same shard), per-blob
semantics preserved at any shard count, and the bulk register/publish
rounds the batch engine uses.
"""

from __future__ import annotations

import pytest

from repro.core.errors import (
    BlobNotFoundError,
    CommitError,
    InvalidRangeError,
    VersionNotFoundError,
)
from repro.core.version_coordinator import ShardedVersionManager, VersionCoordinator
from repro.core.version_manager import VersionManager, WriteState
from repro.net.proxies import RemoteCoordinator


@pytest.fixture
def vm() -> VersionManager:
    return VersionManager()


@pytest.fixture
def blob_id(vm) -> int:
    return vm.create_blob(chunk_size=64).blob_id


class TestBlobLifecycle:
    def test_create_blob_assigns_increasing_ids(self, vm):
        a = vm.create_blob()
        b = vm.create_blob()
        assert b.blob_id == a.blob_id + 1
        assert vm.blob_ids() == [a.blob_id, b.blob_id]

    def test_blob_info_roundtrip(self, vm):
        info = vm.create_blob(chunk_size=128, replication=2)
        assert vm.blob_info(info.blob_id) == info

    def test_unknown_blob_raises(self, vm):
        with pytest.raises(BlobNotFoundError):
            vm.blob_info(999)

    def test_invalid_parameters_rejected(self, vm):
        with pytest.raises(InvalidRangeError):
            vm.create_blob(chunk_size=0)
        with pytest.raises(InvalidRangeError):
            vm.create_blob(replication=0)

    def test_initial_snapshot_is_empty_version_zero(self, vm, blob_id):
        snapshot = vm.get_snapshot(blob_id)
        assert snapshot.version == 0 and snapshot.size == 0 and snapshot.root is None


class TestRegistration:
    def test_versions_assigned_sequentially(self, vm, blob_id):
        t1 = vm.register_write(blob_id, 0, 10)
        t2 = vm.register_write(blob_id, 0, 10)
        assert (t1.version, t2.version) == (1, 2)

    def test_write_layered_on_latest_assigned_size(self, vm, blob_id):
        vm.register_append(blob_id, 100)          # v1 (pending), size 100
        ticket = vm.register_write(blob_id, 50, 10)
        assert ticket.base_blob_size == 100
        assert ticket.new_blob_size == 100

    def test_write_extending_the_end_grows_size(self, vm, blob_id):
        vm.register_append(blob_id, 100)
        ticket = vm.register_write(blob_id, 90, 50)
        assert ticket.new_blob_size == 140

    def test_write_beyond_end_rejected(self, vm, blob_id):
        with pytest.raises(InvalidRangeError):
            vm.register_write(blob_id, 10, 5)  # blob is still empty

    def test_append_offsets_never_collide(self, vm, blob_id):
        t1 = vm.register_append(blob_id, 30)
        t2 = vm.register_append(blob_id, 20)
        assert t1.offset == 0 and t2.offset == 30
        assert t2.new_blob_size == 50

    def test_zero_size_rejected(self, vm, blob_id):
        with pytest.raises(InvalidRangeError):
            vm.register_write(blob_id, 0, 0)
        with pytest.raises(InvalidRangeError):
            vm.register_append(blob_id, 0)


class TestPublication:
    def test_publish_advances_frontier(self, vm, blob_id):
        ticket = vm.register_append(blob_id, 10)
        assert vm.latest_version(blob_id) == 0
        frontier = vm.publish(blob_id, ticket.version)
        assert frontier == 1
        assert vm.latest_version(blob_id) == 1

    def test_out_of_order_publish_waits_for_earlier_versions(self, vm, blob_id):
        t1 = vm.register_append(blob_id, 10)
        t2 = vm.register_append(blob_id, 10)
        assert vm.publish(blob_id, t2.version) == 0   # v1 still pending
        assert vm.latest_version(blob_id) == 0
        assert vm.publish(blob_id, t1.version) == 2   # both become visible
        assert vm.latest_version(blob_id) == 2

    def test_snapshot_reflects_published_size_only(self, vm, blob_id):
        t1 = vm.register_append(blob_id, 10)
        vm.register_append(blob_id, 10)  # t2 never published
        vm.publish(blob_id, t1.version)
        assert vm.get_snapshot(blob_id).size == 10

    def test_reading_unpublished_version_rejected(self, vm, blob_id):
        vm.register_append(blob_id, 10)
        with pytest.raises(VersionNotFoundError):
            vm.get_snapshot(blob_id, 1)

    def test_snapshot_of_old_version(self, vm, blob_id):
        t1 = vm.register_append(blob_id, 10)
        t2 = vm.register_append(blob_id, 20)
        vm.publish(blob_id, t1.version)
        vm.publish(blob_id, t2.version)
        assert vm.get_snapshot(blob_id, 1).size == 10
        assert vm.get_snapshot(blob_id, 2).size == 30

    def test_publish_unknown_version_rejected(self, vm, blob_id):
        with pytest.raises(VersionNotFoundError):
            vm.publish(blob_id, 5)

    def test_publish_is_idempotent(self, vm, blob_id):
        ticket = vm.register_append(blob_id, 10)
        vm.publish(blob_id, ticket.version)
        assert vm.publish(blob_id, ticket.version) == 1

    def test_counters(self, vm, blob_id):
        t1 = vm.register_append(blob_id, 10)
        vm.publish(blob_id, t1.version)
        assert vm.writes_registered == 1
        assert vm.versions_published == 1


class TestHistory:
    def test_history_includes_pending_versions(self, vm, blob_id):
        vm.register_append(blob_id, 10)
        vm.register_write(blob_id, 0, 5)
        history = vm.get_history(blob_id, 2)
        assert [(r.version, r.offset, r.size) for r in history] == [(1, 0, 10), (2, 0, 5)]

    def test_history_upto_clips(self, vm, blob_id):
        vm.register_append(blob_id, 10)
        vm.register_append(blob_id, 10)
        assert len(vm.get_history(blob_id, 1)) == 1
        assert len(vm.get_history(blob_id, 99)) == 2

    def test_pending_versions_listing(self, vm, blob_id):
        t1 = vm.register_append(blob_id, 10)
        t2 = vm.register_append(blob_id, 10)
        assert vm.pending_versions(blob_id) == [1, 2]
        vm.publish(blob_id, t1.version)
        assert vm.pending_versions(blob_id) == [2]


class TestAbortAndRepair:
    def test_abort_blocks_frontier_until_repair(self, vm, blob_id):
        t1 = vm.register_append(blob_id, 10)
        t2 = vm.register_append(blob_id, 10)
        vm.abort(blob_id, t1.version)
        vm.publish(blob_id, t2.version)
        assert vm.latest_version(blob_id) == 0
        vm.mark_repaired(blob_id, t1.version)
        assert vm.latest_version(blob_id) == 2

    def test_aborted_version_cannot_publish(self, vm, blob_id):
        ticket = vm.register_append(blob_id, 10)
        vm.abort(blob_id, ticket.version)
        with pytest.raises(CommitError):
            vm.publish(blob_id, ticket.version)

    def test_published_version_cannot_abort(self, vm, blob_id):
        ticket = vm.register_append(blob_id, 10)
        vm.publish(blob_id, ticket.version)
        with pytest.raises(CommitError):
            vm.abort(blob_id, ticket.version)

    def test_mark_repaired_requires_aborted_state(self, vm, blob_id):
        ticket = vm.register_append(blob_id, 10)
        with pytest.raises(CommitError):
            vm.mark_repaired(blob_id, ticket.version)

    def test_aborted_versions_listing(self, vm, blob_id):
        t1 = vm.register_append(blob_id, 10)
        vm.abort(blob_id, t1.version)
        assert vm.aborted_versions(blob_id) == [1]
        assert vm.version_state(blob_id, 1) == WriteState.ABORTED


class TestBulkRounds:
    def test_publish_many_advances_frontier_once(self, vm, blob_id):
        tickets = [vm.register_append(blob_id, 10) for _ in range(3)]
        rounds_before = vm.publish_rounds
        frontier = vm.publish_many(blob_id, [t.version for t in tickets])
        assert frontier == 3
        assert vm.latest_version(blob_id) == 3
        assert vm.publish_rounds == rounds_before + 1

    def test_publish_many_waits_for_missing_earlier_version(self, vm, blob_id):
        vm.register_append(blob_id, 10)  # v1, never completed
        t2 = vm.register_append(blob_id, 10)
        t3 = vm.register_append(blob_id, 10)
        assert vm.publish_many(blob_id, [t3.version, t2.version]) == 0
        assert vm.latest_version(blob_id) == 0
        assert vm.publish(blob_id, 1) == 3

    def test_publish_many_rejects_aborted_version(self, vm, blob_id):
        t1 = vm.register_append(blob_id, 10)
        vm.abort(blob_id, t1.version)
        with pytest.raises(CommitError):
            vm.publish_many(blob_id, [t1.version])

    def test_publish_many_is_all_or_nothing_on_error(self, vm, blob_id):
        t1 = vm.register_append(blob_id, 10)
        t2 = vm.register_append(blob_id, 10)
        vm.abort(blob_id, t2.version)
        with pytest.raises(CommitError):
            vm.publish_many(blob_id, [t1.version, t2.version])
        # The failed round mutated nothing: v1 is still pending, not
        # half-completed behind an exception the caller read as failure.
        assert vm.version_state(blob_id, t1.version) == WriteState.PENDING
        assert vm.latest_version(blob_id) == 0
        with pytest.raises(VersionNotFoundError):
            vm.publish_many(blob_id, [t1.version, 99])
        assert vm.version_state(blob_id, t1.version) == WriteState.PENDING

    def test_register_writes_bulk_unknown_blob_assigns_nothing(self, vm, blob_id):
        vm.register_append(blob_id, 100)
        with pytest.raises(BlobNotFoundError):
            vm.register_writes_bulk([(blob_id, [(0, 10)]), (999, [(0, 5)])])
        # The known blob's round was not half-applied: no orphaned ticket.
        assert vm.pending_versions(blob_id) == [1]
        assert vm.writes_registered == 1

    def test_register_writes_bulk_spans_blobs_in_one_round(self, vm):
        a = vm.create_blob(chunk_size=64).blob_id
        b = vm.create_blob(chunk_size=64).blob_id
        vm.register_append(a, 100)
        vm.register_append(b, 50)
        rounds_before = vm.register_rounds
        results = vm.register_writes_bulk([(a, [(0, 10), (0, 20)]), (b, [(0, 5)])])
        assert vm.register_rounds == rounds_before + 1
        assert [t.version for t in results[0]] == [2, 3]
        assert results[1][0].version == 2
        assert results[1][0].blob_id == b

    def test_report_counts_backlog(self, vm, blob_id):
        t1 = vm.register_append(blob_id, 10)
        vm.register_append(blob_id, 10)
        vm.publish(blob_id, t1.version)
        report = vm.report()
        assert report["blobs"] == 1
        assert report["writes_registered"] == 2
        assert report["versions_published"] == 1
        assert report["backlog"] == 1


class TestShardedCoordinator:
    def test_version_manager_is_a_coordinator(self):
        assert isinstance(ShardedVersionManager(num_shards=4), VersionCoordinator)
        assert isinstance(RemoteCoordinator([object()]), VersionCoordinator)

    def test_routing_is_stable_and_deterministic(self):
        svm = ShardedVersionManager(num_shards=8)
        blob_ids = [svm.create_blob().blob_id for _ in range(64)]
        first = {blob_id: svm.shard_index(blob_id) for blob_id in blob_ids}
        for _ in range(3):
            assert {b: svm.shard_index(b) for b in blob_ids} == first
        # Routing depends only on the blob id: a fresh coordinator with the
        # same shard count maps every blob identically (clients and servers
        # can compute ownership independently).
        other = ShardedVersionManager(num_shards=8)
        assert {b: other.shard_index(b) for b in blob_ids} == first

    def test_blobs_spread_over_shards(self):
        svm = ShardedVersionManager(num_shards=8)
        for _ in range(200):
            svm.create_blob()
        distribution = svm.blob_distribution()
        assert sum(distribution.values()) == 200
        assert all(count > 0 for count in distribution.values())

    def test_single_shard_routes_everything_to_shard_zero(self):
        svm = ShardedVersionManager(num_shards=1)
        blob_ids = [svm.create_blob().blob_id for _ in range(16)]
        assert {svm.shard_index(b) for b in blob_ids} == {0}
        assert svm.num_shards == 1

    def test_blob_ids_globally_unique_and_sequential(self):
        svm = ShardedVersionManager(num_shards=4)
        ids = [svm.create_blob().blob_id for _ in range(20)]
        assert ids == list(range(1, 21))
        assert svm.blob_ids() == ids

    def test_per_blob_semantics_preserved_across_shards(self):
        svm = ShardedVersionManager(num_shards=4)
        blobs = [svm.create_blob(chunk_size=64).blob_id for _ in range(8)]
        for blob_id in blobs:
            t1 = svm.register_append(blob_id, 100)
            t2 = svm.register_write(blob_id, 0, 10)
            assert (t1.version, t2.version) == (1, 2)
            assert svm.latest_version(blob_id) == 0
            assert svm.publish_many(blob_id, [t2.version]) == 0  # v1 pending
            assert svm.publish(blob_id, t1.version) == 2
            assert svm.get_snapshot(blob_id).size == 100
            assert len(svm.get_history(blob_id, 2)) == 2

    def test_unknown_blob_raises_through_routing(self):
        svm = ShardedVersionManager(num_shards=4)
        with pytest.raises(BlobNotFoundError):
            svm.blob_info(999)

    def test_register_writes_bulk_routes_mixed_shards(self):
        svm = ShardedVersionManager(num_shards=4)
        blobs = [svm.create_blob(chunk_size=64).blob_id for _ in range(6)]
        for blob_id in blobs:
            svm.register_append(blob_id, 100)
        batches = [(blob_id, [(0, 10)]) for blob_id in blobs]
        results = svm.register_writes_bulk(batches, writer="w")
        assert [outcomes[0].blob_id for outcomes in results] == blobs
        assert all(outcomes[0].version == 2 for outcomes in results)

    def test_aggregate_counters_sum_over_shards(self):
        svm = ShardedVersionManager(num_shards=4)
        blobs = [svm.create_blob(chunk_size=64).blob_id for _ in range(8)]
        for blob_id in blobs:
            ticket = svm.register_append(blob_id, 10)
            svm.publish(blob_id, ticket.version)
        assert svm.writes_registered == 8
        assert svm.versions_published == 8
        assert svm.backlog() == 0
        reports = svm.shard_reports()
        assert len(reports) == 4
        assert sum(r["writes_registered"] for r in reports) == 8
        assert sum(r["blobs"] for r in reports) == 8

    def test_abort_and_repair_route_to_owning_shard(self):
        svm = ShardedVersionManager(num_shards=4)
        blob_id = svm.create_blob(chunk_size=64).blob_id
        t1 = svm.register_append(blob_id, 10)
        t2 = svm.register_append(blob_id, 10)
        svm.abort(blob_id, t1.version)
        svm.publish(blob_id, t2.version)
        assert svm.latest_version(blob_id) == 0
        assert svm.mark_repaired(blob_id, t1.version) == 2
        assert svm.aborted_versions(blob_id) == []
