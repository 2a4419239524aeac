"""Tests for elastic coordinator membership: the epoch-based routing layer,
runtime shard add/remove with journal-streamed blob migration, epoch-race
handling, the journal snapshot GC, scrub pacing and the membership-aware
monitoring surfaces."""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.core import BlobSeerConfig
from repro.core.deployment import BlobSeerDeployment
from repro.core.errors import EpochRetryError, ServiceError
from repro.core.membership import CoordinatorMembership, ShardStatus
from repro.core.version_coordinator import MIGRATION_BATCH_BLOBS, ShardedVersionManager
from repro.core.version_manager import VersionManager
from repro.qos import FeedbackPolicy, Monitor, QoSFeedbackController, fit_behavior_model
from repro.qos.monitoring import WindowSample
from repro.resilience import AntiEntropyScrubber, ShardJournal
from repro.sim import NetworkModel, SimulatedBlobSeer, prime_blob

KB = 1024


# ---------------------------------------------------------------------------
# CoordinatorMembership: the routing layer itself
# ---------------------------------------------------------------------------


class TestCoordinatorMembership:
    def test_starts_stable_at_epoch_one_with_all_active(self):
        membership = CoordinatorMembership(["vm-000", "vm-001"])
        assert membership.epoch == 1
        assert not membership.in_transition
        assert membership.statuses() == [ShardStatus.ACTIVE, ShardStatus.ACTIVE]
        assert membership.ring_member_indexes() == [0, 1]

    def test_join_transition_bumps_epoch_once(self):
        membership = CoordinatorMembership(["vm-000", "vm-001"])
        membership.begin_join("vm-002", migrating=[7, 9])
        assert membership.in_transition
        assert membership.epoch == 1  # nothing visible until commit
        assert membership.status_of(2) is ShardStatus.JOINING
        epoch = membership.commit_transition("vm-002 joined")
        assert epoch == 2 and membership.epoch == 2
        assert membership.status_of(2) is ShardStatus.ACTIVE
        assert not membership.is_migrating(7)

    def test_join_moves_only_blobs_owned_by_the_newcomer(self):
        membership = CoordinatorMembership([f"vm-{i:03d}" for i in range(4)])
        before = {blob_id: membership.owner_index(blob_id) for blob_id in range(1, 400)}
        membership.begin_join("vm-004", migrating=[])
        membership.commit_transition("joined")
        moved = [b for b, owner in before.items() if membership.owner_index(b) != owner]
        assert moved  # the newcomer owns something
        assert all(membership.owner_index(b) == 4 for b in moved)
        # Consistent hashing: roughly 1/5 of the keys move, never more than
        # a generous bound.
        assert len(moved) < len(before) * 0.45

    def test_drain_retires_the_slot_and_keeps_indexes_stable(self):
        membership = CoordinatorMembership([f"vm-{i:03d}" for i in range(3)])
        membership.begin_drain(1, migrating=[1, 2, 3])
        assert membership.status_of(1) is ShardStatus.DRAINING
        membership.commit_transition("drained")
        assert membership.status_of(1) is ShardStatus.RETIRED
        assert membership.ring_member_indexes() == [0, 2]
        assert membership.num_slots == 3
        owners = {membership.owner_index(b) for b in range(1, 200)}
        assert owners == {0, 2}

    def test_successor_and_predecessor_skip_retired_slots(self):
        membership = CoordinatorMembership([f"vm-{i:03d}" for i in range(3)])
        membership.begin_drain(1, migrating=[])
        membership.commit_transition("drained")
        assert membership.successor_index(0) == 2
        assert membership.predecessor_index(0) == 2
        assert membership.successor_index(2) == 0

    def test_migrating_blob_commit_is_rejected_for_retry(self):
        membership = CoordinatorMembership(["vm-000", "vm-001"])
        membership.begin_join("vm-002", migrating=[42])
        with pytest.raises(EpochRetryError):
            membership.check_commit([42], epoch=1)
        membership.check_commit([41], epoch=1)  # unaffected blob sails through
        membership.commit_transition("joined")
        membership.check_commit([42], epoch=2)  # new epoch: fine again

    def test_single_transition_at_a_time(self):
        membership = CoordinatorMembership(["vm-000", "vm-001"])
        membership.begin_join("vm-002", migrating=[])
        with pytest.raises(ServiceError):
            membership.begin_join("vm-003", migrating=[])
        with pytest.raises(ServiceError):
            membership.begin_drain(0, migrating=[])
        membership.abort_transition()
        assert membership.num_slots == 2  # the failed join's slot rolled back
        membership.begin_drain(0, migrating=[])
        membership.commit_transition("ok")

    def test_cannot_drain_the_last_ring_member(self):
        membership = CoordinatorMembership(["vm-000"])
        with pytest.raises(ServiceError):
            membership.begin_drain(0, migrating=[])

    def test_wait_stable_unblocks_on_commit(self):
        membership = CoordinatorMembership(["vm-000", "vm-001"])
        membership.begin_join("vm-002", migrating=[])
        released = []

        def waiter():
            released.append(membership.wait_stable(timeout=5.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.02)
        membership.commit_transition("joined")
        thread.join(timeout=5.0)
        assert released == [True]

    def test_crash_and_recovery_bump_the_epoch(self):
        membership = CoordinatorMembership(["vm-000", "vm-001"])
        membership.mark_down(1)
        assert membership.epoch == 2
        assert membership.status_of(1) is ShardStatus.DOWN
        assert 1 in membership.ring_member_indexes()  # still routed (failover)
        membership.mark_active(1)
        assert membership.epoch == 3

    def test_report_surfaces_epoch_statuses_and_transition(self):
        membership = CoordinatorMembership(["vm-000", "vm-001"])
        membership.begin_join("vm-002", migrating=[5])
        report = membership.report()
        assert report["epoch"] == 1
        assert report["in_transition"] is True
        assert report["migrating_blobs"] == 1
        assert [s["status"] for s in report["shards"]] == [
            "active",
            "active",
            "joining",
        ]


# ---------------------------------------------------------------------------
# ShardedVersionManager.add_shard / remove_shard
# ---------------------------------------------------------------------------


def seeded_coordinator(num_shards=2, blobs=30, durable=False, directory=None):
    svm = ShardedVersionManager(num_shards=num_shards)
    if durable:
        svm.enable_durability(directory=directory, snapshot_interval=64)
    blob_ids = [svm.create_blob(chunk_size=64).blob_id for _ in range(blobs)]
    for blob_id in blob_ids:
        ticket = svm.register_append(blob_id, 10)
        svm.publish(blob_id, ticket.version)
    return svm, blob_ids


class TestAddShard:
    def test_frontiers_survive_and_routing_updates(self):
        svm, blob_ids = seeded_coordinator()
        before = {b: svm.latest_version(b) for b in blob_ids}
        report = svm.add_shard()
        assert report["epoch"] == 2 and svm.epoch == 2
        assert report["moved_blobs"] > 0
        assert {b: svm.latest_version(b) for b in blob_ids} == before
        moved = [b for b in blob_ids if svm.shard_index(b) == report["index"]]
        assert len(moved) == report["moved_blobs"]
        # Every blob — moved or not — keeps committing.
        for blob_id in blob_ids:
            ticket = svm.register_append(blob_id, 5)
            assert svm.publish(blob_id, ticket.version) == 2

    def test_pending_and_aborted_versions_migrate_intact(self):
        svm = ShardedVersionManager(num_shards=2)
        blob_ids = [svm.create_blob(chunk_size=64).blob_id for _ in range(24)]
        for blob_id in blob_ids:
            t1 = svm.register_append(blob_id, 8)
            t2 = svm.register_append(blob_id, 8)
            svm.abort(blob_id, t1.version)  # aborted, unrepaired
            svm.publish(blob_id, t2.version)  # completed, blocked behind t1
        report = svm.add_shard()
        moved = [b for b in blob_ids if svm.shard_index(b) == report["index"]]
        assert moved
        for blob_id in moved:
            assert svm.latest_version(blob_id) == 0
            assert svm.aborted_versions(blob_id) == [1]
            assert svm.pending_versions(blob_id) == [2]
            # The repair completes on the *new* owner and unblocks both.
            assert svm.mark_repaired(blob_id, 1) == 2

    def test_blob_ids_stay_globally_unique_after_migration(self):
        svm, blob_ids = seeded_coordinator()
        svm.add_shard()
        fresh = svm.create_blob(chunk_size=64).blob_id
        assert fresh == max(blob_ids) + 1
        assert svm.blob_ids() == sorted(blob_ids + [fresh])

    def test_add_shard_refused_while_a_shard_is_down(self):
        svm, _ = seeded_coordinator(durable=True)
        svm.crash_shard(0)
        with pytest.raises(ServiceError):
            svm.add_shard()
        svm.recover_shard(0)
        svm.add_shard()

    def test_migrated_blobs_are_durable_on_the_new_shard(self, tmp_path):
        svm, blob_ids = seeded_coordinator(durable=True, directory=str(tmp_path))
        report = svm.add_shard()
        moved = [b for b in blob_ids if svm.shard_index(b) == report["index"]]
        assert moved
        # Crash the newcomer: its standby serves the migrated blobs.
        svm.crash_shard(report["index"])
        for blob_id in moved:
            assert svm.latest_version(blob_id) == 1
            ticket = svm.register_append(blob_id, 4)
            svm.publish(blob_id, ticket.version)
        caught_up = svm.recover_shard(report["index"])
        assert caught_up > 0
        for blob_id in moved:
            assert svm.latest_version(blob_id) == 2

    def test_restart_after_scaling_recovers_every_frontier(self, tmp_path):
        svm, blob_ids = seeded_coordinator(durable=True, directory=str(tmp_path))
        svm.add_shard()
        svm.remove_shard(0)
        frontiers = {b: svm.latest_version(b) for b in blob_ids}
        statuses = [s["status"] for s in svm.membership_report()["shards"]]
        reopened = [
            ShardJournal.open(tmp_path, shard_id=shard_id)
            for shard_id in svm.shard_ids
        ]
        restarted = ShardedVersionManager(num_shards=len(reopened))
        restarted.recover_from(reopened, statuses=statuses)
        assert {b: restarted.latest_version(b) for b in blob_ids} == frontiers
        assert restarted.blob_distribution() == svm.blob_distribution()

    def test_restart_after_scaling_recovers_without_statuses(self, tmp_path):
        """The ring itself is durable: every epoch bump is journaled, so a
        restart re-derives retired slots with no operator-passed statuses."""
        svm, blob_ids = seeded_coordinator(durable=True, directory=str(tmp_path))
        svm.add_shard()
        svm.remove_shard(0)
        frontiers = {b: svm.latest_version(b) for b in blob_ids}
        owners = {b: svm.shard_index(b) for b in blob_ids}
        reopened = [
            ShardJournal.open(tmp_path, shard_id=shard_id)
            for shard_id in svm.shard_ids
        ]
        # The retired slot's reopened journal still reports a (stale)
        # membership; the max-epoch rule across journals out-votes it.
        assert any(j.latest_membership() is not None for j in reopened)
        restarted = ShardedVersionManager(num_shards=len(reopened))
        restarted.recover_from(reopened)  # note: no statuses=
        assert restarted.membership.status_of(0) is ShardStatus.RETIRED
        assert {b: restarted.shard_index(b) for b in blob_ids} == owners
        assert {b: restarted.latest_version(b) for b in blob_ids} == frontiers
        # The recovered deployment keeps journaling membership: a crash
        # committed now is re-derivable by the *next* restart too.
        epoch_before = restarted.epoch
        restarted.crash_shard(2)
        restarted.recover_shard(2)
        states = [
            j.latest_membership()
            for j in restarted.journals
            if j.latest_membership() is not None
        ]
        assert max(state["epoch"] for state in states) == epoch_before + 2


class TestRemoveShard:
    def test_drained_blobs_land_on_survivors_with_frontiers_intact(self):
        svm, blob_ids = seeded_coordinator(num_shards=3)
        victim_blobs = [b for b in blob_ids if svm.shard_index(b) == 0]
        before = {b: svm.latest_version(b) for b in blob_ids}
        report = svm.remove_shard(0)
        assert report["moved_blobs"] == len(victim_blobs)
        assert {b: svm.latest_version(b) for b in blob_ids} == before
        assert all(svm.shard_index(b) != 0 for b in blob_ids)
        for blob_id in victim_blobs:
            ticket = svm.register_append(blob_id, 5)
            assert svm.publish(blob_id, ticket.version) == 2

    def test_retired_shard_is_not_served_or_placed_on(self):
        svm, _ = seeded_coordinator(num_shards=3)
        svm.remove_shard(1)
        with pytest.raises(ServiceError):
            svm._serving_shard(1)
        for _ in range(20):
            blob_id = svm.create_blob(chunk_size=64).blob_id
            assert svm.shard_index(blob_id) != 1

    def test_cannot_remove_the_last_shard(self):
        svm, _ = seeded_coordinator(num_shards=1, blobs=4)
        with pytest.raises(ServiceError):
            svm.remove_shard(0)

    def test_remove_by_shard_id(self):
        svm, _ = seeded_coordinator(num_shards=3)
        report = svm.remove_shard("vm-002")
        assert report["index"] == 2


# ---------------------------------------------------------------------------
# Epoch races: stale registrations are retried, never dropped
# ---------------------------------------------------------------------------


class TestEpochRaces:
    def test_commit_guard_rejects_mid_migration_then_retry_succeeds(self):
        from repro.core.membership import _blob_key
        from repro.dht.ring import build_ring

        svm, blob_ids = seeded_coordinator()
        # Pick a blob the pending ring genuinely hands to the newcomer.
        members = [
            svm.shard_ids[i] for i in svm.membership.ring_member_indexes()
        ] + ["vm-999"]
        probe = build_ring(members, virtual_nodes=svm.membership.virtual_nodes)
        target = next(
            b for b in blob_ids if probe.owner(_blob_key(b)) == "vm-999"
        )
        # Open a transition by hand that freezes the target blob.
        svm.membership.begin_join("vm-999", migrating=[target])
        svm.shards.append(VersionManager())
        committed = []

        def writer():
            # The public wrapper retries through the freeze window and
            # completes after the commit below — the registration is
            # delayed, never dropped.
            ticket = svm.register_append(target, 4)
            committed.append(ticket.version)

        thread = threading.Thread(target=writer)
        thread.start()
        time.sleep(0.05)
        assert not committed  # frozen while migrating
        # Stream the blob and commit the epoch (what add_shard does).
        records = svm.shards[svm.membership.owner_index(target)].export_blob_records(
            target
        )
        from repro.resilience.journal import apply_record

        for record in records:
            apply_record(svm.shards[-1], record)
        svm.membership.commit_transition("vm-999 joined")
        thread.join(timeout=5.0)
        assert committed == [2]
        # The commit landed exactly once, on the new owner.
        assert svm.shard_index(target) == len(svm.shards) - 1
        assert svm.pending_versions(target) == [2]

    def test_batch_client_rides_through_a_live_scale_out(self, tmp_path):
        config = BlobSeerConfig(
            num_data_providers=4,
            num_metadata_providers=3,
            num_version_managers=2,
            chunk_size=256,
        )
        with BlobSeerDeployment(config) as deployment:
            client = deployment.client()
            blobs = [client.create_blob() for _ in range(8)]
            for blob in blobs:
                blob.append(b"x" * 64)
            stop = threading.Event()
            errors = []

            def scaler():
                try:
                    deployment.version_manager.add_shard()
                except Exception as exc:  # pragma: no cover - fails the test
                    errors.append(exc)

            thread = threading.Thread(target=scaler)
            thread.start()
            done = 0
            while not stop.is_set():
                with client.batch() as batch:
                    futures = [batch.write(b.blob_id, 0, b"y" * 32) for b in blobs]
                for future in futures:
                    future.result().raise_if_failed()
                done += 1
                if not thread.is_alive() and done >= 3:
                    stop.set()
            thread.join()
            assert not errors
            # Every write of every round published: frontiers are dense.
            for blob in blobs:
                assert blob.latest_version() == 1 + done


# ---------------------------------------------------------------------------
# Randomised concurrent appender storm across add/remove (the satellite)
# ---------------------------------------------------------------------------


class TestMigrationUnderStorm:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_no_commit_lost_or_duplicated_across_scale_out_and_in(self, seed):
        config = BlobSeerConfig(
            num_data_providers=4,
            num_metadata_providers=3,
            num_version_managers=2,
            chunk_size=256,
        )
        rng = random.Random(seed)
        with BlobSeerDeployment(config) as deployment:
            vm = deployment.version_manager
            client = deployment.client()
            blobs = [client.create_blob() for _ in range(10)]
            acked = {blob.blob_id: 0 for blob in blobs}
            acked_lock = threading.Lock()
            errors = []
            stop = threading.Event()

            def appender(worker: int):
                worker_client = deployment.client(f"storm-{worker}")
                local_rng = random.Random(seed * 1000 + worker)
                while not stop.is_set():
                    blob = blobs[local_rng.randrange(len(blobs))]
                    try:
                        worker_client.append(blob.blob_id, b"z" * 16)
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)
                        return
                    with acked_lock:
                        acked[blob.blob_id] += 1

            threads = [
                threading.Thread(target=appender, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            try:
                time.sleep(0.1)
                added = vm.add_shard()
                time.sleep(0.1)
                vm.remove_shard(rng.randrange(2))  # drain one original shard
                time.sleep(0.1)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30.0)
            assert not errors
            assert added["moved_blobs"] >= 0
            for blob in blobs:
                # Zero loss, zero duplication: the frontier equals exactly
                # the number of acknowledged appends...
                assert vm.latest_version(blob.blob_id) == acked[blob.blob_id]
                # ...and the history is dense and monotone: versions
                # 1..frontier each grew the blob by one append.
                history = vm.get_history(blob.blob_id, acked[blob.blob_id])
                assert [record.version for record in history] == list(
                    range(1, acked[blob.blob_id] + 1)
                )
                sizes = [record.new_size for record in history]
                assert sizes == sorted(sizes)
                assert vm.pending_versions(blob.blob_id) == []

    def test_paced_migration_spans_batches_under_appenders(self):
        config = BlobSeerConfig(
            num_data_providers=4,
            num_metadata_providers=3,
            num_version_managers=1,
            chunk_size=256,
        )
        with BlobSeerDeployment(config) as deployment:
            vm = deployment.version_manager
            client = deployment.client()
            blobs = [client.create_blob() for _ in range(80)]
            # One writer per blob, so the thread-side concatenation *is*
            # the blob's expected content (appends to one blob land in
            # version order, not thread order).
            workers = 4
            written = {blob.blob_id: [b"seed;"] for blob in blobs}
            for blob in blobs:
                blob.append(b"seed;")
            errors = []
            stop = threading.Event()

            def appender(worker: int):
                worker_client = deployment.client(f"paced-{worker}")
                mine = [b.blob_id for b in blobs[worker::workers]]
                serial = 0
                while not stop.is_set():
                    blob_id = mine[serial % len(mine)]
                    payload = f"{blob_id}:{serial};".encode()
                    try:
                        worker_client.append(blob_id, payload)
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)
                        return
                    written[blob_id].append(payload)
                    serial += 1

            threads = [
                threading.Thread(target=appender, args=(i,)) for i in range(workers)
            ]
            for thread in threads:
                thread.start()
            try:
                time.sleep(0.1)
                added = vm.add_shard()
                time.sleep(0.1)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30.0)
            assert not errors
            # Half the ring moved — more than one batch, so only the batch
            # being streamed was ever commit-frozen.
            assert added["moved_blobs"] > MIGRATION_BATCH_BLOBS
            expected_batches = -(-added["moved_blobs"] // MIGRATION_BATCH_BLOBS)
            assert vm.membership_report()["migration_batches"] == expected_batches
            moved = [
                b.blob_id for b in blobs if vm.shard_index(b.blob_id) == added["index"]
            ]
            assert len(moved) == added["moved_blobs"]
            for blob in blobs:
                acked = len(written[blob.blob_id])
                assert vm.latest_version(blob.blob_id) == acked
                assert vm.pending_versions(blob.blob_id) == []
                history = vm.get_history(blob.blob_id, acked)
                assert [r.version for r in history] == list(range(1, acked + 1))
                content = b"".join(written[blob.blob_id])
                assert client.read(blob.blob_id, 0, len(content)) == content


# ---------------------------------------------------------------------------
# Membership-aware monitoring surfaces (the shard_reports/distribution fix)
# ---------------------------------------------------------------------------


class TestMembershipReporting:
    def test_shard_reports_carry_epoch_and_status(self):
        svm, _ = seeded_coordinator()
        reports = svm.shard_reports()
        assert all(report["epoch"] == svm.epoch for report in reports)
        assert [report["status"] for report in reports] == ["active", "active"]
        svm.add_shard()
        reports = svm.shard_reports()
        assert all(report["epoch"] == svm.epoch for report in reports)
        assert len(reports) == 3

    def test_blob_distribution_follows_the_current_epoch(self):
        svm, blob_ids = seeded_coordinator(num_shards=3)
        svm.remove_shard(0)
        distribution = svm.blob_distribution()
        # The retired slot is not a key at all; its blobs count against the
        # shards that inherited them.
        assert set(distribution) == {"vm-001", "vm-002"}
        assert sum(distribution.values()) == len(blob_ids)

    def test_failed_over_shard_keeps_its_blobs_in_the_distribution(self):
        svm, blob_ids = seeded_coordinator(durable=True)
        owned = [b for b in blob_ids if svm.shard_index(b) == 0]
        svm.crash_shard(0)
        distribution = svm.blob_distribution()
        # Attribution follows ownership (the down shard), not the standby's
        # host: monitors see the takeover, not a phantom rebalance.
        assert distribution["vm-000"] == len(owned)
        assert sum(distribution.values()) == len(blob_ids)

    def test_monitor_samples_epoch_and_active_count(self):
        cluster = SimulatedBlobSeer(
            BlobSeerConfig(
                num_data_providers=4,
                num_metadata_providers=2,
                num_version_managers=2,
                chunk_size=64 * KB,
            )
        )
        monitor = Monitor(cluster)
        sample = monitor.sample()
        assert sample.coordinator_epoch == 1
        assert sample.vm_active_shards == 2
        cluster.add_coordinator_shard()
        sample = monitor.sample()
        assert sample.coordinator_epoch == 2
        assert sample.vm_active_shards == 3

    def test_retired_slots_do_not_skew_the_imbalance_signal(self):
        cluster = SimulatedBlobSeer(
            BlobSeerConfig(
                num_data_providers=4,
                num_metadata_providers=2,
                num_version_managers=3,
                chunk_size=64 * KB,
            )
        )
        blobs = [cluster.create_blob() for _ in range(12)]
        client = cluster.client()

        def workload():
            for blob in blobs:
                yield from client.append(blob, 64 * KB)

        cluster.env.process(workload(), name="writer")
        cluster.env.run()
        cluster.remove_coordinator_shard(0)
        monitor = Monitor(cluster)
        monitor.sample()  # baseline

        def more():
            for blob in blobs:
                yield from client.append(blob, 64 * KB)

        cluster.env.process(more(), name="writer2")
        cluster.env.run()
        sample = monitor.sample()
        # Two surviving shards committed everything; a perfectly balanced
        # window must not be reported as imbalanced just because the
        # retired slot contributed zero.
        live_commits = [
            c
            for c, report in zip(
                sample.vm_shard_commits, cluster.version_manager.shard_reports()
            )
            if report["status"] != "retired"
        ]
        assert sum(live_commits) == len(blobs)
        assert sample.vm_shard_imbalance < 0.5


# ---------------------------------------------------------------------------
# QoS feedback: scale-out / scale-in actions
# ---------------------------------------------------------------------------


def scaling_sample(backlog, active, commits=None):
    return WindowSample(
        window_start=0.0,
        window_end=10.0,
        live_fraction=1.0,
        client_throughput=100e6,
        failure_rate=0.0,
        write_load=100e6,
        read_load=0.0,
        load_imbalance=0.1,
        vm_shard_commits=tuple(commits or [0] * len(backlog)),
        vm_shard_backlog=tuple(backlog),
        vm_active_shards=active,
    )


class TestScalingFeedback:
    def build(self, num_shards=2, **policy_kwargs):
        cluster = SimulatedBlobSeer(
            BlobSeerConfig(
                num_data_providers=6,
                num_metadata_providers=2,
                num_version_managers=num_shards,
                chunk_size=64 * KB,
            )
        )
        for _ in range(8):
            cluster.create_blob()
        healthy = [
            WindowSample(
                window_start=i * 10.0,
                window_end=(i + 1) * 10.0,
                live_fraction=1.0,
                client_throughput=100e6,
                failure_rate=0.0,
                write_load=100e6,
                read_load=0.0,
                load_imbalance=0.1,
            )
            for i in range(20)
        ]
        model = fit_behavior_model(healthy, n_states=2, seed=2)
        controller = QoSFeedbackController(
            cluster,
            model,
            Monitor(cluster),
            FeedbackPolicy(**policy_kwargs),
        )
        return cluster, controller

    def test_sustained_backlog_triggers_scale_out(self):
        cluster, controller = self.build(
            scale_out_backlog=8.0, scale_out_windows=3
        )
        for _ in range(2):
            controller.evaluate(scaling_sample([40, 40], active=2))
        assert controller.action_counts().get("scale_out") is None
        controller.evaluate(scaling_sample([40, 40], active=2))
        assert controller.action_counts()["scale_out"] == 1
        assert cluster.version_manager.num_shards == 3
        assert cluster.version_manager.epoch == 2
        # A healthy window in between resets the streak.
        controller.evaluate(scaling_sample([40, 40, 40], active=3))
        controller.evaluate(scaling_sample([1, 1, 1], active=3))
        controller.evaluate(scaling_sample([40, 40, 40], active=3))
        assert controller.action_counts()["scale_out"] == 1

    def test_scale_out_respects_max_shards(self):
        cluster, controller = self.build(
            scale_out_backlog=8.0, scale_out_windows=1, max_shards=2
        )
        controller.evaluate(scaling_sample([40, 40], active=2))
        assert controller.action_counts().get("scale_out") is None
        assert cluster.version_manager.num_shards == 2

    def test_sustained_idleness_triggers_scale_in(self):
        cluster, controller = self.build(
            num_shards=3,
            scale_out_backlog=8.0,
            scale_in_idle_windows=2,
            min_shards=2,
        )
        controller.evaluate(scaling_sample([0, 0, 0], active=3, commits=[5, 1, 6]))
        controller.evaluate(scaling_sample([0, 0, 0], active=3, commits=[5, 1, 6]))
        counts = controller.action_counts()
        assert counts["scale_in"] == 1
        # The least-committing active shard drained.
        assert cluster.version_manager.membership.status_of(1) is ShardStatus.RETIRED
        assert cluster.version_manager.membership.active_count() == 2
        # min_shards stops further shrinking.
        controller.evaluate(scaling_sample([0, 0, 0], active=2))
        controller.evaluate(scaling_sample([0, 0, 0], active=2))
        assert controller.action_counts()["scale_in"] == 1

    def test_scaling_disabled_by_default(self):
        cluster, controller = self.build()
        for _ in range(6):
            controller.evaluate(scaling_sample([100, 100], active=2))
        assert controller.action_counts().get("scale_out") is None
        assert cluster.version_manager.num_shards == 2


# ---------------------------------------------------------------------------
# Journal snapshot GC (size/age policies, retention, WAL segments)
# ---------------------------------------------------------------------------


def fill(journal, n, start=0):
    for index in range(start, start + n):
        journal.append("publish", 1, version=index + 1)


class TestJournalSnapshotGC:
    def test_size_policy_triggers_snapshot(self):
        journal = ShardJournal(snapshot_interval=0, snapshot_max_bytes=512)
        assert not journal.snapshot_due()
        fill(journal, 3)
        assert not journal.snapshot_due()
        fill(journal, 20, start=3)
        assert journal.snapshot_due()
        journal.snapshot({"next_blob_id": 1, "blobs": []})
        assert not journal.snapshot_due()  # tail accounting reset

    def test_age_policy_triggers_snapshot_with_injected_clock(self):
        now = [0.0]
        journal = ShardJournal(snapshot_max_age=30.0, clock=lambda: now[0])
        fill(journal, 2)
        assert not journal.snapshot_due()
        now[0] = 31.0
        assert journal.snapshot_due()
        journal.snapshot({"next_blob_id": 1, "blobs": []})
        assert not journal.snapshot_due()
        fill(journal, 1, start=2)
        assert not journal.snapshot_due()  # age restarts with the new tail
        now[0] = 62.0
        assert journal.snapshot_due()

    def test_empty_tail_never_due(self):
        now = [1000.0]
        journal = ShardJournal(
            snapshot_interval=1, snapshot_max_bytes=1, snapshot_max_age=0.1,
            clock=lambda: now[0],
        )
        assert not journal.snapshot_due()

    def test_keep_snapshots_retains_n_and_deletes_older_segments(self, tmp_path):
        journal = ShardJournal(
            shard_id="vm-000", directory=tmp_path, keep_snapshots=2
        )
        for round_index in range(4):
            fill(journal, 5, start=round_index * 5)
            journal.snapshot({"next_blob_id": 1, "blobs": [], "round": round_index})
        snapshots = journal.snapshot_files()
        assert len(snapshots) == 2  # last N retained
        lsns = [int(path.stem.rsplit("-", 1)[1]) for path in snapshots]
        assert lsns == [15, 20]
        # WAL segments at or below the oldest retained snapshot are gone.
        segments = journal.wal_segments()
        assert [int(path.stem.rsplit("-", 1)[1]) for path in segments] == [20]
        assert journal.segments_deleted == 3

    def test_reopen_after_gc_restores_latest_state(self, tmp_path):
        manager = VersionManager()
        journal = ShardJournal(
            shard_id="vm-000", directory=tmp_path, keep_snapshots=3
        )
        manager.journal = journal
        blob = manager.create_blob(chunk_size=16)
        for _ in range(5):
            ticket = manager.register_append(blob.blob_id, 8)
            manager.publish(blob.blob_id, ticket.version)
            journal.snapshot(manager.dump_state())
        ticket = manager.register_append(blob.blob_id, 8)
        manager.publish(blob.blob_id, ticket.version)
        journal.close()
        reopened = ShardJournal.open(tmp_path, shard_id="vm-000", keep_snapshots=3)
        recovered = VersionManager()
        reopened.replay_into(recovered)
        assert recovered.latest_version(blob.blob_id) == 6

    def test_coordinator_forwards_gc_policy_to_created_journals(self, tmp_path):
        svm = ShardedVersionManager(num_shards=2)
        journals = svm.enable_durability(
            directory=str(tmp_path),
            snapshot_interval=8,
            snapshot_max_bytes=4096,
            snapshot_max_age=60.0,
            keep_snapshots=3,
        )
        assert all(j.snapshot_max_bytes == 4096 for j in journals)
        assert all(j.keep_snapshots == 3 for j in journals)
        # add_shard inherits the same policy for the newcomer's journal.
        svm.create_blob(chunk_size=16)
        report = svm.add_shard()
        newcomer = svm.journals[report["index"]]
        assert newcomer.snapshot_max_bytes == 4096
        assert newcomer.snapshot_max_age == 60.0
        assert newcomer.keep_snapshots == 3

    def test_drop_records_replay(self):
        manager = VersionManager()
        journal = ShardJournal()
        manager.journal = journal
        blob = manager.create_blob(chunk_size=16)
        keeper = manager.create_blob(chunk_size=16)
        ticket = manager.register_append(keeper.blob_id, 8)
        manager.publish(keeper.blob_id, ticket.version)
        manager.drop_blob(blob.blob_id)
        recovered = VersionManager()
        journal.replay_into(recovered)
        assert recovered.blob_ids() == [keeper.blob_id]
        assert recovered.latest_version(keeper.blob_id) == 1


# ---------------------------------------------------------------------------
# Scrub pacing: persisted cursor + backpressure
# ---------------------------------------------------------------------------


def seeded_holey_cluster():
    cluster = SimulatedBlobSeer(
        BlobSeerConfig(
            num_data_providers=4,
            num_metadata_providers=4,
            metadata_replication=2,
            chunk_size=4 * KB,
        )
    )
    blob = cluster.create_blob()
    prime_blob(cluster, blob, 4 * KB * 64)
    victim = "meta-001"
    cluster.crash_metadata_provider(victim)
    cluster.recover_metadata_provider(victim, lose_data=True)
    return cluster


class TestScrubPacing:
    def test_incremental_ticks_cover_the_whole_ring(self):
        cluster = seeded_holey_cluster()
        scrubber = AntiEntropyScrubber(cluster.metadata_store, batch_size=8)
        seeded = len(scrubber.under_replicated())
        assert seeded > 0
        ticks = 0
        while True:
            ticks += 1
            tick = scrubber.run_tick(max_batches=2)
            assert tick.batches <= 2
            if tick.completed_pass is not None:
                report = tick.completed_pass
                break
        assert ticks > 1  # genuinely incremental
        total_keys = len(cluster.metadata_store.scan_keys())
        assert report.keys_scanned == total_keys
        assert report.under_replicated >= seeded * 0.9
        # One more (full) pass verifies convergence, cursor reset included.
        assert scrubber.run_pass().clean

    def test_tick_statistics_accumulate_into_one_pass_report(self):
        cluster = seeded_holey_cluster()
        incremental = AntiEntropyScrubber(cluster.metadata_store, batch_size=8)
        while incremental.run_tick(max_batches=3).completed_pass is None:
            pass
        report = incremental.reports[0]
        assert report.repairs == incremental.total_repairs
        assert report.repairs > 0
        assert incremental.run_pass().clean

    def test_backpressure_skips_ticks_under_client_load(self):
        cluster = seeded_holey_cluster()
        cluster.start_scrubber(
            horizon=1.0,
            interval=0.1,
            max_batches_per_tick=2,
            backpressure_rpc_rate=1.0,  # any real client traffic trips it
        )
        blob2 = cluster.create_blob()
        client = cluster.client()

        def busy():
            while cluster.env.now < 0.55:
                yield from client.append(blob2, 4 * KB)

        cluster.env.process(busy(), name="busy-client")
        cluster.env.run()
        # Loaded windows were skipped, quiet windows were not, and the
        # paced walk made real progress once it got to run.
        assert cluster.scrubber.skipped_ticks > 0
        assert cluster.scrubber.ticks > 0
        assert cluster.scrubber.total_repairs > 0

    def test_unpaced_tick_is_the_old_full_pass(self):
        cluster = seeded_holey_cluster()
        paced = AntiEntropyScrubber(cluster.metadata_store, batch_size=8)
        tick = paced.run_tick(max_batches=None)
        assert tick.completed_pass is not None
        assert tick.completed_pass.keys_scanned == len(
            cluster.metadata_store.scan_keys()
        )
