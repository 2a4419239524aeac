"""Tests for the durability & recovery subsystem: shard journals (WAL +
snapshot), coordinator failover via ring-successor standbys, anti-entropy
scrubbing, targeted failure injection and the QoS hooks they feed."""

from __future__ import annotations

import threading

import pytest

from repro.core import BlobSeerConfig, BlobSeerDeployment
from repro.core.errors import ServiceError
from repro.core.version_coordinator import ShardedVersionManager
from repro.core.version_manager import VersionManager, WriteState
from repro.dht import DistributedKeyValueStore
from repro.resilience import (
    AntiEntropyScrubber,
    JournalRecord,
    JournalReplayError,
    ShardJournal,
    StreamedStandby,
    apply_record,
)
from repro.sim import (
    FailureInjector,
    FailureModel,
    NetworkModel,
    SimulatedBlobSeer,
    prime_blob,
    run_multi_blob_appenders,
)


# ---------------------------------------------------------------------------
# ShardJournal: WAL, snapshots, replay
# ---------------------------------------------------------------------------


def drive_manager(manager: VersionManager) -> None:
    """A small but state-rich history: writes, appends, an abort + repair."""
    blob = manager.create_blob(chunk_size=16)
    other = manager.create_blob(chunk_size=32)
    t1 = manager.register_append(blob.blob_id, 64, writer="w1")
    manager.publish(blob.blob_id, t1.version)
    t2 = manager.register_write(blob.blob_id, 0, 16, writer="w2")
    t3 = manager.register_append(blob.blob_id, 8)
    manager.abort(blob.blob_id, t2.version)
    manager.publish(blob.blob_id, t3.version)          # waits behind the abort
    manager.mark_repaired(blob.blob_id, t2.version)    # frontier now advances
    t4 = manager.register_append(other.blob_id, 5)
    manager.publish(other.blob_id, t4.version)


def states_equal(a: VersionManager, b: VersionManager) -> bool:
    return a.dump_state() == b.dump_state()


class TestShardJournal:
    def test_replay_rebuilds_identical_state(self):
        journal = ShardJournal()
        manager = VersionManager()
        manager.journal = journal
        drive_manager(manager)
        rebuilt = VersionManager()
        journal.replay_into(rebuilt)
        assert states_equal(manager, rebuilt)
        assert rebuilt.latest_version(1) == 3
        assert rebuilt.version_state(1, 2) == WriteState.PUBLISHED  # repaired no-op

    def test_every_transition_is_logged(self):
        journal = ShardJournal()
        manager = VersionManager()
        manager.journal = journal
        drive_manager(manager)
        ops = [record.op for record in journal.records()]
        assert ops.count("create") == 2
        assert ops.count("register") == 4
        assert ops.count("abort") == 1
        assert ops.count("repair") == 1
        assert ops.count("publish") == 3
        # lsn is dense and ordered.
        lsns = [record.lsn for record in journal.records()]
        assert lsns == list(range(1, len(lsns) + 1))

    def test_snapshot_compacts_and_replay_still_works(self):
        journal = ShardJournal()
        manager = VersionManager()
        manager.journal = journal
        drive_manager(manager)
        journal.snapshot(manager.dump_state())
        assert len(journal) == 0
        # More activity lands in the WAL tail on top of the snapshot.
        t = manager.register_append(1, 4)
        manager.publish(1, t.version)
        rebuilt = VersionManager()
        assert journal.replay_into(rebuilt) == 2  # register + publish
        assert states_equal(manager, rebuilt)

    def test_auto_snapshot_interval(self):
        journal = ShardJournal(snapshot_interval=5)
        manager = VersionManager()
        manager.journal = journal
        drive_manager(manager)
        assert journal.snapshots >= 1
        assert len(journal) < 5 + 2  # tail stays bounded
        rebuilt = VersionManager()
        journal.replay_into(rebuilt)
        assert states_equal(manager, rebuilt)

    def test_file_backed_journal_reopens(self, tmp_path):
        journal = ShardJournal(shard_id="vm-007", directory=tmp_path)
        manager = VersionManager()
        manager.journal = journal
        drive_manager(manager)
        journal.snapshot(manager.dump_state())
        t = manager.register_append(1, 4)
        manager.publish(1, t.version)
        # A brand-new process: reopen from disk only.
        reopened = ShardJournal.open(tmp_path, shard_id="vm-007")
        rebuilt = VersionManager()
        reopened.replay_into(rebuilt)
        assert states_equal(manager, rebuilt)
        # The reopened journal continues the lsn sequence.
        assert reopened.last_lsn == journal.last_lsn

    def test_membership_records_survive_snapshot_and_reopen(self, tmp_path):
        """Ring state rides the journal: tracked across appends, persisted
        by snapshots (which drop the WAL records carrying it), restored on
        reopen — and invisible to replay (it is not shard state)."""
        journal = ShardJournal(shard_id="vm-000", directory=tmp_path)
        manager = VersionManager()
        manager.journal = journal
        drive_manager(manager)
        state = {"epoch": 4, "reason": "test", "shard_ids": ["vm-000"], "statuses": ["active"]}
        journal.append("membership", 0, **state)
        journal.append("membership", 0, **dict(state, epoch=5))
        assert journal.latest_membership()["epoch"] == 5
        journal.snapshot(manager.dump_state())  # WAL tail (incl. membership) dropped
        assert len(journal) == 0
        reopened = ShardJournal.open(tmp_path, shard_id="vm-000")
        assert reopened.latest_membership() == dict(state, epoch=5)
        rebuilt = VersionManager()
        reopened.replay_into(rebuilt)
        assert states_equal(manager, rebuilt)

    def test_replay_divergence_is_detected(self):
        rebuilt = VersionManager()
        rebuilt.create_blob(chunk_size=16, blob_id=1)
        # A register record whose logged version cannot match (nothing was
        # registered before version 5).
        bogus = JournalRecord(
            lsn=1,
            op="register",
            blob_id=1,
            payload={
                "version": 5,
                "offset": 0,
                "size": 4,
                "is_append": False,
                "writer": None,
            },
        )
        with pytest.raises(JournalReplayError):
            apply_record(rebuilt, bogus)

    def test_unknown_op_rejected(self):
        journal = ShardJournal()
        with pytest.raises(ValueError):
            journal.append("compact", 1)

    def test_ingest_restamps_and_applies(self):
        source = ShardJournal()
        manager = VersionManager()
        manager.journal = source
        drive_manager(manager)
        target = ShardJournal()
        follower = VersionManager()
        adopted = target.ingest(source.records(), apply_to=follower)
        assert states_equal(manager, follower)
        assert [record.lsn for record in adopted] == list(range(1, len(adopted) + 1))


# ---------------------------------------------------------------------------
# Sharded coordinator: durability, failover, restart recovery
# ---------------------------------------------------------------------------


def committed_coordinator(num_shards: int = 4):
    vm = ShardedVersionManager(num_shards=num_shards)
    journals = vm.enable_durability()
    blobs = [vm.create_blob(chunk_size=16) for _ in range(10)]
    for blob in blobs:
        ticket = vm.register_append(blob.blob_id, 32)
        vm.publish(blob.blob_id, ticket.version)
    return vm, journals, blobs


class TestCoordinatorDurability:
    def test_restart_recovers_published_frontiers(self):
        vm, journals, blobs = committed_coordinator()
        restarted = ShardedVersionManager(num_shards=4)
        restarted.recover_from(journals)
        for blob in blobs:
            assert restarted.latest_version(blob.blob_id) == 1
            assert restarted.get_snapshot(blob.blob_id).size == 32
        # Blob-id allocation resumes past every recovered blob.
        new = restarted.create_blob(chunk_size=16)
        assert new.blob_id > max(blob.blob_id for blob in blobs)

    def test_restart_preserves_pending_versions(self):
        vm, journals, blobs = committed_coordinator()
        pending = vm.register_append(blobs[0].blob_id, 8)  # never published
        restarted = ShardedVersionManager(num_shards=4)
        restarted.recover_from(journals)
        assert restarted.pending_versions(blobs[0].blob_id) == [pending.version]
        assert restarted.latest_version(blobs[0].blob_id) == 1
        # The pending version can still be published after the restart.
        restarted.publish(blobs[0].blob_id, pending.version)
        assert restarted.latest_version(blobs[0].blob_id) == pending.version

    def test_deployment_config_enables_the_journal(self):
        deployment = BlobSeerDeployment(
            BlobSeerConfig(num_version_managers=2, chunk_size=16, journal_enabled=True)
        )
        vm = deployment.version_manager
        assert vm.journals is not None
        assert all(shard.journal is not None for shard in vm.shards)
        client = deployment.client()
        blobs = [client.create_blob() for _ in range(6)]
        for blob in blobs:
            blob.append(b"a" * 32)
            blob.write(8, b"b" * 8)
        frontier = {blob.blob_id: vm.latest_version(blob.blob_id) for blob in blobs}
        index = vm.shard_index(blobs[0].blob_id)
        crashed = vm.shards[index]
        vm.crash_shard(index)
        vm.recover_shard(index)
        # Rebuilt from its journal, not resumed from the old in-memory state.
        assert vm.shards[index] is not crashed
        assert {b.blob_id: vm.latest_version(b.blob_id) for b in blobs} == frontier
        assert blobs[0].read(0, 32) == b"a" * 8 + b"b" * 8 + b"a" * 16

    def test_crash_without_failover_is_unavailable(self):
        vm = ShardedVersionManager(num_shards=2)
        vm.enable_durability(failover=False)
        blob = vm.create_blob(chunk_size=16)
        vm.crash_shard(vm.shard_index(blob.blob_id))
        with pytest.raises(ServiceError):
            vm.register_append(blob.blob_id, 4)

    def test_failover_keeps_committing_and_rejoin_catches_up(self):
        vm, journals, blobs = committed_coordinator()
        dead = vm.shard_index(blobs[0].blob_id)
        owned = [b for b in blobs if vm.shard_index(b.blob_id) == dead]
        vm.crash_shard(dead)
        assert vm.active_shard_index(owned[0].blob_id) == vm.successor_index(dead)
        for blob in owned:
            ticket = vm.register_append(blob.blob_id, 8)
            vm.publish(blob.blob_id, ticket.version)
            assert vm.latest_version(blob.blob_id) == 2
        caught_up = vm.recover_shard(dead)
        assert caught_up == 2 * len(owned)  # register + publish per blob
        for blob in owned:
            # The rejoined primary serves the takeover-era commits...
            assert vm.latest_version(blob.blob_id) == 2
            # ...and keeps accepting new ones.
            ticket = vm.register_append(blob.blob_id, 8)
            vm.publish(blob.blob_id, ticket.version)
            assert vm.latest_version(blob.blob_id) == 3
        assert vm.failovers == 1
        assert vm.recoveries == 1

    def test_blob_created_during_downtime_survives_rejoin(self):
        vm, journals, _ = committed_coordinator()
        # Find a shard and create a blob owned by it while it is down.
        dead = 1
        vm.crash_shard(dead)
        blob = None
        for _ in range(64):
            candidate = vm.create_blob(chunk_size=16)
            if vm.shard_index(candidate.blob_id) == dead:
                blob = candidate
                break
        assert blob is not None, "no candidate blob routed to the dead shard"
        ticket = vm.register_append(blob.blob_id, 4)
        vm.publish(blob.blob_id, ticket.version)
        vm.recover_shard(dead)
        assert vm.latest_version(blob.blob_id) == 1
        assert blob.blob_id in vm.blob_ids()

    def test_journal_replay_after_crash_matches_standby(self):
        vm, journals, blobs = committed_coordinator()
        dead = vm.shard_index(blobs[0].blob_id)
        standby_state = vm.standbys[dead].manager.dump_state()
        vm.crash_shard(dead)
        vm.recover_shard(dead)
        assert vm.shards[dead].dump_state() == standby_state

    def test_bulk_register_with_unreachable_shard_assigns_nothing(self):
        """A cross-shard bulk registration hitting a down shard (no failover)
        fails only that shard's writes: the dead shard assigns nothing, each
        of its writes reports a ``ServiceError``, and the live shard's
        tickets come back."""
        vm = ShardedVersionManager(num_shards=2)
        vm.enable_durability(failover=False)
        blobs = [vm.create_blob(chunk_size=16) for _ in range(8)]
        shard_of = {b.blob_id: vm.shard_index(b.blob_id) for b in blobs}
        assert set(shard_of.values()) == {0, 1}, "need blobs on both shards"
        vm.crash_shard(1)
        batch = [(b.blob_id, [(0, 16), (0, 8)]) for b in blobs]
        results = vm.register_writes_bulk(batch)
        assert len(results) == len(blobs)
        for b, outcomes in zip(blobs, results):
            assert len(outcomes) == 2
            if shard_of[b.blob_id] == 1:
                assert all(isinstance(o, ServiceError) for o in outcomes)
            else:
                assert [o.version for o in outcomes] == [1, 2]
                assert vm.pending_versions(b.blob_id) == [1, 2]
        vm.recover_shard(1)
        for b in blobs:
            if shard_of[b.blob_id] == 1:
                assert vm.pending_versions(b.blob_id) == []

    def test_enable_durability_with_reopened_journals_recovers(self, tmp_path):
        """Handing reopened (lived-in) journals to enable_durability must
        recover the shards from them — never truncate the WALs into a
        snapshot of the empty fresh shards."""
        from repro.resilience import ShardJournal

        vm = ShardedVersionManager(num_shards=2)
        vm.enable_durability(directory=tmp_path)
        blob = vm.create_blob(chunk_size=16)
        ticket = vm.register_append(blob.blob_id, 32)
        vm.publish(blob.blob_id, ticket.version)
        for journal in vm.journals:
            journal.close()
        reopened = [ShardJournal.open(tmp_path, shard_id=s) for s in vm.shard_ids]
        restarted = ShardedVersionManager(num_shards=2)
        restarted.enable_durability(journals=reopened)
        assert restarted.latest_version(blob.blob_id) == 1
        assert restarted.get_snapshot(blob.blob_id).size == 32

    def test_enable_durability_rejects_ambiguous_history(self):
        """A lived-in journal plus a shard that already holds blobs has two
        competing sources of truth: refuse instead of guessing."""
        from repro.core.errors import InvalidConfigError

        vm = ShardedVersionManager(num_shards=1)
        journal = vm.enable_durability(failover=False)[0]
        vm.create_blob(chunk_size=16)
        other = ShardedVersionManager(num_shards=1)
        other.create_blob(chunk_size=16)
        with pytest.raises(InvalidConfigError):
            other.enable_durability(journals=[journal], failover=False)

    def test_batch_isolates_ops_on_an_unreachable_shard(self):
        """The direct-client batch engine: writes routed to a dead shard
        (no failover) fail individually; siblings on live shards commit and
        leave no orphaned pending versions anywhere."""
        from repro.core import BlobSeerDeployment

        config = BlobSeerConfig(
            num_data_providers=4, num_version_managers=2, chunk_size=4096
        )
        with BlobSeerDeployment(config) as deployment:
            vm = deployment.version_manager
            vm.enable_durability(failover=False)
            client = deployment.client()
            blobs = [client.create_blob(chunk_size=4096) for _ in range(8)]
            shard_of = {b.blob_id: vm.shard_index(b.blob_id) for b in blobs}
            assert set(shard_of.values()) == {0, 1}
            vm.crash_shard(1)
            batch = client.batch()
            for b in blobs:
                batch.append(b.blob_id, b"x" * 4096)
            results = batch.submit()
            for b, result in zip(blobs, results):
                if shard_of[b.blob_id] == 0:
                    assert result.ok, result.error
                    assert vm.latest_version(b.blob_id) == 1
                else:
                    assert not result.ok
                    assert isinstance(result.error, ServiceError)
            # No live-shard blob is stuck behind a pending version.
            for b in blobs:
                if shard_of[b.blob_id] == 0:
                    assert vm.pending_versions(b.blob_id) == []

    def test_double_failure_with_filebacked_journals_loses_nothing(self, tmp_path):
        """Shard i fails over to its successor; commits land on the standby;
        then the successor machine dies too (taking the standby's memory
        with it).  With file-backed journals the handoff WAL survives on
        disk, so shard i's recovery folds the takeover-era commits back in
        — zero committed-version loss even across the double failure."""
        vm = ShardedVersionManager(num_shards=4)
        vm.enable_durability(directory=tmp_path)
        blobs = [vm.create_blob(chunk_size=16) for _ in range(10)]
        for b in blobs:
            t = vm.register_append(b.blob_id, 32)
            vm.publish(b.blob_id, t.version)
        dead = vm.shard_index(blobs[0].blob_id)
        owned = [b for b in blobs if vm.shard_index(b.blob_id) == dead]
        vm.crash_shard(dead)
        for b in owned:  # acked during takeover — durable in the handoff WAL
            t = vm.register_append(b.blob_id, 8)
            vm.publish(b.blob_id, t.version)
        host = vm.successor_index(dead)
        vm.crash_shard(host)  # the standby dies with its host
        assert vm.standbys[dead] is None
        with pytest.raises(ServiceError):
            vm.register_append(owned[0].blob_id, 4)  # truly unavailable now
        caught_up = vm.recover_shard(dead)
        assert caught_up == 2 * len(owned)  # recovered from the disk handoff
        for b in owned:
            assert vm.latest_version(b.blob_id) == 2

    def test_standby_is_rebuilt_when_its_host_rejoins(self):
        vm, journals, blobs = committed_coordinator()
        victim = 0
        host = vm.successor_index(victim)
        vm.crash_shard(host)  # kills the standby FOR `victim` too
        assert vm.standbys[victim] is None
        vm.recover_shard(host)
        assert vm.standbys[victim] is not None
        # The rebuilt standby serves a fresh failover of `victim`.
        vm.crash_shard(victim)
        owned = [b for b in blobs if vm.shard_index(b.blob_id) == victim]
        for b in owned:
            t = vm.register_append(b.blob_id, 8)
            vm.publish(b.blob_id, t.version)
            assert vm.latest_version(b.blob_id) == 2

    def test_restart_mid_takeover_detaches_stale_standbys(self):
        """recover_from on a deployment that died while a shard was failed
        over must cut the old standbys off the journals: a stale standby
        stuck in takeover would otherwise reject (and a healthy one
        double-apply) the new deployment's stream."""
        vm, journals, blobs = committed_coordinator()
        dead = vm.shard_index(blobs[0].blob_id)
        vm.crash_shard(dead)  # its standby is now mid-takeover
        ticket = vm.register_append(blobs[0].blob_id, 8)
        vm.publish(blobs[0].blob_id, ticket.version)
        stale_standbys = vm.standbys
        restarted = ShardedVersionManager(num_shards=4)
        restarted.recover_from(journals)
        # The restarted deployment commits freely on every shard...
        for blob in blobs:
            t = restarted.register_append(blob.blob_id, 4)
            restarted.publish(blob.blob_id, t.version)
        # ...and the old standbys saw none of it.  (Some entries are None:
        # the crash invalidated the standby hosted on the dead machine; and
        # some shards own no blobs — so compare deployment-wide totals.)
        assert all(
            old is not new
            for old, new in zip(stale_standbys, restarted.standbys)
            if old is not None
        )
        assert sum(
            s.manager.versions_published for s in stale_standbys if s is not None
        ) < sum(s.manager.versions_published for s in restarted.standbys)

    def test_standby_built_during_a_commit_keeps_it(self, monkeypatch):
        """recover_shard(host) rebuilds the standby of the host's ring
        predecessor while that predecessor keeps committing.  A commit that
        races the standby's bootstrap must reach the replica: the bootstrap
        view and the stream subscription are taken together."""
        from repro.resilience import failover, journal as journal_module

        vm, journals, blobs = committed_coordinator()
        victim = vm.shard_index(blobs[0].blob_id)
        host = vm.successor_index(victim)
        vm.crash_shard(host)  # the victim's standby dies with its host
        racer = []

        def commit():
            ticket = vm.register_append(blobs[0].blob_id, 8)
            vm.publish(blobs[0].blob_id, ticket.version)

        real_apply = journal_module.apply_record

        def racing_apply(manager, record):
            # Only the victim's journal holds records of blobs[0], so this
            # fires inside the rebuild of the victim's standby.
            if not racer and record.blob_id == blobs[0].blob_id:
                racer.append(threading.Thread(target=commit))
                racer[0].start()
                racer[0].join(timeout=0.2)
            real_apply(manager, record)

        monkeypatch.setattr(journal_module, "apply_record", racing_apply)
        monkeypatch.setattr(failover, "apply_record", racing_apply)
        vm.recover_shard(host)
        assert racer, "the standby bootstrap never replayed the victim's blob"
        racer[0].join(timeout=10.0)
        assert not racer[0].is_alive()
        assert vm.latest_version(blobs[0].blob_id) == 2
        assert vm.standbys[victim].manager.dump_state() == vm.shards[victim].dump_state()
        vm.crash_shard(victim)
        assert vm.latest_version(blobs[0].blob_id) == 2

    @pytest.mark.parametrize("file_backed", [False, True], ids=["in-memory", "file-backed"])
    def test_repeated_failover_on_one_shard(self, tmp_path, file_backed):
        """Three crash -> commit on the standby -> recover -> commit cycles on
        one shard: every rejoin re-follows the primary after adopting the
        handoff, so versions stay dense and the replica stays exact."""
        vm = ShardedVersionManager(num_shards=3)
        vm.enable_durability(directory=tmp_path if file_backed else None)
        blobs = [vm.create_blob(chunk_size=16) for _ in range(12)]
        victim = vm.shard_index(blobs[0].blob_id)
        owned = [b for b in blobs if vm.shard_index(b.blob_id) == victim]

        def commit_owned():
            for b in owned:
                ticket = vm.register_append(b.blob_id, 8)
                vm.publish(b.blob_id, ticket.version)

        for cycle in range(1, 4):
            vm.crash_shard(victim)
            commit_owned()  # served by the standby
            assert vm.recover_shard(victim) == 2 * len(owned)
            assert vm.standbys[victim].manager.dump_state() == vm.shards[victim].dump_state()
            commit_owned()
            for b in owned:
                latest = vm.latest_version(b.blob_id)
                assert latest == 2 * cycle
                history = vm.get_history(b.blob_id, latest)
                assert [record.version for record in history] == list(range(1, latest + 1))
            assert vm.standbys[victim].manager.dump_state() == vm.shards[victim].dump_state()
        assert (vm.failovers, vm.recoveries) == (3, 3)

    def test_active_index_stays_home_without_serving_standby(self):
        vm = ShardedVersionManager(num_shards=3)
        vm.enable_durability(failover=False)
        blob = vm.create_blob(chunk_size=16)
        home = vm.shard_index(blob.blob_id)
        vm.crash_shard(home)
        # No standby serves the blob: requests go to (and are charged at)
        # the dead machine, not an unrelated live shard.
        assert vm.active_shard_index(blob.blob_id) == home

    def test_active_index_stays_home_when_successor_also_down(self):
        vm, journals, blobs = committed_coordinator()
        home = vm.shard_index(blobs[0].blob_id)
        vm.crash_shard(home)
        vm.crash_shard(vm.successor_index(home))
        assert vm.active_shard_index(blobs[0].blob_id) == home
        with pytest.raises(ServiceError):
            vm.register_append(blobs[0].blob_id, 4)

    def test_avoid_shards_steers_new_blobs(self):
        vm = ShardedVersionManager(num_shards=4)
        hot = 2
        for _ in range(20):
            blob = vm.create_blob(chunk_size=16, avoid_shards=[hot])
            assert vm.shard_index(blob.blob_id) != hot

    def test_avoid_all_shards_is_ignored(self):
        vm = ShardedVersionManager(num_shards=2)
        blob = vm.create_blob(chunk_size=16, avoid_shards=[0, 1])
        assert blob.blob_id >= 1  # still allocated somewhere

    def test_single_manager_accepts_and_ignores_avoid_hint(self):
        manager = VersionManager()
        blob = manager.create_blob(chunk_size=16, avoid_shards=[0])
        assert blob.blob_id == 1


class TestStreamedStandby:
    def test_takeover_after_primary_rejoin_does_not_reapply_the_handoff(self, tmp_path):
        """The process rejoin, step by step: the standby resigns, the
        primary re-stamps the standby's handoff into its WAL, and dies
        again before the standby's next pull.  The next takeover must not
        apply those records on top of the replica that produced them."""
        primary = VersionManager()
        journal = ShardJournal(shard_id="vm-000", directory=tmp_path)
        journal.snapshot(primary.dump_state())
        primary.journal = journal
        blob = primary.create_blob(chunk_size=16)
        ticket = primary.register_append(blob.blob_id, 16)
        primary.publish(blob.blob_id, ticket.version)
        standby = StreamedStandby("vm-000")
        standby.apply_batch("boot-1", journal.stream_state(bootstrap=True))
        journal.close()  # the primary dies
        standby.take_over(tmp_path)
        ticket = standby.manager.register_append(blob.blob_id, 16)
        standby.manager.publish(blob.blob_id, ticket.version)
        standby.resign()
        # The primary reboots: WAL replay, then the handoff re-stamped as
        # lsns 4-5 ...
        rejoined = VersionManager()
        reopened = ShardJournal.open(tmp_path, shard_id="vm-000")
        reopened.replay_into(rejoined)
        rejoined.journal = reopened
        handoff = ShardJournal.open(tmp_path, shard_id="vm-000-handoff")
        adopted = reopened.ingest(handoff.records(), apply_to=rejoined)
        handoff.discard_files()
        assert [record.lsn for record in adopted] == [4, 5]
        reopened.close()  # ... and dies before the standby pulls again.
        standby.take_over(tmp_path)
        assert standby.manager.latest_version(blob.blob_id) == 2
        assert standby.manager.dump_state() == rejoined.dump_state()


# ---------------------------------------------------------------------------
# Anti-entropy scrubber
# ---------------------------------------------------------------------------


def seeded_store(n: int = 4, replication: int = 3, keys: int = 120):
    store = DistributedKeyValueStore(
        [f"m{i}" for i in range(n)], virtual_nodes=8, replication=replication
    )
    for index in range(keys):
        store.put(("node", index), {"payload": index})
    return store


class TestAntiEntropyScrubber:
    def test_converges_seeded_under_replication_within_three_passes(self):
        store = seeded_store()
        store.fail_provider("m2")
        store.recover_provider("m2", lose_data=True)
        scrubber = AntiEntropyScrubber(store, batch_size=16)
        assert scrubber.under_replicated()
        passes = scrubber.run_until_converged(max_passes=3)
        assert passes <= 3
        assert not scrubber.under_replicated()
        assert store.store_of("m2").repairs > 0

    def test_clean_ring_pass_repairs_nothing(self):
        store = seeded_store()
        scrubber = AntiEntropyScrubber(store, batch_size=16)
        report = scrubber.run_pass()
        assert report.clean
        assert report.repairs == 0
        assert report.keys_scanned == 120

    def test_scrub_counts_unrecoverable_keys(self):
        store = DistributedKeyValueStore(["m0", "m1"], virtual_nodes=8, replication=1)
        for index in range(40):
            store.put(("node", index), index)
        # Wipe one provider while it is up: its keys now exist nowhere,
        # but the other provider's keys still list it... they do not — with
        # replication=1 each key has exactly one owner, so wiped keys
        # simply vanish from the scan: the scrubber sees a clean ring.
        store.store_of("m0").clear()
        scrubber = AntiEntropyScrubber(store)
        report = scrubber.run_pass()
        assert report.clean

    def test_scan_keys_is_ring_ordered_and_deduplicated(self):
        store = seeded_store(keys=50)
        keys = store.scan_keys()
        assert len(keys) == 50
        assert len(set(keys)) == 50
        from repro.dht.hashing import ring_position

        positions = [ring_position(key) for key in keys]
        assert positions == sorted(positions)

    def test_re_replicate_reports_installed_copies(self):
        store = seeded_store(keys=30)
        store.fail_provider("m1")
        store.recover_provider("m1", lose_data=True)
        scrubber = AntiEntropyScrubber(store, batch_size=8)
        report = scrubber.run_pass()
        assert report.under_replicated > 0
        # get_many's incidental read repair + explicit re-replication cover
        # every hole found.
        assert report.repairs + store.store_of("m1").repairs >= report.under_replicated

    def test_non_convergence_raises(self):
        store = seeded_store()
        store.fail_provider("m2")
        store.recover_provider("m2", lose_data=True)

        class NeverHealsStore:
            """Forwards everything but silently drops repairs."""

            def __init__(self, backend):
                self._backend = backend

            def __getattr__(self, name):
                return getattr(self._backend, name)

            def re_replicate(self, values, missing_at):
                return 0

            def get_many(self, keys):
                # Bypass the real get_many's read repair too.
                found = {}
                for key in keys:
                    for pid in self._backend.live_owners(key):
                        if key in self._backend.store_of(pid):
                            found[key] = self._backend.store_of(pid).get(key)
                            break
                return found

        scrubber = AntiEntropyScrubber(NeverHealsStore(store), batch_size=16)
        with pytest.raises(RuntimeError):
            scrubber.run_until_converged(max_passes=3)


# ---------------------------------------------------------------------------
# Targeted failure injection
# ---------------------------------------------------------------------------


def small_cluster(**overrides) -> SimulatedBlobSeer:
    config = BlobSeerConfig(
        num_data_providers=6,
        num_metadata_providers=4,
        num_version_managers=4,
        metadata_replication=2,
        chunk_size=4096,
        journal_enabled=True,
        **overrides,
    )
    return SimulatedBlobSeer(config)


class TestTargetedFailureInjection:
    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            FailureModel(target="network")

    def test_default_target_crashes_data_providers(self):
        cluster = small_cluster()
        injector = FailureInjector(cluster, FailureModel(seed=3, mean_time_between_failures=0.2))
        injector.start(horizon=2.0)
        cluster.env.run(until=2.0)
        assert injector.crash_count() > 0
        assert all(event.provider_id.startswith("provider-") for event in injector.events)

    def test_metadata_target_crashes_metadata_providers(self):
        cluster = small_cluster()
        model = FailureModel(
            seed=3, mean_time_between_failures=0.2, target="metadata",
            recover_with_data=False,
        )
        injector = FailureInjector(cluster, model)
        injector.start(horizon=2.0)
        cluster.env.run(until=2.0)
        assert injector.crash_count() > 0
        assert all(event.provider_id.startswith("meta-") for event in injector.events)

    def test_coordinator_target_crashes_shards(self):
        cluster = small_cluster()
        model = FailureModel(seed=3, mean_time_between_failures=0.2, target="coordinator")
        injector = FailureInjector(cluster, model)
        injector.start(horizon=2.0)
        cluster.env.run(until=2.0)
        assert injector.crash_count() > 0
        assert all(event.provider_id.startswith("vm-") for event in injector.events)

    def test_schedule_is_deterministic_per_seed(self):
        def run_once():
            cluster = small_cluster()
            model = FailureModel(
                seed=11, mean_time_between_failures=0.15, target="coordinator"
            )
            injector = FailureInjector(cluster, model)
            injector.start(horizon=3.0)
            cluster.env.run(until=3.0)
            return [(e.time, e.action, e.provider_id) for e in injector.events]

        assert run_once() == run_once()

    def test_min_live_respected_for_coordinator_shards(self):
        cluster = small_cluster()
        model = FailureModel(
            seed=5,
            mean_time_between_failures=0.01,
            mean_repair_time=100.0,  # crashed shards stay down
            target="coordinator",
            min_live_providers=3,
        )
        injector = FailureInjector(cluster, model)
        injector.start(horizon=1.0)
        cluster.env.run(until=1.0)
        assert len(cluster.live_coordinator_shards()) >= 3


# ---------------------------------------------------------------------------
# Simulated cluster: durable commits, failover charging, scrub process
# ---------------------------------------------------------------------------


class TestSimulatedDurability:
    def test_coordinator_crash_mid_storm_loses_nothing(self):
        cluster = small_cluster()
        blobs = [cluster.create_blob() for _ in range(6)]
        dead = cluster.version_manager.shard_index(blobs[0].blob_id)

        def chaos():
            yield cluster.env.timeout(0.02)
            cluster.crash_coordinator_shard(dead)
            yield cluster.env.timeout(0.2)
            cluster.recover_coordinator_shard(dead)

        cluster.env.process(chaos(), name="chaos")
        run_multi_blob_appenders(cluster, blobs, 12, append_size=4096, appends_per_client=4)
        assert all(record.ok for record in cluster.metrics.records)
        for index, blob in enumerate(blobs):
            expected = sum(4 for c in range(12) if c % len(blobs) == index)
            assert cluster.version_manager.latest_version(blob.blob_id) == expected

    def test_chaos_without_failover_degrades_instead_of_crashing(self):
        """Random coordinator crashes with failover off: operations caught
        in an outage fail and are recorded, never killing their client
        process — every op is accounted for."""
        cluster = small_cluster(shard_failover=False)
        blobs = [cluster.create_blob() for _ in range(4)]
        injector = FailureInjector(
            cluster,
            FailureModel(
                seed=4,
                mean_time_between_failures=0.05,
                mean_repair_time=0.1,
                target="coordinator",
                min_live_providers=1,
            ),
        )
        injector.start(horizon=10.0)
        run_multi_blob_appenders(cluster, blobs, 8, append_size=4096, appends_per_client=6)
        assert injector.crash_count() > 0
        assert len(cluster.metrics.records) == 48  # nothing vanished

    def test_failover_charges_the_successor_machine(self):
        cluster = small_cluster()
        blob = cluster.create_blob()
        home = cluster.version_manager.shard_index(blob.blob_id)
        cluster.crash_coordinator_shard(home)
        successor = cluster.version_manager.successor_index(home)
        assert cluster.version_node_for(blob.blob_id) is (
            cluster.version_manager_nodes[successor]
        )
        cluster.recover_coordinator_shard(home)
        assert cluster.version_node_for(blob.blob_id) is (
            cluster.version_manager_nodes[home]
        )

    def test_journaling_costs_simulated_time(self):
        def makespan(journal_enabled: bool) -> float:
            config = BlobSeerConfig(
                num_data_providers=6,
                num_version_managers=2,
                chunk_size=4096,
                journal_enabled=journal_enabled,
            )
            cluster = SimulatedBlobSeer(config, model=NetworkModel(journal_service=5e-3))
            blobs = [cluster.create_blob() for _ in range(4)]
            return run_multi_blob_appenders(
                cluster, blobs, 8, append_size=4096, appends_per_client=2
            ).makespan

        assert makespan(True) > makespan(False)

    def test_scrubber_process_converges_and_charges_rounds(self):
        cluster = SimulatedBlobSeer(
            BlobSeerConfig(
                num_metadata_providers=5,
                metadata_replication=3,
                chunk_size=4096,
            )
        )
        blob = cluster.create_blob()
        prime_blob(cluster, blob, 4096 * 32)
        cluster.crash_metadata_provider("meta-001")
        cluster.recover_metadata_provider("meta-001", lose_data=True)
        rounds_before = cluster.metadata_rounds
        cluster.start_scrubber(horizon=2.0, interval=0.5)
        cluster.run()
        assert not cluster.scrubber.under_replicated()
        assert cluster.scrubber.total_repairs + cluster.metadata_store.store_of(
            "meta-001"
        ).repairs > 0
        assert cluster.metadata_rounds > rounds_before
        assert cluster.scrub_node.report()["uplink_bytes"] > 0

    def test_metadata_crash_recover_logged(self):
        cluster = small_cluster()
        cluster.crash_metadata_provider("meta-000")
        assert "meta-000" not in cluster.live_metadata_providers()
        cluster.recover_metadata_provider("meta-000")
        assert "meta-000" in cluster.live_metadata_providers()
        actions = [(action, target) for _, action, target in cluster.failure_log]
        assert ("crash", "meta-000") in actions
        assert ("recover", "meta-000") in actions


# ---------------------------------------------------------------------------
# QoS hooks: scrub/recovery window counters, hot-shard placement steering
# ---------------------------------------------------------------------------


def hot_sample(hot_shard, imbalance=1.0, backlog=9):
    from repro.qos import WindowSample

    depths = [0, 0, 0, 0]
    if hot_shard is not None:
        depths[hot_shard] = backlog
    return WindowSample(
        window_start=0.0,
        window_end=10.0,
        live_fraction=1.0,
        client_throughput=100e6,
        failure_rate=0.0,
        write_load=100e6,
        read_load=0.0,
        load_imbalance=0.1,
        vm_shard_backlog=tuple(depths),
        vm_shard_imbalance=imbalance if hot_shard is not None else 0.0,
    )


class TestQoSDurabilityHooks:
    def make_controller(self, num_shards: int = 4):
        from repro.qos import (
            FeedbackPolicy,
            Monitor,
            QoSFeedbackController,
        )

        class CalmModel:
            """Nothing ever classifies as dangerous: isolates the hot-shard
            logic from the replication-boost logic."""

            dangerous_states: list = []

            def classify(self, sample):
                return 0

            def danger_probability(self, state):
                return 0.0

        cluster = small_cluster()
        controller = QoSFeedbackController(
            cluster,
            CalmModel(),
            Monitor(cluster),
            FeedbackPolicy(hot_shard_windows=3, recovery_windows=2),
        )
        return cluster, controller

    def test_persistently_hot_shard_triggers_steering(self):
        cluster, controller = self.make_controller()
        for _ in range(3):
            controller.evaluate(hot_sample(2))
        assert 2 in cluster.avoid_vm_shards
        assert controller.action_counts().get("steer_placement") == 1
        # New blobs avoid the hot shard from now on.
        for _ in range(10):
            blob = cluster.create_blob()
            assert cluster.version_manager.shard_index(blob.blob_id) != 2

    def test_briefly_hot_shard_is_not_steered(self):
        cluster, controller = self.make_controller()
        controller.evaluate(hot_sample(2))
        controller.evaluate(hot_sample(1))  # hottest moved: streak resets
        controller.evaluate(hot_sample(2))
        assert not cluster.avoid_vm_shards

    def test_low_imbalance_does_not_count(self):
        cluster, controller = self.make_controller()
        for _ in range(5):
            controller.evaluate(hot_sample(2, imbalance=0.1))
        assert not cluster.avoid_vm_shards

    def test_cooled_shard_is_released(self):
        cluster, controller = self.make_controller()
        for _ in range(3):
            controller.evaluate(hot_sample(2))
        assert 2 in cluster.avoid_vm_shards
        for _ in range(2):
            controller.evaluate(hot_sample(None))
        assert not cluster.avoid_vm_shards
        assert controller.action_counts().get("release_placement") == 1

    def test_steering_never_avoids_every_shard(self):
        cluster, controller = self.make_controller()
        for shard in range(4):
            controller._hot_shard = None
            controller._hot_streak = 0
            for _ in range(3):
                controller.evaluate(hot_sample(shard))
        assert len(cluster.avoid_vm_shards) <= 3

    def test_monitor_samples_scrub_repairs_and_recoveries(self):
        from repro.qos import Monitor

        cluster = SimulatedBlobSeer(
            BlobSeerConfig(
                num_metadata_providers=5,
                metadata_replication=3,
                chunk_size=4096,
            )
        )
        blob = cluster.create_blob()
        prime_blob(cluster, blob, 4096 * 32)
        monitor = Monitor(cluster)
        first = monitor.sample()
        assert first.scrub_repairs == 0
        assert first.recoveries == 0
        cluster.crash_metadata_provider("meta-001")
        cluster.recover_metadata_provider("meta-001", lose_data=True)
        scrubber = AntiEntropyScrubber(cluster.metadata_store, batch_size=16)
        scrubber.run_until_converged(max_passes=3)
        second = monitor.sample()
        assert second.scrub_repairs > 0
        assert second.recoveries == 1
        third = monitor.sample()
        assert third.scrub_repairs == 0  # deltas, not totals
        assert third.recoveries == 0
