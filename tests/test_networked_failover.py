"""Networked coordinator failover: standbys, heartbeats, chaos — over processes.

Every test here runs against a journal-backed :class:`ProcessDeployment`
with one ``--role standby`` process per coordinator shard (except the
pure restart-from-journal case, which disables them).  Covered:

* standby takeover after a SIGKILLed coordinator shard — the monitor's
  K-miss detector promotes the standby, committed versions survive with
  no loss and no duplicates, and the standby itself serves new commits;
* journal-stream resume — a killed-and-respawned standby bootstraps from
  the primary's snapshot (late joiner) and then follows incrementally;
* client-side epoch re-routing — a *fresh* client that has never heard of
  the failure learns the takeover epoch over the wire (``membership``
  refresh) and retries against the standby instead of failing;
* coordinator restart-from-journal over real processes (SIGTERM, respawn
  with the same ``--journal-dir``): replayed frontier and journaled
  membership epoch match the pre-kill values;
* :class:`ChaosSchedule` determinism and :class:`ClusterMonitor`
  detection units (no cluster needed).
"""

from __future__ import annotations

import os
import time


from repro.core import BlobSeerConfig
from repro.core.deployment import make_deployment
from repro.core.errors import ServiceError
from repro.core.membership import ShardStatus
from repro.core.version_manager import VersionManager
from repro.net import ChaosEvent, ChaosSchedule, ClusterMonitor, ProcessDeployment
from repro.net.proxies import RemoteCoordinator
from repro.net.server import _manager_surface

CHUNK = 16 * 1024


def _failover_config(**overrides):
    base = dict(
        num_data_providers=3,
        num_metadata_providers=2,
        num_version_managers=2,
        chunk_size=CHUNK,
        replication=1,
        transport="network",
        journal_enabled=True,
        # Detect fast in tests; production tunes these up.
        net_heartbeat_interval=0.1,
        net_failover_suspect_after=3,
        net_standby_per_shard=1,
        net_max_retries=0,
        net_backoff_base=0.01,
        net_connect_timeout=5.0,
        net_request_timeout=30.0,
        net_codec=os.environ.get("REPRO_NET_CODEC", "json"),
    )
    base.update(overrides)
    return BlobSeerConfig(**base)


def _deployment(**overrides) -> ProcessDeployment:
    dep = make_deployment(_failover_config(**overrides))
    assert isinstance(dep, ProcessDeployment)
    return dep


def _wait(predicate, timeout: float = 10.0, interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestStandbyTakeover:
    def test_kill_coordinator_standby_serves_without_loss(self):
        with _deployment() as dep:
            client = dep.client()
            blob = dep.create_blob()
            shard = dep.version_manager.shard_index(blob.blob_id)
            payload = b"a" * CHUNK
            pre_kill = 8
            for _ in range(pre_kill):
                client.append(blob.blob_id, payload)

            dep.kill_coordinator_shard(shard)
            # Appends during the outage stall briefly (monitor detection +
            # takeover + client re-route), then land on the standby.
            post_kill = 4
            for _ in range(post_kill):
                client.append(blob.blob_id, payload)

            # Zero loss, zero duplication: the version frontier is exactly
            # the number of committed appends and the bytes read back.
            total = pre_kill + post_kill
            assert dep.version_manager.latest_version(blob.blob_id) == total
            assert client.read(blob.blob_id, 0, total * CHUNK) == payload * total

            standby = dep.version_manager._standbys[shard]
            status = standby.call("standby_status")
            assert status["taking_over"] is True
            assert status["commits_served"] >= post_kill
            kinds = [e.kind for e in dep.monitor.events]
            assert "suspect" in kinds and "takeover" in kinds
            # The takeover bumped the shared membership epoch and marked
            # the shard DOWN (ring slot kept: routing must not move blobs).
            membership = dep.version_manager.membership
            assert membership.status_of(shard) == ShardStatus.DOWN
            assert membership.epoch > 1

    def test_rejoin_returns_shard_to_primary(self):
        with _deployment() as dep:
            client = dep.client()
            blob = dep.create_blob()
            shard = dep.version_manager.shard_index(blob.blob_id)
            payload = b"b" * CHUNK
            client.append(blob.blob_id, payload)
            dep.kill_coordinator_shard(shard)
            client.append(blob.blob_id, payload)  # served by the standby

            dep.restart_coordinator_shard(shard)
            assert dep.version_manager.membership.status_of(shard) == ShardStatus.ACTIVE
            # The respawned primary replayed its WAL and ingested the
            # standby's handoff journal: nothing the standby committed in
            # the outage window is lost.
            client.append(blob.blob_id, payload)
            assert dep.version_manager.latest_version(blob.blob_id) == 3
            assert client.read(blob.blob_id, 0, 3 * CHUNK) == payload * 3
            # The standby resigned and is following the new primary again.
            status = dep.version_manager._standbys[shard].call("standby_status")
            assert status["taking_over"] is False


class TestJournalStreamResume:
    def test_respawned_standby_bootstraps_then_follows(self):
        with _deployment() as dep:
            client = dep.client()
            blob = dep.create_blob()
            shard = dep.version_manager.shard_index(blob.blob_id)
            payload = b"c" * CHUNK
            client.append(blob.blob_id, payload)

            dep.kill_standby(shard)
            # Commits made while no standby is listening must still reach
            # the respawned one (snapshot bootstrap covers the gap).
            client.append(blob.blob_id, payload)
            dep.restart_standby(shard)
            standby = dep.version_manager._standbys[shard]

            def caught_up():
                primary_lsn = dep.version_manager._rpcs[shard].call(
                    "journal_stream", {"after_lsn": 1 << 60}
                )["last_lsn"]
                return standby.call("standby_status")["applied_lsn"] >= primary_lsn

            assert _wait(caught_up), "standby never caught up after respawn"
            status = standby.call("standby_status")
            assert status["bootstraps"] == 1  # late joiner: snapshot, once

            # Incremental resume: new commits arrive as records, not as
            # another snapshot bootstrap.
            client.append(blob.blob_id, payload)
            assert _wait(caught_up)
            assert standby.call("standby_status")["bootstraps"] == 1

            # The resumed standby is a correct takeover target.
            dep.kill_coordinator_shard(shard)
            client.append(blob.blob_id, payload)
            assert dep.version_manager.latest_version(blob.blob_id) == 4
            assert client.read(blob.blob_id, 0, 4 * CHUNK) == payload * 4


class TestClientEpochRerouting:
    def test_fresh_client_learns_takeover_epoch_over_the_wire(self):
        with _deployment() as dep:
            client = dep.client()
            blob = dep.create_blob()
            shard = dep.version_manager.shard_index(blob.blob_id)
            payload = b"d" * CHUNK
            client.append(blob.blob_id, payload)

            dep.kill_coordinator_shard(shard)
            assert _wait(lambda: dep.monitor.takeovers >= 1), "no takeover happened"

            # A second routing mirror that never saw the failure: its first
            # call hits the dead primary, catches the connection error,
            # refreshes membership over the wire, and retries the standby.
            late = RemoteCoordinator(
                [
                    dep._rpc(dep._addrs[("coordinator", index)])
                    for index in range(dep.config.num_version_managers)
                ],
                virtual_nodes=dep.config.dht_virtual_nodes,
                standby_rpcs=[
                    dep._rpc(dep._addrs[("standby", index)])
                    for index in range(dep.config.num_version_managers)
                ],
            )
            assert late.membership.epoch == 1
            assert late.latest_version(blob.blob_id) == 1
            assert late.reroutes > 0
            assert late.membership.status_of(shard) == ShardStatus.DOWN
            assert late.membership.epoch == dep.version_manager.membership.epoch

    def test_deployment_client_reroutes_during_outage(self):
        with _deployment() as dep:
            client = dep.client()
            blob = dep.create_blob()
            shard = dep.version_manager.shard_index(blob.blob_id)
            before = dep.version_manager.reroutes
            dep.kill_coordinator_shard(shard)
            client.append(blob.blob_id, b"e" * CHUNK)
            assert dep.version_manager.reroutes > before


class _ResolvedFuture:
    def __init__(self, value):
        self._value = value

    def result(self, timeout=None):
        return self._value


class _ShardStub:
    """An in-process coordinator shard behind the two RpcClient calls the
    registration path uses."""

    def __init__(self, manager: VersionManager) -> None:
        self.manager = manager

    def submit(self, method, params=None):
        return _ResolvedFuture(self.call(method, params))

    def call(self, method, params=None):
        if method == "membership":
            return None
        assert method == "register_writes_bulk"
        batches = [
            (blob_id, [tuple(span) for span in spans])
            for blob_id, spans in params["batches"]
        ]
        return self.manager.register_writes_bulk(batches, writer=params["writer"])


class _DeadStub:
    def submit(self, method, params=None):
        raise ConnectionError("shard process is gone")

    call = submit


class TestRemoteShardIsolation:
    def test_unreachable_shard_fails_only_its_writes(self):
        """A cross-shard bulk registration with one shard unreachable after
        every re-route: the dead shard's writes get ``ServiceError``
        outcomes and the live shard's tickets come back."""
        live = VersionManager()
        coordinator = RemoteCoordinator(
            [_ShardStub(live), _DeadStub()],
            reroute_retries=2,
            reroute_backoff=0.0,
            reroute_backoff_max=0.0,
        )
        live_ids = [b for b in range(1, 50) if coordinator.shard_index(b) == 0][:2]
        dead_ids = [b for b in range(1, 50) if coordinator.shard_index(b) == 1][:2]
        assert len(live_ids) == len(dead_ids) == 2
        for blob_id in live_ids:
            live.create_blob(chunk_size=16, blob_id=blob_id)
        batches = [
            (live_ids[0], [(0, 16)]),
            (dead_ids[0], [(0, 16), (0, 8)]),
            (live_ids[1], [(0, 16), (0, 8)]),
            (dead_ids[1], [(0, 16)]),
        ]
        results = coordinator.register_writes_bulk(batches, writer="w")
        assert [len(outcomes) for outcomes in results] == [1, 2, 2, 1]
        for (blob_id, _), outcomes in zip(batches, results):
            if blob_id in dead_ids:
                assert all(isinstance(o, ServiceError) for o in outcomes)
            else:
                assert [o.version for o in outcomes] == list(
                    range(1, len(outcomes) + 1)
                )
        assert coordinator.reroutes == 2  # one dead-shard round, two attempts



class _LostReply:
    def result(self, timeout=None):
        raise ConnectionError("reply lost")


class _LostAckShard:
    """A coordinator shard's data plane whose first registration is applied
    but whose reply is lost; it logs each registration's writer token and
    reconcile flag."""

    def __init__(self, manager: VersionManager) -> None:
        self.handlers = _manager_surface(lambda: manager)
        self.registrations = []

    def submit(self, method, params=None):
        if method == "membership":
            return _ResolvedFuture(None)
        reply = self.handlers[method](**params)
        self.registrations.append((params["writer"], params.get("reconcile", False)))
        if len(self.registrations) == 1:
            return _LostReply()
        return _ResolvedFuture(reply)

    def call(self, method, params=None):
        return self.submit(method, params).result()


class TestLostRegistrationAck:
    """A registration applied by the shard but whose reply is lost is
    retried with ``reconcile`` under the same writer token: the shard
    answers with the tickets it already assigned, never new ones."""

    def _coordinator(self):
        manager = VersionManager()
        manager.create_blob(chunk_size=16, blob_id=1)
        shard = _LostAckShard(manager)
        coordinator = RemoteCoordinator(
            [shard], reroute_backoff=0.0, reroute_backoff_max=0.0
        )
        return manager, shard, coordinator

    @staticmethod
    def _assert_reconciled_once(shard):
        (first_writer, first_reconcile), (second_writer, second_reconcile) = (
            shard.registrations
        )
        assert (first_reconcile, second_reconcile) == (False, True)
        assert first_writer == second_writer

    def test_bulk_registration_reconciles(self):
        manager, shard, coordinator = self._coordinator()
        [tickets] = coordinator.register_writes_bulk(
            [(1, [(0, 16), (0, 8)])], writer="w"
        )
        assert [ticket.version for ticket in tickets] == [1, 2]
        assert manager.writes_registered == 2
        self._assert_reconciled_once(shard)

    def test_append_registration_reconciles(self):
        manager, shard, coordinator = self._coordinator()
        ticket = coordinator.register_append(1, 16, writer="w")
        assert ticket.version == 1
        assert manager.writes_registered == 1
        self._assert_reconciled_once(shard)


class TestRestartFromJournal:
    def test_sigterm_respawn_recovers_frontier_and_epoch(self):
        # No standbys: this is the pure crash-restart durability path —
        # the respawned process must rebuild everything from its WAL.
        with _deployment(net_standby_per_shard=0) as dep:
            assert not dep.with_standbys
            client = dep.client()
            blobs = [dep.create_blob() for _ in range(3)]
            payload = b"f" * CHUNK
            for blob in blobs:
                client.append(blob.blob_id, payload)
                client.append(blob.blob_id, payload)
            frontier = {b.blob_id: dep.version_manager.latest_version(b.blob_id) for b in blobs}
            shards = {dep.version_manager.shard_index(b.blob_id) for b in blobs}
            pre_state = {
                shard: dep.version_manager._rpcs[shard].call("membership")
                for shard in shards
            }

            for shard in shards:
                dep.restart_coordinator_shard(shard, graceful=True)

            for blob in blobs:
                assert dep.version_manager.latest_version(blob.blob_id) == frontier[blob.blob_id]
                assert client.read(blob.blob_id, 0, 2 * CHUNK) == payload * 2
            for shard in shards:
                post = dep.version_manager._rpcs[shard].call("membership")
                assert post is not None, "membership journal entry lost on restart"
                assert post["epoch"] >= pre_state[shard]["epoch"]
                assert post["shard_ids"] == pre_state[shard]["shard_ids"]
            # The restarted shards still commit.
            client.append(blobs[0].blob_id, payload)
            assert dep.version_manager.latest_version(blobs[0].blob_id) == frontier[blobs[0].blob_id] + 1


class TestChaosSchedule:
    def test_generation_is_deterministic_in_the_seed(self):
        roles = [("coordinator", 0), ("coordinator", 1), ("provider", 2)]
        a = ChaosSchedule.generate(seed=7, duration=10.0, roles=roles, kills=3)
        b = ChaosSchedule.generate(seed=7, duration=10.0, roles=roles, kills=3)
        c = ChaosSchedule.generate(seed=8, duration=10.0, roles=roles, kills=3)
        assert a.events == b.events
        assert a.events != c.events
        assert a.events == sorted(a.events, key=lambda e: e.at)

    def test_kills_pair_with_restarts_inside_the_window(self):
        schedule = ChaosSchedule.generate(
            seed=1, duration=8.0, roles=[("coordinator", 0)], kills=2, restart_after=1.0
        )
        kills = [e for e in schedule.events if e.action == "kill"]
        restarts = [e for e in schedule.events if e.action == "restart"]
        assert len(kills) == 2 and len(restarts) == 2
        for event in schedule.events:
            assert 0.0 < event.at < 8.0

    def test_dispatch_errors_are_captured_not_raised(self):
        class Broken:
            def kill_coordinator_shard(self, index):
                raise RuntimeError("boom")

        schedule = ChaosSchedule([ChaosEvent(at=0.0, action="kill", role="coordinator", index=0)])
        schedule.start(Broken())
        schedule.join(timeout=5.0)
        assert len(schedule.failed_dispatches) == 1
        assert "boom" in schedule.failed_dispatches[0].error


class TestMonitorUnits:
    def test_dead_address_is_suspected_after_k_misses(self):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead = probe.getsockname()
        probe.close()
        monitor = ClusterMonitor(interval=0.05, suspect_after=2)
        monitor.watch("meta", 0, dead)
        monitor.start()
        try:
            assert _wait(
                lambda: any(e.kind == "suspect" for e in monitor.events), timeout=5.0
            )
            suspect = [e for e in monitor.events if e.kind == "suspect"][0]
            assert (suspect.role, suspect.index) == ("meta", 0)
        finally:
            monitor.stop()

    def test_coordinator_without_standby_reports_takeover_failed(self):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead = probe.getsockname()
        probe.close()
        monitor = ClusterMonitor(interval=0.05, suspect_after=2)
        monitor.watch("coordinator", 0, dead)
        monitor.start()
        try:
            assert _wait(
                lambda: any(e.kind == "takeover_failed" for e in monitor.events),
                timeout=5.0,
            )
            assert monitor.takeovers == 0
        finally:
            monitor.stop()
