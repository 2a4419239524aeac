"""Networked service mode: the same tests, over real sockets and processes.

A module-scoped :class:`~repro.net.deployment.ProcessDeployment` spawns
every service as its own localhost process (ephemeral ports, ready
handshakes) and the batch-API test classes are imported from
``test_batch_api`` so they re-collect here against the ``deployment`` /
``client`` fixtures below — the proof that :class:`NetworkTransport` and
the RPC proxies implement the same contract as the in-process wiring.

On top of that: per-op failure isolation across the wire (typed errors
rebuilt client-side), the satellite net-phase timings on ``OpResult``,
``RpcClient`` retry/failover units against dead and misbehaving servers,
and a replication-2 kill-a-provider run with zero failed operations.
"""

from __future__ import annotations

import os
import socket
import threading
import time

import pytest

from repro.core import BlobSeerConfig, ReadOp
from repro.core.deployment import make_deployment
from repro.core.errors import BlobNotFoundError, InvalidRangeError
from repro.net import NetworkError, ProcessDeployment, RpcClient

# Re-collect the transport-agnostic batch-API suites against the networked
# deployment (their `deployment`/`client` fixture requests resolve to the
# fixtures in *this* module).  TestFailureIsolation is not imported: one of
# its tests monkeypatches the in-process provider pool, which has no
# equivalent over real processes — its wire-reachable assertions are
# covered by TestNetworkFailureIsolation below.
from test_batch_api import (  # noqa: F401
    CHUNK,
    TestBatchBasics,
    TestSession,
    TestSnapshotIsolation,
    TestTimingAndCounters,
    TestVectoredConveniences,
)


def _network_config(**overrides):
    base = dict(
        num_data_providers=4,
        num_metadata_providers=3,
        num_version_managers=2,
        chunk_size=CHUNK,
        replication=1,
        transport="network",
        # Fail over fast in tests: a dead process should cost milliseconds.
        net_max_retries=0,
        net_backoff_base=0.01,
        net_connect_timeout=5.0,
        net_request_timeout=30.0,
        # The msgpack CI leg re-runs this whole slice over the other codec.
        net_codec=os.environ.get("REPRO_NET_CODEC", "json"),
    )
    base.update(overrides)
    return BlobSeerConfig(**base)


@pytest.fixture(scope="module")
def deployment():
    dep = make_deployment(_network_config())
    assert isinstance(dep, ProcessDeployment)  # the config field did the flip
    yield dep
    dep.close()


@pytest.fixture
def client(deployment):
    return deployment.client()


def _dead_address():
    """A localhost address with nothing listening on it."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    address = probe.getsockname()
    probe.close()
    return address


class TestNetworkFailureIsolation:
    def test_typed_errors_cross_the_wire_per_op(self, client):
        blob = client.create_blob()
        blob.append(b"x" * CHUNK)
        with client.batch() as batch:
            f_bad = batch.write(blob.blob_id, 10_000, b"beyond the end")
            f_ok = batch.append(blob.blob_id, b"y" * 32)
        assert isinstance(f_bad.result().error, InvalidRangeError)
        assert f_ok.result().ok
        assert blob.latest_version() == 2

    def test_sequential_wrappers_reraise_decoded_errors(self, client):
        with pytest.raises(BlobNotFoundError):
            client.read(999_999, 0, 1)


class TestNetPhaseTimings:
    def test_ops_surface_connect_send_wait(self, client):
        blob = client.create_blob()
        with client.batch() as batch:
            f_append = batch.append(blob.blob_id, b"z" * CHUNK)
        timing = f_append.result().timing
        # Real sockets were crossed: serialising the request and blocking
        # on its response both took non-zero wall time.
        assert timing.send_seconds > 0.0
        assert timing.wait_seconds > 0.0
        assert timing.connect_seconds >= 0.0

    def test_read_timings_include_wire_time(self, client):
        blob = client.create_blob()
        blob.append(b"r" * (CHUNK * 2))
        result = client.submit_ops([ReadOp(blob.blob_id, 0, CHUNK * 2)])[0]
        assert result.ok
        assert result.timing.wait_seconds > 0.0
        assert len(result.timing.fragment_fetch_seconds) == 2


class TestRpcFailover:
    def test_failover_skips_dead_server_in_list(self, deployment):
        live = deployment.provider_rpcs["provider-000"].servers[0]
        with RpcClient(
            [_dead_address(), live], max_retries=0, backoff_base=0.01
        ) as rpc:
            assert rpc.call("ping") is True

    def test_all_dead_raises_network_error_after_sweeps(self):
        with RpcClient(
            [_dead_address()],
            connect_timeout=0.5,
            max_retries=2,
            backoff_base=0.01,
            backoff_max=0.02,
        ) as rpc:
            with pytest.raises(NetworkError):
                rpc.call("ping")

    def test_backoff_sleeps_between_sweeps(self):
        with RpcClient(
            [_dead_address()],
            connect_timeout=0.5,
            max_retries=2,
            backoff_base=0.05,
            backoff_max=1.0,
        ) as rpc:
            started = time.perf_counter()
            with pytest.raises(NetworkError):
                rpc.call("ping")
            # Two inter-sweep sleeps: 0.05 * 2^0 + 0.05 * 2^1 = 0.15s.
            assert time.perf_counter() - started >= 0.15

    def test_server_closing_mid_request_is_retried_then_fails(self):
        """A listener that accepts and immediately closes looks like a crash
        between connect and response; the client must sweep, not hang."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        address = listener.getsockname()
        stop = threading.Event()

        def slam_connections():
            listener.settimeout(0.1)
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                    conn.close()
                except socket.timeout:
                    continue
                except OSError:
                    break

        thread = threading.Thread(target=slam_connections, daemon=True)
        thread.start()
        try:
            with RpcClient(
                [address], max_retries=1, backoff_base=0.01, backoff_max=0.02
            ) as rpc:
                with pytest.raises(NetworkError):
                    rpc.call("ping")
        finally:
            stop.set()
            thread.join()
            listener.close()


class TestKilledProviderResilience:
    def test_replicated_workload_survives_sigkilled_provider(self):
        """Replication 2 + one provider SIGKILLed mid-workload: every batch
        op still succeeds and every byte reads back (the E15 guarantee)."""
        config = _network_config(
            num_data_providers=3,
            num_metadata_providers=1,
            num_version_managers=1,
            replication=2,
        )
        with make_deployment(config) as dep:
            client = dep.client()
            blob = client.create_blob()
            payloads = [bytes([65 + i]) * CHUNK for i in range(6)]
            versions = blob.append_many(payloads[:3])
            assert versions == [1, 2, 3]

            dep.kill_data_provider("provider-000")

            # Writes keep landing (placement steers off the dead provider,
            # pushes skip its unreachable replicas)...
            more = blob.append_many(payloads[3:])
            assert more == [4, 5, 6]
            # ...and every chunk reads back, including those whose first
            # replica died — the fetch path fails over to the survivor.
            for index, payload in enumerate(payloads):
                assert blob.read(index * CHUNK, CHUNK) == payload

    def test_sigterm_exits_cleanly(self):
        """Satellite: SIGTERM is a drain, not a crash — servers exit 0."""
        config = _network_config(
            num_data_providers=1, num_metadata_providers=1, num_version_managers=1
        )
        dep = make_deployment(config)
        processes = list(dep.processes)
        dep.close()
        assert all(proc.returncode == 0 for proc in processes)


class TestWritePathRoundTrips:
    def test_rpcs_per_op_are_the_papers_write_protocol(self):
        """A write pays allocate, push, register, history, one put per
        metadata provider owning a node of its tree, and publish; nothing
        else crosses the wire (no per-level put round, no per-write
        ``blob_info`` re-read, no report back to the provider manager)."""
        config = _network_config(num_version_managers=1, chunk_size=64 * 1024)
        with make_deployment(config) as dep:
            blob = dep.client().create_blob()
            store = dep.metadata_store

            def requests_sent():
                return sum(s["requests_sent"] for s in dep.rpc_stats().values())

            def expected(version):
                owners = {
                    pid
                    for pid in store.provider_ids
                    for key in store.store_of(pid).keys()
                    if key.blob_id == blob.blob_id and key.version == version
                }
                return 5 + len(owners)

            for index in range(4):
                before = requests_sent()
                version = blob.append(bytes([65 + index]) * 64 * 1024)
                sent = requests_sent() - before
                assert sent == expected(version)
            before = requests_sent()
            version = blob.write(0, b"z" * 64 * 1024)
            sent = requests_sent() - before
            assert sent == expected(version)
            # The overwrite's three new nodes span more than one provider.
            assert sent > 6


class TestNetworkedPlacement:
    def test_load_aware_placement_spreads_over_providers(self):
        """The ``pmgr`` process's ledger never learns ``chunks_stored``, so
        load-aware placement runs on the chunks it placed: eight one-chunk
        appends land two per provider, not all on the first one."""
        config = _network_config(
            num_metadata_providers=1,
            num_version_managers=1,
            placement_strategy="load_aware",
        )
        with make_deployment(config) as dep:
            blob = dep.client().create_blob()
            for index in range(8):
                blob.append(bytes([65 + index]) * CHUNK)
            stored = {
                pid: rpc.call("chunks_stored")
                for pid, rpc in dep.provider_rpcs.items()
            }
            assert sorted(stored.values()) == [2, 2, 2, 2]
