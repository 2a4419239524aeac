"""Edge cases of the multiplexed pipelined RPC client (repro.net.rpc).

The network-mode suite proves the reactor against the real servers; this
file drives it against *scripted* servers that misbehave on purpose:
responses out of order under a deep window, hard connection kills with a
pipeline full of in-flight requests, responses dribbled byte-by-byte
through the incremental decoder, and close() with callers still blocked.
The scripted servers speak the real frame protocol (repro.net.frames) on
raw sockets, so the client cannot tell them from production servers.
"""

from __future__ import annotations

import os
import random
import socket
import threading
import time

import pytest

from repro.core.errors import ChunkNotFoundError
from repro.net import wire
from repro.net.frames import FrameDecoder, encode_frame
from repro.core import BlobSeerConfig
from repro.net import ClusterMonitor
from repro.net.rpc import NetworkError, RpcClient
from repro.net.server import standby_handlers


# ---------------------------------------------------------------------------
# Scripted servers: the real frame protocol, deliberately misbehaving
# ---------------------------------------------------------------------------


class ScriptedServer:
    """A framed-RPC server whose response behaviour is a pluggable policy.

    Understands two methods: ``echo`` (result = params["value"]) and
    ``boom`` (responds with an application error).  Counts every request
    it receives; subclass hooks decide *when* and *how* the responses go
    out.
    """

    def __init__(self) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(16)
        self.address = self._listener.getsockname()
        self.received = 0
        self.max_outstanding = 0
        self.open_connections = 0
        self._outstanding = 0
        self._lock = threading.Lock()
        self._stopped = threading.Event()
        self._threads = []
        accept = threading.Thread(target=self._accept_loop, daemon=True)
        accept.start()
        self._threads.append(accept)

    # -- policy hooks ------------------------------------------------------
    def on_message(self, conn: socket.socket, message: dict) -> None:
        """Default policy: respond immediately."""
        self.send_response(conn, message)

    def on_connection_done(self, conn: socket.socket) -> None:
        """Called when the peer half-closes; default does nothing."""

    def send_frame(self, conn: socket.socket, frame: bytes) -> None:
        try:
            conn.sendall(frame)
        except OSError:
            pass

    def send_response(self, conn: socket.socket, message: dict) -> None:
        if message.get("method") == "boom":
            response = {
                "id": message.get("id"),
                "error": wire.encode(ChunkNotFoundError("scripted-miss")),
            }
        else:
            params = wire.decode(message.get("params") or {})
            response = {
                "id": message.get("id"),
                "result": wire.encode(params.get("value")),
            }
        self.send_frame(conn, encode_frame(response))
        with self._lock:
            self._outstanding -= 1

    # -- plumbing ----------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            handler = threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            )
            handler.start()
            self._threads.append(handler)

    def _serve(self, conn: socket.socket) -> None:
        decoder = FrameDecoder()
        with self._lock:
            self.open_connections += 1
        try:
            while not self._stopped.is_set():
                data = conn.recv(64 * 1024)
                if not data:
                    break
                # Count the whole recv batch as outstanding *before* any
                # response goes out: max_outstanding then measures how
                # deep the client's pipeline actually ran.
                batch = decoder.feed(data)
                with self._lock:
                    self.received += len(batch)
                    self._outstanding += len(batch)
                    self.max_outstanding = max(
                        self.max_outstanding, self._outstanding
                    )
                for message in batch:
                    self.on_message(conn, message)
            self.on_connection_done(conn)
        except OSError:
            pass
        finally:
            with self._lock:
                self.open_connections -= 1
            try:
                conn.close()
            except OSError:
                pass

    def close(self) -> None:
        self._stopped.set()
        try:
            self._listener.close()
        except OSError:
            pass

    def __enter__(self) -> "ScriptedServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ReverseBurstServer(ScriptedServer):
    """Buffers ``burst`` requests, then answers them in *reverse* order."""

    def __init__(self, burst: int) -> None:
        super().__init__()
        self.burst = burst
        self._held = []

    def on_message(self, conn: socket.socket, message: dict) -> None:
        self._held.append(message)
        if len(self._held) >= self.burst:
            held, self._held = self._held, []
            for message in reversed(held):
                self.send_response(conn, message)


class SlowStartServer(ScriptedServer):
    """Sleeps before reading anything, so the client's burst coalesces."""

    def __init__(self, delay: float = 0.1) -> None:
        super().__init__()
        self.delay = delay

    def _serve(self, conn: socket.socket) -> None:
        time.sleep(self.delay)
        super()._serve(conn)


class DribbleServer(ScriptedServer):
    """Sends every response torn into 1–9 byte fragments (seeded PRNG)."""

    def __init__(self, seed: int = 7) -> None:
        super().__init__()
        self._rng = random.Random(seed)

    def send_frame(self, conn: socket.socket, frame: bytes) -> None:
        position = 0
        while position < len(frame):
            step = self._rng.randint(1, 9)
            try:
                conn.sendall(frame[position : position + step])
            except OSError:
                return
            position += step
            if self._rng.random() < 0.2:
                time.sleep(0.001)


class HoldServer(ScriptedServer):
    """Reads requests, never answers — for close/drain-with-inflight."""

    def on_message(self, conn: socket.socket, message: dict) -> None:
        pass


class DieAfterServer(ScriptedServer):
    """Hard-closes the connection (and the listener) after N requests.

    The client-visible effect is a SIGKILLed server process: every
    request already pipelined on the connection has no response coming,
    and reconnecting is futile.
    """

    def __init__(self, die_after: int) -> None:
        super().__init__()
        self.die_after = die_after

    def on_message(self, conn: socket.socket, message: dict) -> None:
        if self.received >= self.die_after:
            self.close()
            try:
                conn.close()
            except OSError:
                pass


def _client(*servers, **kwargs):
    kwargs.setdefault("connect_timeout", 2.0)
    kwargs.setdefault("request_timeout", 5.0)
    kwargs.setdefault("max_retries", 1)
    kwargs.setdefault("backoff_base", 0.01)
    kwargs.setdefault("backoff_max", 0.05)
    # The msgpack CI leg re-runs this slice with the binary request codec;
    # the scripted servers answer in JSON either way, which is itself a
    # test — every frame carries its own codec byte, so mixed-codec
    # conversations must demux fine.
    kwargs.setdefault("codec", os.environ.get("REPRO_NET_CODEC", "json"))
    return RpcClient([s.address for s in servers], **kwargs)


# ---------------------------------------------------------------------------
# Out-of-order demux
# ---------------------------------------------------------------------------


class TestOutOfOrderDemux:
    def test_64_deep_window_reverse_order_responses(self):
        with ReverseBurstServer(burst=64) as server:
            with _client(server, max_inflight=64) as rpc:
                results = rpc.call_many(
                    [("echo", {"value": i}) for i in range(64)]
                )
        # Responses arrived in exactly reverse order; the demux still
        # matches every future to its own request id.
        assert results == list(range(64))
        assert server.received == 64
        assert server.max_outstanding == 64

    def test_interleaved_bursts_keep_per_request_results(self):
        with ReverseBurstServer(burst=8) as server:
            with _client(server, max_inflight=8) as rpc:
                results = rpc.call_many(
                    [("echo", {"value": f"v{i}"}) for i in range(40)]
                )
        assert results == [f"v{i}" for i in range(40)]

    def test_pipelined_typed_error_lands_on_its_own_future(self):
        with ReverseBurstServer(burst=3) as server:
            with _client(server, max_inflight=8) as rpc:
                futures = [
                    rpc.submit("echo", {"value": "a"}),
                    rpc.submit("boom", {}),
                    rpc.submit("echo", {"value": "b"}),
                ]
                assert futures[0].result() == "a"
                with pytest.raises(ChunkNotFoundError):
                    futures[1].result()
                assert futures[2].result() == "b"
        # The application error was a *response*, not a failure: no retry.
        assert server.received == 3


# ---------------------------------------------------------------------------
# Window enforcement
# ---------------------------------------------------------------------------


class TestWindow:
    @pytest.mark.parametrize("window", [1, 4])
    def test_inflight_never_exceeds_window(self, window):
        with SlowStartServer(delay=0.1) as server:
            with _client(server, max_inflight=window) as rpc:
                results = rpc.call_many(
                    [("echo", {"value": i}) for i in range(12)]
                )
        assert results == list(range(12))
        assert server.max_outstanding <= window

    def test_deep_window_actually_pipelines(self):
        # With the server asleep for the first 100 ms, everything the
        # window admits coalesces into the first reads: outstanding must
        # reach past 1 (the blocking client's ceiling) on one connection.
        with SlowStartServer(delay=0.1) as server:
            with _client(server, max_inflight=16) as rpc:
                rpc.call_many([("echo", {"value": i}) for i in range(16)])
                stats = rpc.stats()
        assert server.max_outstanding >= 2
        (per_address,) = stats.values()
        assert per_address["connections"] == 1
        assert per_address["peak_inflight"] >= 2
        assert per_address["requests_sent"] == 16

    def test_connections_per_server_opens_up_to_cap(self):
        with SlowStartServer(delay=0.1) as server:
            with _client(
                server, max_inflight=4, connections_per_server=2
            ) as rpc:
                rpc.call_many([("echo", {"value": i}) for i in range(12)])
                stats = rpc.stats()
        (per_address,) = stats.values()
        assert per_address["connections"] == 2
        assert per_address["requests_sent"] == 12


# ---------------------------------------------------------------------------
# Mid-pipeline server death -> failover of exactly the in-flight requests
# ---------------------------------------------------------------------------


class TestMidPipelineFailover:
    def test_killed_server_fails_exactly_n_inflight_over_to_next(self):
        n = 10
        with DieAfterServer(die_after=n) as primary, ScriptedServer() as backup:
            with _client(primary, backup, max_inflight=64) as rpc:
                futures = [rpc.submit("echo", {"value": i}) for i in range(n)]
                results = [f.result() for f in futures]
        # Every future completed exactly once, with its own value: nothing
        # lost, nothing double-completed, despite the primary dying with
        # the whole pipeline in flight.
        assert results == list(range(n))
        # The backup answered every request the primary swallowed.
        assert backup.received == n

    def test_requests_submitted_after_death_also_fail_over(self):
        with DieAfterServer(die_after=3) as primary, ScriptedServer() as backup:
            with _client(primary, backup, max_inflight=8) as rpc:
                first = rpc.call_many([("echo", {"value": i}) for i in range(3)])
                later = rpc.call_many([("echo", {"value": i}) for i in range(3, 6)])
        assert first == [0, 1, 2]
        assert later == [3, 4, 5]

    def test_all_servers_dead_raises_network_error(self):
        server = ScriptedServer()
        server.close()
        with _client(server, max_retries=1) as rpc:
            with pytest.raises(NetworkError):
                rpc.call("echo", {"value": 1})


# ---------------------------------------------------------------------------
# Torn frames through the reactor's decoder
# ---------------------------------------------------------------------------


class TestTornFrames:
    @pytest.mark.parametrize("seed", [3, 11, 1234])
    def test_dribbled_responses_reassemble(self, seed):
        with DribbleServer(seed=seed) as server:
            with _client(server, max_inflight=8) as rpc:
                results = rpc.call_many(
                    [("echo", {"value": f"payload-{i}" * 20}) for i in range(24)]
                )
        assert results == [f"payload-{i}" * 20 for i in range(24)]


# ---------------------------------------------------------------------------
# close() with requests in flight
# ---------------------------------------------------------------------------


class TestCloseWithInflight:
    def test_close_fails_blocked_callers_promptly(self):
        with HoldServer() as server:
            rpc = _client(server, max_retries=0)
            futures = [rpc.submit("echo", {"value": i}) for i in range(3)]
            # Let the requests reach the wire before yanking the client.
            deadline = time.monotonic() + 2.0
            while server.received < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert server.received == 3
            started = time.monotonic()
            rpc.close()
            for future in futures:
                with pytest.raises((NetworkError, ConnectionError)):
                    future.result(timeout=5.0)
            # Nobody sat out the 5 s request timeout: close woke them.
            assert time.monotonic() - started < 3.0

    def test_submit_after_close_raises(self):
        with ScriptedServer() as server:
            rpc = _client(server)
            assert rpc.call("echo", {"value": 1}) == 1
            rpc.close()
            with pytest.raises(NetworkError):
                rpc.submit("echo", {"value": 2})


# ---------------------------------------------------------------------------
# The client's two blocking-``call`` users: heartbeat probes, journal puller
# ---------------------------------------------------------------------------


def _wait(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


class JournalPrimary(ScriptedServer):
    """Answers ``journal_stream`` with an empty bootstrap batch under its name."""

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name

    def send_response(self, conn: socket.socket, message: dict) -> None:
        batch = {
            "stream_id": self.name,
            "bootstrap": True,
            "snapshot": None,
            "snapshot_lsn": 0,
            "records": [],
            "last_lsn": 0,
            "truncated": False,
        }
        self.send_frame(
            conn, encode_frame({"id": message.get("id"), "result": wire.encode(batch)})
        )


class TestMonitorProbes:
    def test_silent_server_is_a_miss_within_the_probe_timeout(self):
        # The server accepts and reads but never answers: only the probe's
        # own request timeout (0.2 s here) can turn that into a miss.
        with HoldServer() as server:
            monitor = ClusterMonitor(interval=0.05, suspect_after=2)
            monitor.watch("meta", 0, server.address)
            started = time.monotonic()
            monitor.start()
            try:
                assert _wait(lambda: any(e.kind == "suspect" for e in monitor.events))
                elapsed = time.monotonic() - started
            finally:
                monitor.stop()
        # Two probes, each sitting out its 0.2 s — not RpcClient's 30 s
        # default, and not the 10 s blocked-caller safety cap.
        assert 0.4 <= elapsed < 3.0
        assert server.received >= 2
        (suspect,) = [e for e in monitor.events if e.kind == "suspect"]
        assert "2 missed" in suspect.detail

    def test_update_target_closes_the_old_channel(self):
        with ScriptedServer() as old, ScriptedServer() as new:
            monitor = ClusterMonitor(interval=0.05, suspect_after=2)
            monitor.watch("meta", 0, old.address)
            monitor.start()
            try:
                assert _wait(lambda: old.received >= 2)
                assert old.open_connections == 1  # probes share one channel
                monitor.update_target("meta", 0, new.address)
                # The restart repointed the probe: the old server sees its
                # connection close instead of lingering until process exit.
                assert _wait(lambda: old.open_connections == 0)
                assert _wait(lambda: new.received >= 2)
                stats = monitor._targets[("meta", 0)].client.stats()
                assert {addr: s["connections"] for addr, s in stats.items()} == {
                    f"{new.address[0]}:{new.address[1]}": 1
                }
            finally:
                monitor.stop()
            assert _wait(lambda: new.open_connections == 0)
        assert monitor.events == []


class TestStandbyPuller:
    def test_follow_reattach_retires_the_previous_puller(self):
        def pullers():
            return [
                t for t in threading.enumerate() if t.name == "standby-pull-vm-000"
            ]

        with JournalPrimary("first") as first, JournalPrimary("second") as second:
            handlers = standby_handlers(
                0,
                BlobSeerConfig(net_heartbeat_interval=0.05),
                primary=f"{first.address[0]}:{first.address[1]}",
            )
            try:
                assert _wait(lambda: handlers["standby_status"]()["stream_id"] == "first")
                handlers["follow"](f"{second.address[0]}:{second.address[1]}")
                # The old puller's flag is its own: re-attaching cannot
                # revive it, and its channel to the old primary is closed.
                assert _wait(lambda: len(pullers()) == 1)
                assert _wait(lambda: first.open_connections == 0)
                assert _wait(lambda: handlers["standby_status"]()["stream_id"] == "second")
                seen_by_first = first.received
                pulls = handlers["standby_status"]()["pulls"]
                assert _wait(lambda: handlers["standby_status"]()["pulls"] >= pulls + 3)
                # Only the new puller applies batches from here on.
                assert first.received == seen_by_first
                assert handlers["standby_status"]()["stream_id"] == "second"
            finally:
                handlers["take_over"]()
            assert _wait(lambda: not pullers())
            assert _wait(lambda: second.open_connections == 0)
