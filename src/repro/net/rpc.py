"""Multiplexed pipelined RPC: an event-loop reactor behind a blocking surface.

:class:`RpcClient` is the only RPC client: a process-wide asyncio
**reactor** (one event loop on a daemon thread) owns a small number of
connections per server address (``connections_per_server``), keeps up to
``max_inflight`` requests pipelined on each, coalesces outbound frames
queued in the same loop tick into a single ``write()``, and demultiplexes
responses by request id into per-request futures that blocking callers
wait on.  ``submit()`` returns an :class:`RpcFuture` without blocking, so
a whole fan-out (every replica of a chunk push, every first hop of a
batch's fetches) goes onto the wire before anything waits — no worker
thread per request.  Heartbeat probes and the standby's journal puller use
the same client through its blocking ``call``.

Failure handling is the msgbox idiom: a call walks the server list —
connect, send, wait for the matching response; on a connection-level
failure move to the next address; when a full sweep fails, back off
exponentially and sweep again, up to ``max_retries`` sweeps, then raise
:class:`NetworkError`.  An *application* error decoded from a well-formed
response is raised immediately without retry.  When a pipelined connection
dies with N requests in flight, exactly those N futures fail with a
connection error and each blocked caller resumes its own sweep on the next
address — nothing is lost, nothing completes twice (a late or duplicate
response finds no pending id and is dropped).

Network time is tallied **per thread**: each request's ``(connect,
send, wait)`` seconds — ``connect`` is the connection handshake
*amortised over the requests that waited for it*, ``send`` is client-side
queueing plus the write, ``wait`` is wire plus server time — are added to
the tally of the thread that resolves it (the first
:meth:`RpcFuture.result`, or :meth:`RpcClient.call_many` for each reply).
Every request is resolved on the thread that submitted it, so
:func:`take_timings` — return the calling thread's tally and reset it —
gives a caller exactly the network time of the requests it made since its
last take.

Requests additionally carry the active :class:`~repro.obs.trace.TraceContext`
(when one is set) as a compact frame-envelope pair, and the reactor feeds
the process metrics registry (queue wait, in-flight depth, coalesce sizes).
"""

from __future__ import annotations

import asyncio
import itertools
import random
import socket
import threading
import time
from concurrent.futures import Future as ConcurrentFuture
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import wire
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .frames import FrameDecoder, FrameError, encode_frame

__all__ = [
    "NetworkError",
    "RpcClient",
    "RpcFuture",
    "take_timings",
]


class NetworkError(ConnectionError):
    """Every server in the list failed across all retry sweeps."""


#: Upper bound of the multiplicative sweep-backoff jitter: each backoff
#: sleeps ``delay * uniform(1, 1 + JITTER)``.  Jitter is strictly upward so
#: the exponential floor (what the failover tests assert on) still holds;
#: its purpose is de-synchronisation — without it, every client that lost
#: the same dead shard retries in lockstep and thundering-herds the standby
#: the instant it takes over.
BACKOFF_JITTER = 0.5


def _jittered(delay: float) -> float:
    return delay * (1.0 + random.random() * BACKOFF_JITTER)


# ---------------------------------------------------------------------------
# The per-thread timing tally
# ---------------------------------------------------------------------------


class _Tally(threading.local):
    #: (connect, send, wait) seconds charged on this thread since its last take.
    seconds: Tuple[float, float, float] = (0.0, 0.0, 0.0)


_tally = _Tally()


def _charge(connect: float, send: float, wait: float) -> None:
    c, s, w = _tally.seconds
    _tally.seconds = (c + connect, s + send, w + wait)


def take_timings() -> Tuple[float, float, float]:
    """Return and reset the calling thread's (connect, send, wait) tally."""
    seconds, _tally.seconds = _tally.seconds, (0.0, 0.0, 0.0)
    return seconds


# -- reactor-side metrics ----------------------------------------------------
# Handles are cached per registry instance so the per-request cost is one
# identity check; tests that reset the registry get fresh handles.

_metric_cache: Tuple[Any, Optional[Tuple[Any, ...]]] = (None, None)


def _reactor_metrics() -> Tuple[Any, ...]:
    global _metric_cache
    reg = obs_metrics.registry()
    if _metric_cache[0] is not reg:
        _metric_cache = (
            reg,
            (
                reg.histogram("rpc_client_queue_wait_seconds"),
                reg.histogram("rpc_client_inflight_depth"),
                reg.histogram("rpc_client_coalesce_batch"),
                reg.counter("rpc_client_requests_total"),
            ),
        )
    return _metric_cache[1]


# ---------------------------------------------------------------------------
# The reactor: one asyncio loop on a daemon thread, shared process-wide
# ---------------------------------------------------------------------------


class _Reactor:
    """Background event loop every pipelined client submits coroutines to."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        ready = threading.Event()
        self.thread = threading.Thread(
            target=self._run, args=(ready,), name="repro-net-reactor", daemon=True
        )
        self.thread.start()
        ready.wait()

    def _run(self, ready: threading.Event) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.call_soon(ready.set)
        self.loop.run_forever()

    def submit(self, coro) -> ConcurrentFuture:
        return asyncio.run_coroutine_threadsafe(coro, self.loop)


_REACTOR_LOCK = threading.Lock()
_REACTOR: Optional[_Reactor] = None


def get_reactor() -> _Reactor:
    """The process-wide reactor, started on first use (daemon thread)."""
    global _REACTOR
    with _REACTOR_LOCK:
        if _REACTOR is None or not _REACTOR.thread.is_alive():
            _REACTOR = _Reactor()
        return _REACTOR


# ---------------------------------------------------------------------------
# Channels: one pipelined connection each (loop-thread state only)
# ---------------------------------------------------------------------------


class _Slot:
    """Bookkeeping for one in-flight request on a channel."""

    __slots__ = ("future", "enqueued_at", "sent_at", "connect_share", "sampled")

    def __init__(self) -> None:
        self.future: asyncio.Future = asyncio.get_running_loop().create_future()
        self.enqueued_at = 0.0
        self.sent_at = 0.0
        self.connect_share = 0.0
        self.sampled = False


class _Channel:
    """One connection: outbound frames coalesced, responses demuxed by id.

    All state is touched exclusively from the reactor loop, so no locks.
    A channel that fails (connect error, EOF, torn stream, write error)
    marks itself ``dead``, completes every pending future with the error,
    and is discarded by its client; the callers' sweep loops move each
    failed request to the next address individually.
    """

    def __init__(self, client: "RpcClient", address: Tuple[str, int]) -> None:
        self.client = client
        self.address = address
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.decoder = FrameDecoder()
        self.pending: Dict[int, _Slot] = {}
        self.window = asyncio.Semaphore(client.max_inflight)
        self.dead: Optional[Exception] = None
        self._connect_task: Optional[asyncio.Task] = None
        self._connect_waiters = 0
        self._read_task: Optional[asyncio.Task] = None
        self._flush_task: Optional[asyncio.Task] = None
        self._out: List[Tuple[bytes, _Slot]] = []
        #: Requests routed here and not yet finished — includes ones still
        #: waiting on connect/window, unlike ``pending``, so the client's
        #: channel selection sees load the moment it is assigned.
        self.assigned = 0
        # -- stats surfaced by RpcClient.stats() --
        self.requests_sent = 0
        self.peak_inflight = 0

    # -- lifecycle -----------------------------------------------------------------
    async def _connect(self) -> float:
        started = time.perf_counter()
        host, port = self.address
        try:
            self.reader, self.writer = await asyncio.wait_for(
                asyncio.open_connection(host, port),
                timeout=self.client.connect_timeout,
            )
        except Exception as exc:
            error = ConnectionError(f"connect to {host}:{port} failed: {exc}")
            self._fail(error)
            raise error from None
        sock = self.writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._read_task = asyncio.ensure_future(self._read_loop())
        return time.perf_counter() - started

    async def _ensure_connected(self) -> float:
        """Connect once; return this request's amortised share of the cost."""
        if self.dead is not None:
            raise self.dead
        if self.writer is not None:
            return 0.0
        if self._connect_task is None:
            self._connect_task = asyncio.ensure_future(self._connect())
        self._connect_waiters += 1
        elapsed = await asyncio.shield(self._connect_task)
        # Every request that waited on this handshake shares its cost, so
        # phase tables do not multiply one connect across a pipeline.
        return elapsed / max(1, self._connect_waiters)

    def _fail(self, error: Exception) -> None:
        if self.dead is not None:
            return
        self.dead = error
        if self._read_task is not None:
            self._read_task.cancel()
        if self._flush_task is not None:
            self._flush_task.cancel()
        if self.writer is not None:
            try:
                self.writer.close()
            except Exception:
                pass
        slots, self.pending = list(self.pending.values()), {}
        self._out.clear()
        for slot in slots:
            if not slot.future.done():
                slot.future.set_exception(ConnectionError(str(error)))

    # -- I/O -----------------------------------------------------------------------
    async def _read_loop(self) -> None:
        try:
            while True:
                data = await self.reader.read(256 * 1024)
                if not data:
                    raise ConnectionError("server closed the connection")
                for response in self.decoder.feed(data):
                    slot = self.pending.pop(response.get("id"), None)
                    # An unmatched id is a response to an abandoned
                    # (timed-out) request — dropped, never double-completed.
                    if slot is not None and not slot.future.done():
                        slot.future.set_result(response)
        except asyncio.CancelledError:
            pass
        except Exception as exc:  # EOF, reset, FrameError: the stream is gone
            self._fail(exc)

    def _enqueue(self, request_id: int, frame: bytes) -> _Slot:
        slot = _Slot()
        slot.enqueued_at = time.perf_counter()
        self.pending[request_id] = slot
        self._out.append((frame, slot))
        self.requests_sent += 1
        self.peak_inflight = max(self.peak_inflight, len(self.pending))
        _reactor_metrics()[3].inc()
        # The distribution histograms sample 1-in-8: two ~1µs records per
        # request on the event-loop critical path would cost >10% of the
        # protocol floor (the E18 gate), and percentile estimates don't
        # need every event — the requests_total counter stays exact.
        if self.requests_sent & 0x7 == 0:
            slot.sampled = True
            _reactor_metrics()[1].record(len(self.pending))
        if self._flush_task is None or self._flush_task.done():
            self._flush_task = asyncio.ensure_future(self._flush())
        return slot

    async def _flush(self) -> None:
        """Write every frame queued so far in one coalesced ``write``.

        Frames submitted while a previous flush awaits ``drain()`` pile up
        in ``_out`` and leave in the next single write — a 64-deep burst of
        pushes costs a handful of syscalls, not 64.
        """
        try:
            while self._out:
                batch, self._out = self._out, []
                now = time.perf_counter()
                for _, slot in batch:
                    slot.sent_at = now
                _reactor_metrics()[2].record(len(batch))
                self.writer.write(b"".join(frame for frame, _ in batch))
                await self.writer.drain()
        except asyncio.CancelledError:
            pass
        except Exception as exc:
            self._fail(exc)

    def _expire(self, request_id: int) -> None:
        # Abandon just this request: the channel stays healthy (a late
        # response is dropped by the id-miss path above) and pipelined
        # siblings keep their futures.
        slot = self.pending.pop(request_id, None)
        if slot is not None and not slot.future.done():
            slot.future.set_exception(asyncio.TimeoutError())

    async def request(
        self, request_id: int, frame: bytes, request_timeout: float
    ) -> Tuple[Dict[str, Any], Tuple[float, float, float]]:
        connect_share = await self._ensure_connected()
        await self.window.acquire()
        try:
            if self.dead is not None:
                raise self.dead
            slot = self._enqueue(request_id, frame)
            # A call_later handle is far cheaper per request than
            # asyncio.wait_for's task machinery — this path runs once per
            # pipelined request.
            expiry = asyncio.get_running_loop().call_later(
                request_timeout, self._expire, request_id
            )
            try:
                response = await slot.future
            finally:
                expiry.cancel()
            done = time.perf_counter()
            sent = slot.sent_at or done
            if slot.sampled:
                _reactor_metrics()[0].record(max(0.0, sent - slot.enqueued_at))
            return response, (
                connect_share,
                max(0.0, sent - slot.enqueued_at),
                max(0.0, done - sent),
            )
        finally:
            self.window.release()


# ---------------------------------------------------------------------------
# RpcFuture: the blocking caller's handle on one pipelined request
# ---------------------------------------------------------------------------


class RpcFuture:
    """Handle on one in-flight RPC submitted through :meth:`RpcClient.submit`.

    ``result()`` blocks until the request completes a full
    sweep-with-failover cycle: it returns the decoded result, raises the
    decoded *typed* application error, or raises :class:`NetworkError`
    when every server failed.
    """

    def __init__(self, cfuture: ConcurrentFuture, default_timeout: float):
        self._cfuture = cfuture
        self._default_timeout = default_timeout
        self._charged = False

    def result(self, timeout: Optional[float] = None) -> Any:
        response, timing = self._cfuture.result(
            timeout if timeout is not None else self._default_timeout
        )
        # Invariant: each request is resolved on the thread that submitted
        # it, so this charges the submitter's tally (see take_timings) —
        # once, even when result() is called again, and also when the reply
        # is an application error: the wire was still crossed.
        if not self._charged:
            self._charged = True
            _charge(*timing)
        error = response.get("error")
        if error is not None:
            raise wire.decode(error)
        return wire.decode(response.get("result"))

    def done(self) -> bool:
        return self._cfuture.done()


# ---------------------------------------------------------------------------
# RpcClient: the pipelined (reactor) client
# ---------------------------------------------------------------------------


class RpcClient:
    """Framed, *pipelined* RPC over a failover list of ``(host, port)``.

    The synchronous surface is ``call`` (typed errors, sweep failover,
    backoff); underneath, requests of any number of calling threads share
    ``connections_per_server`` reactor connections per address with up to
    ``max_inflight`` requests pipelined on each.  ``submit``/``call_many``
    expose the non-blocking window.
    """

    def __init__(
        self,
        servers: Sequence[Tuple[str, int]],
        *,
        connect_timeout: float = 5.0,
        request_timeout: float = 30.0,
        max_retries: int = 3,
        backoff_base: float = 0.05,
        backoff_max: float = 1.0,
        codec: str = "json",
        max_inflight: int = 64,
        connections_per_server: int = 1,
    ) -> None:
        if not servers:
            raise ValueError("RpcClient needs at least one server address")
        self.servers: List[Tuple[str, int]] = [tuple(s) for s in servers]
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.codec = codec
        self.max_inflight = max(1, max_inflight)
        self.connections_per_server = max(1, connections_per_server)
        self._ids = itertools.count(1)
        self._closed = False
        #: address -> channels, touched only on the reactor loop.
        self._channels: Dict[Tuple[str, int], List[_Channel]] = {}
        # Safety cap so a blocked caller can never hang past the worst
        # honest case (every sweep timing out on every server, plus every
        # backoff), even if the reactor is wedged.
        sweeps = self.max_retries + 1
        backoffs = sum(
            min(self.backoff_max, self.backoff_base * (2**s)) * (1.0 + BACKOFF_JITTER)
            for s in range(self.max_retries)
        )
        self._result_cap = (
            sweeps * len(self.servers) * (connect_timeout + request_timeout)
            + backoffs
            + 10.0
        )

    # -- loop-side helpers ---------------------------------------------------------
    def _channel_for(self, address: Tuple[str, int]) -> _Channel:
        group = self._channels.setdefault(address, [])
        live = [ch for ch in group if ch.dead is None]
        if len(live) != len(group):
            group[:] = live
        if not group:
            channel = _Channel(self, address)
            group.append(channel)
            return channel
        best = min(group, key=lambda ch: ch.assigned)
        if best.assigned and len(group) < self.connections_per_server:
            # The least-loaded connection is busy and the cap allows one
            # more: open it — connections grow with load, up to the cap.
            channel = _Channel(self, address)
            group.append(channel)
            return channel
        return best

    async def _call_async(
        self, method: str, request_id: int, frame: bytes
    ) -> Tuple[Dict[str, Any], Tuple[float, float, float]]:
        failures: List[str] = []
        for sweep in range(self.max_retries + 1):
            for address in self.servers:
                if self._closed:
                    raise NetworkError(f"rpc client closed with {method!r} in flight")
                channel = self._channel_for(address)
                channel.assigned += 1
                try:
                    return await channel.request(
                        request_id, frame, self.request_timeout
                    )
                except (
                    ConnectionError,
                    OSError,
                    asyncio.TimeoutError,
                    FrameError,
                ) as exc:
                    note = str(exc) or type(exc).__name__
                    failures.append(f"{address[0]}:{address[1]}: {note}")
                    continue
                finally:
                    channel.assigned -= 1
            if sweep < self.max_retries:
                await asyncio.sleep(
                    _jittered(min(self.backoff_max, self.backoff_base * (2**sweep)))
                )
        raise NetworkError(
            f"rpc {method!r} failed on all servers after "
            f"{self.max_retries + 1} sweeps: {'; '.join(failures[-len(self.servers):])}"
        )

    async def _shutdown_async(self) -> None:
        for group in self._channels.values():
            for channel in group:
                channel._fail(NetworkError("rpc client closed"))
        self._channels.clear()

    async def _stats_async(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Dict[str, int]] = {}
        for address, group in self._channels.items():
            out[f"{address[0]}:{address[1]}"] = {
                "connections": len(group),
                "requests_sent": sum(ch.requests_sent for ch in group),
                "in_flight": sum(len(ch.pending) for ch in group),
                "peak_inflight": max((ch.peak_inflight for ch in group), default=0),
            }
        return out

    # -- calls ---------------------------------------------------------------------
    def _frame(
        self, method: str, params: Optional[Dict[str, Any]], envelope: Optional[List[str]]
    ) -> Tuple[int, bytes]:
        """Encode one request under a fresh id, with an optional trace envelope."""
        request_id = next(self._ids)
        message = {"id": request_id, "method": method, "params": wire.encode(params or {})}
        if envelope is not None:
            message[wire.TRACE_KEY] = envelope
        return request_id, encode_frame(message, codec=self.codec)

    def submit(
        self,
        method: str,
        params: Optional[Dict[str, Any]] = None,
        trace: Optional[obs_trace.TraceContext] = None,
    ) -> RpcFuture:
        """Put one request on the wire and return without blocking.

        Encoding happens here, on the calling thread, so the reactor loop
        only moves bytes; the frame is encoded once and reused across
        failover sweeps.  The active trace context (or an explicit
        ``trace``) rides the frame envelope.
        """
        if self._closed:
            raise NetworkError("rpc client is closed")
        if trace is None:
            trace = obs_trace.current_context()
        request_id, frame = self._frame(
            method, params, list(trace.to_wire()) if trace is not None else None
        )
        cfuture = get_reactor().submit(self._call_async(method, request_id, frame))
        return RpcFuture(cfuture, self._result_cap)

    def call(self, method: str, params: Optional[Dict[str, Any]] = None) -> Any:
        """Invoke ``method`` on the first reachable server; raise decoded errors."""
        return self.submit(method, params).result()

    def call_many(
        self,
        requests: Sequence[Tuple[str, Optional[Dict[str, Any]]]],
        return_exceptions: bool = False,
    ) -> List[Any]:
        """Submit a whole batch pipelined, then collect results in order.

        Every request is on the wire (window permitting) before the first
        result is awaited, and the entire batch crosses into the reactor
        as *one* submission (one loop wake-up instead of one per request —
        the per-call overhead is paid once).  With ``return_exceptions``
        the failures — typed application errors and :class:`NetworkError`
        alike — come back in-place instead of raising, so bulk callers
        keep per-request outcomes exactly as the in-process bulk APIs
        return them.
        """
        if self._closed:
            raise NetworkError("rpc client is closed")
        trace = obs_trace.current_context()
        envelope = list(trace.to_wire()) if trace is not None else None
        prepared = [
            (method, *self._frame(method, params, envelope)) for method, params in requests
        ]

        async def run_all():
            return await asyncio.gather(
                *(
                    self._call_async(method, request_id, frame)
                    for method, request_id, frame in prepared
                ),
                return_exceptions=True,
            )

        if not prepared:
            return []
        outcomes = get_reactor().submit(run_all()).result(self._result_cap)
        results: List[Any] = []
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                failure: Exception = (
                    outcome
                    if isinstance(outcome, Exception)
                    else NetworkError(str(outcome))
                )
            else:
                response, timing = outcome
                _charge(*timing)
                error = response.get("error")
                if error is None:
                    results.append(wire.decode(response.get("result")))
                    continue
                failure = wire.decode(error)
            if not return_exceptions:
                raise failure
            results.append(failure)
        return results

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-address connection stats (connections, requests, windows)."""
        if self._closed or not self._channels:
            return {}
        try:
            return get_reactor().submit(self._stats_async()).result(timeout=5.0)
        except Exception:
            return {}

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._channels:
            try:
                get_reactor().submit(self._shutdown_async()).result(timeout=5.0)
            except Exception:
                pass

    def __enter__(self) -> "RpcClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
