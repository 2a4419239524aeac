"""Pluggable transport: how client operations reach the service processes.

The batch engine in :mod:`repro.core.client` sequences the *protocol* (the
five steps of the paper's write path, the snapshot/lookup/fetch read path);
a :class:`Transport` decides how the resulting messages actually travel.
:class:`DirectTransport` makes plain in-process calls, with the chunk
transfers and control rounds of a batch fanned out across a shared worker
pool (the metadata DHT fans its per-provider bulk requests out over the
same pool); :class:`~repro.net.transport.NetworkTransport` sends them over
sockets.  Both measure phases in wall time.  The paper's curves in
simulated time come from :mod:`repro.sim`, not from a transport.

Transports deal in two job types — :class:`ChunkPush` and
:class:`ChunkFetch` — tagged with the index of the batch operation they
belong to, so one data-plane phase can interleave the transfers of many
operations (the paper's "writers proceed independently", inside one client).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple, TypeVar

from ..obs import trace as obs_trace
from .data_provider import ProviderPool
from .errors import ChunkNotFoundError, ProviderUnavailableError
from .types import ChunkKey

T = TypeVar("T")


@dataclass(frozen=True, slots=True)
class ControlCall:
    """One control-plane round of a batch (a publish).

    ``trace`` (optional) is the :class:`~repro.obs.trace.TraceContext` this
    round belongs to.  Transports run ``fn`` on pool workers where the
    caller's context variable does not flow, so the engine pins the
    context here and :meth:`run` re-activates it around the call.
    """

    fn: Callable[[], Any]
    trace: Optional[Any] = None

    def run(self) -> Any:
        with obs_trace.activate(self.trace):
            return self.fn()


# ---------------------------------------------------------------------------
# Data-plane job descriptions and outcomes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ChunkPush:
    """Push one chunk to its replica set (steps 1-2 of the write protocol)."""

    op_index: int
    providers: Tuple[str, ...]
    key: ChunkKey
    data: bytes
    #: Trace context of the owning batch op (ridden into RPC envelopes by
    #: networked transports; in-process transports ignore it).
    trace: Optional[Any] = None


@dataclass(frozen=True, slots=True)
class ChunkFetch:
    """Fetch one fragment's chunk from the first live replica holding it."""

    op_index: int
    providers: Tuple[str, ...]
    key: ChunkKey
    #: Bytes of the fragment actually needed (what travels on the wire).
    length: int
    #: Trace context of the owning batch op (see :class:`ChunkPush`).
    trace: Optional[Any] = None


@dataclass(slots=True)
class PushOutcome:
    job: ChunkPush
    replicas_stored: int = 0
    providers_stored: Tuple[str, ...] = ()
    elapsed: float = 0.0
    error: Optional[BaseException] = None
    #: Network breakdown of this job (zero on in-process transports):
    #: time establishing connections, serialising+writing requests, and
    #: blocked on responses.
    connect_seconds: float = 0.0
    send_seconds: float = 0.0
    wait_seconds: float = 0.0


@dataclass(slots=True)
class FetchOutcome:
    job: ChunkFetch
    payload: Optional[bytes] = None
    elapsed: float = 0.0
    error: Optional[BaseException] = None
    connect_seconds: float = 0.0
    send_seconds: float = 0.0
    wait_seconds: float = 0.0


# ---------------------------------------------------------------------------
# Shared worker pool
# ---------------------------------------------------------------------------

_EXECUTOR_LOCK = threading.Lock()
_EXECUTOR: Optional[ThreadPoolExecutor] = None


def _shared_executor(max_workers: int) -> ThreadPoolExecutor:
    """Process-wide worker pool shared by every transport and client.

    A single shared pool keeps thread counts bounded no matter how many
    clients a test or benchmark creates; workers are spawned lazily.
    """
    global _EXECUTOR
    with _EXECUTOR_LOCK:
        if _EXECUTOR is None:
            _EXECUTOR = ThreadPoolExecutor(
                max_workers=max_workers, thread_name_prefix="blobseer-io"
            )
        return _EXECUTOR


def parallel_map(thunks: Sequence[Callable[[], T]], max_workers: int = 8) -> List[T]:
    """Run independent thunks on the shared worker pool, preserving order.

    A single thunk runs inline — fan-out only pays off when there is fan-out.
    Exceptions propagate from whichever thunk raised first (by position).
    """
    if len(thunks) < 2:
        return [thunk() for thunk in thunks]
    executor = _shared_executor(max_workers)
    return [future.result() for future in [executor.submit(t) for t in thunks]]


# ---------------------------------------------------------------------------
# Transport protocol
# ---------------------------------------------------------------------------


class Transport:
    """Abstract wiring between a client and the deployment's processes.

    Subclasses implement the bulk data-plane transfer; control requests run
    inline and a batch's control rounds fan out over the shared worker
    pool.  The batch engine is written against exactly this surface, and
    phases are timed in wall-clock seconds (``time.perf_counter``).
    """

    name = "abstract"

    def __init__(self, max_workers: int = 8) -> None:
        self._max_workers = max(1, max_workers)

    def control(self, fn: Callable[[], T]) -> T:
        """Execute one control-plane request."""
        return fn()

    def control_many_timed(
        self, calls: Sequence[ControlCall]
    ) -> List[Tuple[Any, float, Tuple[float, float, float]]]:
        """Execute independent control rounds concurrently.

        The batch engine fans a batch's per-blob publish rounds out with
        this: rounds to different shards hold different locks, so running
        them on pool workers is real parallelism.  Returns
        ``(result, completed_at, (connect, send, wait))`` per call, in call
        order — ``completed_at`` is each round's own finish, and the
        triple its network breakdown (zeros in-process).  The first
        exception (by position) propagates.
        """
        return parallel_map(
            [(lambda call=call: self._control_round(call)) for call in calls],
            max_workers=self._max_workers,
        )

    def _control_round(
        self, call: ControlCall
    ) -> Tuple[Any, float, Tuple[float, float, float]]:
        # The round's requests are resolved on the thread that runs it, so
        # the take after ``run`` is exactly this round's network time; the
        # take before discards what an earlier job left on a pool worker.
        self.take_net_timings()
        value = call.run()
        return value, time.perf_counter(), self.take_net_timings()

    def transfer(
        self, pushes: Sequence[ChunkPush], fetches: Sequence[ChunkFetch]
    ) -> Tuple[List[PushOutcome], List[FetchOutcome]]:
        """Move all chunks of one batch phase, as concurrently as the wiring allows."""
        raise NotImplementedError

    def take_net_timings(self) -> Tuple[float, float, float]:
        """Return and reset the calling thread's (connect, send, wait) tally.

        In-process transports return zeros; a networked transport returns
        the RPC layer's per-thread tally (:func:`repro.net.rpc.take_timings`):
        the socket time of every request this thread resolved since its last
        take.  That is how the batch engine attributes network cost to
        individual operations without the transport knowing protocol phases.
        """
        return (0.0, 0.0, 0.0)

    def close(self) -> None:  # pragma: no cover - default is stateless
        """Release transport-held resources (nothing by default)."""


# ---------------------------------------------------------------------------
# DirectTransport: in-process calls + worker-pool fan-out
# ---------------------------------------------------------------------------


class DirectTransport(Transport):
    """The in-process wiring: plain method calls plus worker-pool fan-out.

    Chunk transfers of a batch are fanned out across the shared worker pool
    when the batch is large enough for threads to pay for themselves (many
    jobs or big payloads — small functional-test writes stay inline and
    fast).
    """

    name = "direct"

    def __init__(
        self,
        pool: ProviderPool,
        max_workers: int = 8,
        parallel_threshold_bytes: int = 256 * 1024,
    ) -> None:
        super().__init__(max_workers)
        self._pool = pool
        self._parallel_threshold_bytes = parallel_threshold_bytes

    @classmethod
    def for_deployment(cls, deployment, **kwargs: Any) -> "DirectTransport":
        return cls(deployment.provider_pool, **kwargs)

    def transfer(
        self, pushes: Sequence[ChunkPush], fetches: Sequence[ChunkFetch]
    ) -> Tuple[List[PushOutcome], List[FetchOutcome]]:
        thunks: List[Callable[[], Any]] = [
            (lambda job=job: self._do_push(job)) for job in pushes
        ]
        thunks.extend((lambda job=job: self._do_fetch(job)) for job in fetches)
        total_bytes = sum(len(p.data) for p in pushes) + sum(f.length for f in fetches)
        if len(thunks) > 1 and total_bytes >= self._parallel_threshold_bytes:
            outcomes = parallel_map(thunks, max_workers=self._max_workers)
        else:
            outcomes = [thunk() for thunk in thunks]
        return outcomes[: len(pushes)], outcomes[len(pushes) :]

    def _do_push(self, job: ChunkPush) -> PushOutcome:
        outcome = PushOutcome(job=job)
        start = time.perf_counter()
        try:
            stored: List[str] = []
            for pid in job.providers:
                if self._pool.write_chunk([pid], job.key, job.data):
                    stored.append(pid)
            outcome.replicas_stored = len(stored)
            outcome.providers_stored = tuple(stored)
        except Exception as exc:  # defensive: store-level failures stay per-job
            outcome.error = exc
        outcome.elapsed = time.perf_counter() - start
        return outcome

    def _do_fetch(self, job: ChunkFetch) -> FetchOutcome:
        outcome = FetchOutcome(job=job)
        start = time.perf_counter()
        try:
            outcome.payload = self._pool.read_chunk(list(job.providers), job.key)
        except (ProviderUnavailableError, ChunkNotFoundError) as exc:
            outcome.error = exc
        outcome.elapsed = time.perf_counter() - start
        return outcome
