"""NetworkTransport: the Transport protocol over real sockets.

Same surface as :class:`~repro.core.transport.DirectTransport`, different
wiring: chunk pushes and fetches travel to the data-provider server
processes as framed RPCs.  Since PR 7 the data plane is *threadless*: a
``transfer`` submits every push replica and every fetch's first hop as
pipelined requests through the RPC reactor (``rpc.submit``) before
waiting on anything, so a whole batch's chunks are on the wire in the
order the plan produced them and responses are collected as they demux —
no worker thread per RPC.  Control-plane closures still run on
``parallel_map`` worker threads (the thread is a cheap *waiter* now; the
RPCs inside pipeline over the shared reactor connections).

Network time comes from one place: the RPC layer's per-thread tally
(:func:`~repro.net.rpc.take_timings`).  Every request is resolved on the
thread that submitted it, so ``take_net_timings`` hands the batch engine
its own thread's seconds, a control round's take is that round's, and
``transfer`` takes the tally once per job as it collects the job's
replies — the batch engine's phase timings stay honest without it knowing
which transport it runs on.

Failure handling is the msgbox idiom at two levels: the per-service
:class:`~repro.net.rpc.RpcClient` retries over its address list with
backoff, and the data plane treats a push replica that cannot be reached
as a skipped replica (the write survives while ``replicas_stored >= 1``)
and walks a fetch's replica list until one holds the chunk.
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.errors import ChunkNotFoundError, ProviderUnavailableError
from ..core.transport import (
    ChunkFetch,
    ChunkPush,
    FetchOutcome,
    PushOutcome,
    Transport,
)
from .rpc import NetworkError, RpcFuture, take_timings

#: Failures that mean "this replica/hop is unavailable", not "the store
#: rejected the operation": walk to the next provider.
_HOP_ERRORS = (NetworkError, ProviderUnavailableError, FutureTimeoutError)


class NetworkTransport(Transport):
    """Client wiring over localhost (or any) TCP to the server processes."""

    name = "network"

    def __init__(
        self,
        provider_rpcs: Dict[str, Any],
        max_workers: int = 8,
    ) -> None:
        super().__init__(max_workers)
        #: provider id -> RpcClient for that data-provider process.
        self._providers = provider_rpcs

    @classmethod
    def for_deployment(cls, deployment, **kwargs: Any) -> "NetworkTransport":
        return cls(deployment.provider_rpcs, **kwargs)

    def take_net_timings(self) -> Tuple[float, float, float]:
        return take_timings()

    # -- data plane ----------------------------------------------------------------
    def transfer(
        self, pushes: Sequence[ChunkPush], fetches: Sequence[ChunkFetch]
    ) -> Tuple[List[PushOutcome], List[FetchOutcome]]:
        # Each job's network seconds ride its outcome: its collect resolves
        # only its own futures, then takes this thread's tally.  So the
        # transfer leaves nothing in the tally for the engine's next
        # take_net_timings() to count twice (and the engine takes its own
        # before calling, so the first job inherits nothing).
        start = time.perf_counter()
        # Submit phase: every push replica and every fetch's first hop goes
        # onto the wire (window permitting) before anything blocks.
        push_futs: List[List[Tuple[str, Optional[RpcFuture]]]] = [
            [(pid, self._submit_put(pid, job)) for pid in job.providers]
            for job in pushes
        ]
        fetch_futs: List[Tuple[int, Optional[RpcFuture]]] = []
        for job in fetches:
            hop, fut = self._submit_get_from(job, 0)
            fetch_futs.append((hop, fut))
        # Collect phase, in plan order: replica results arrive demuxed in any
        # order but providers_stored keeps the job's replica ordering.
        push_outcomes = [
            self._collect_push(job, futs, start)
            for job, futs in zip(pushes, push_futs)
        ]
        fetch_outcomes = [
            self._collect_fetch(job, hop, fut, start)
            for job, (hop, fut) in zip(fetches, fetch_futs)
        ]
        return push_outcomes, fetch_outcomes

    def _submit_put(self, pid: str, job: ChunkPush) -> Optional[RpcFuture]:
        rpc = self._providers.get(pid)
        if rpc is None:
            return None
        try:
            return rpc.submit(
                "put_chunk", {"key": job.key, "data": job.data}, trace=job.trace
            )
        except NetworkError:
            return None

    def _submit_get_from(
        self, job: ChunkFetch, first_hop: int
    ) -> Tuple[int, Optional[RpcFuture]]:
        """Submit the fetch to the first *wired* provider at or after ``first_hop``."""
        for hop in range(first_hop, len(job.providers)):
            rpc = self._providers.get(job.providers[hop])
            if rpc is None:
                continue
            try:
                return hop, rpc.submit("get_chunk", {"key": job.key}, trace=job.trace)
            except NetworkError:
                continue
        return len(job.providers), None

    def _collect_push(
        self, job: ChunkPush, futs: Sequence[Tuple[str, Optional[RpcFuture]]], start: float
    ) -> PushOutcome:
        outcome = PushOutcome(job=job)
        stored: List[str] = []
        for pid, fut in futs:
            if fut is None:
                continue
            try:
                fut.result()
                stored.append(pid)
            except _HOP_ERRORS:
                # Replica unreachable (process killed): skip it — the write
                # survives as long as one replica stores the chunk, exactly
                # as Direct mode treats a crashed provider.
                pass
            except Exception as exc:  # defensive: store-level failures stay per-job
                if outcome.error is None:
                    outcome.error = exc
        outcome.replicas_stored = len(stored)
        outcome.providers_stored = tuple(stored)
        # Pipelined jobs overlap, so per-job elapsed is measured from the
        # shared submit point — an upper bound per job, honest in total.
        outcome.elapsed = time.perf_counter() - start
        outcome.connect_seconds, outcome.send_seconds, outcome.wait_seconds = (
            take_timings()
        )
        return outcome

    def _collect_fetch(
        self, job: ChunkFetch, hop: int, fut: Optional[RpcFuture], start: float
    ) -> FetchOutcome:
        outcome = FetchOutcome(job=job)
        last_error: Exception = ProviderUnavailableError(
            job.providers[0] if job.providers else "?"
        )
        while fut is not None:
            try:
                outcome.payload = fut.result()
                break
            except _HOP_ERRORS + (ChunkNotFoundError,) as exc:
                last_error = exc
                hop, fut = self._submit_get_from(job, hop + 1)
        else:
            outcome.error = last_error
        outcome.elapsed = time.perf_counter() - start
        outcome.connect_seconds, outcome.send_seconds, outcome.wait_seconds = (
            take_timings()
        )
        return outcome
