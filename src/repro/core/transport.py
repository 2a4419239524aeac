"""Pluggable transport: how client operations reach the service processes.

The batch engine in :mod:`repro.core.client` sequences the *protocol* (the
five steps of the paper's write path, the snapshot/lookup/fetch read path);
a :class:`Transport` decides how the resulting messages actually travel and
what they cost:

* :class:`DirectTransport` — today's wiring: plain in-process calls, with
  chunk transfers of a batch fanned out across a shared worker pool and
  phase durations measured in wall time (the metadata DHT fans its
  per-provider bulk requests out over the same shared pool);
* :class:`SimTransport` — the same operations routed through the
  :mod:`repro.sim.network` latency/bandwidth models: every chunk transfer
  occupies the client uplink and the provider downlink, every control RPC
  pays latency plus a service time at a (contended) manager node, and every
  metadata access is charged against a metadata-provider node.  Payloads
  still move for real through the deployment's stores, so results are
  byte-exact — only *time* is simulated, which is what lets a benchmark
  measure honestly how much a pipelined batch gains over sequential calls.

Transports deal in two job types — :class:`ChunkPush` and
:class:`ChunkFetch` — tagged with the index of the batch operation they
belong to, so one data-plane phase can interleave the transfers of many
operations (the paper's "writers proceed independently", inside one client).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple, TypeVar

from .data_provider import ProviderPool
from .errors import ChunkNotFoundError, ProviderUnavailableError
from .types import ChunkKey

T = TypeVar("T")

#: Control-plane services a transport knows how to reach.  The version
#: manager is a *sharded* service: requests carry the owning shard's index
#: so the wiring can charge the right coordinator machine.
CONTROL_SERVICES = ("version_manager", "provider_manager")


@dataclass(frozen=True, slots=True)
class ControlCall:
    """One control-plane request, addressed to a shard of a service.

    ``units`` is the number of logical operations folded into this round —
    a bulk ``register_writes_bulk`` of 32 specs is *one* round trip but
    still 32 serialised assignments at the coordinator, and an honest
    transport charges its service time accordingly.

    ``trace`` (optional) is the :class:`~repro.obs.trace.TraceContext` this
    round belongs to.  Concurrent transports run ``fn`` on pool workers
    where the caller's context variable does not flow, so the engine pins
    the context here and the transport re-activates it around the call.
    """

    service: str
    fn: Callable[[], Any]
    shard: int = 0
    units: int = 1
    trace: Optional[Any] = None


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
# Shared worker pool (DirectTransport fan-out)
# ---------------------------------------------------------------------------

_EXECUTOR_LOCK = threading.Lock()
_EXECUTOR: Optional[ThreadPoolExecutor] = None


def _shared_executor(max_workers: int) -> ThreadPoolExecutor:
    """Process-wide worker pool shared by every DirectTransport.

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


def parallel_map(
    thunks: Sequence[Callable[[], T]], max_workers: int = 8, min_parallel: int = 2
) -> List[T]:
    """Run independent thunks on the shared worker pool, preserving order.

    Falls back to inline execution when there are fewer than
    ``min_parallel`` thunks — fan-out only pays off when there is fan-out.
    Exceptions propagate from whichever thunk raised first (by position).
    """
    if len(thunks) < max(2, min_parallel):
        return [thunk() for thunk in thunks]
    executor = _shared_executor(max_workers)
    return [future.result() for future in [executor.submit(t) for t in thunks]]


# ---------------------------------------------------------------------------
# Transport protocol
# ---------------------------------------------------------------------------


class Transport:
    """Abstract wiring between a client and the deployment's processes.

    Subclasses implement the clock, the control-plane call, the bulk
    data-plane transfer and metadata-traffic accounting.  The batch engine
    is written against exactly this surface, so new backends (an async or
    RPC transport) slot in without touching protocol logic.
    """

    name = "abstract"

    def now(self) -> float:
        """Current time on this transport's clock (wall or simulated)."""
        raise NotImplementedError

    def control(
        self, service: str, fn: Callable[[], T], shard: int = 0, units: int = 1
    ) -> T:
        """Execute one control-plane request against ``service``.

        ``service`` is one of :data:`CONTROL_SERVICES`; ``shard`` selects
        which coordinator shard the request is addressed to (services with
        one process ignore it); ``units`` is the number of serialised
        operations the round carries (bulk rounds pay latency once but
        service time per operation).  The transport charges whatever the
        round trip costs, then runs ``fn``.
        """
        raise NotImplementedError

    def control_many(self, calls: Sequence[ControlCall]) -> List[Tuple[Any, float]]:
        """Execute independent control rounds, as concurrently as possible.

        The batch engine uses this to fan a batch's per-shard commit rounds
        out in parallel: requests to *different* shards proceed
        concurrently, requests to the same shard queue at that shard.  The
        default is sequential execution (correct for any wiring); concurrent
        transports override it.  Returns one ``(result, completed_at)``
        pair per call, in call order — the completion timestamp is each
        round's own finish on this transport's clock, so concurrent rounds
        against shards of different load report different times.  The first
        exception (by position) propagates.
        """
        results = []
        for call in calls:
            value = self.control(call.service, call.fn, shard=call.shard, units=call.units)
            results.append((value, self.now()))
        return results

    def transfer(
        self, pushes: Sequence[ChunkPush], fetches: Sequence[ChunkFetch]
    ) -> Tuple[List[PushOutcome], List[FetchOutcome]]:
        """Move all chunks of one batch phase, as concurrently as the wiring allows."""
        raise NotImplementedError

    def record_metadata(self, fn: Callable[[], T]) -> Tuple[T, Any]:
        """Run a metadata operation (tree lookup / weave) and capture its cost.

        Returns ``(value, token)``; the token is transport-specific and is
        redeemed through :meth:`replay_metadata`, which allows a batch to
        charge the metadata rounds of many operations concurrently.
        """
        raise NotImplementedError

    def replay_metadata(self, tokens: Sequence[Any], leveled: bool = False) -> List[float]:
        """Charge the captured metadata traffic; one duration per token.

        All tokens are charged concurrently (each belongs to an independent
        operation).  ``leveled=True`` models a tree *lookup*: within one
        token, accesses at the same tree depth run in parallel but depths
        are sequential (a parent must be read before its children are
        known).  Writers' weaves (``leveled=False``) are fully parallel.
        """
        raise NotImplementedError

    def take_net_timings(self) -> Tuple[float, float, float]:
        """Drain the calling thread's accumulated (connect, send, wait) time.

        In-process transports return zeros; a networked transport returns
        the socket time its proxy calls accumulated since the last drain,
        which is how the batch engine attributes network cost to individual
        operations without the transport knowing protocol phases.
        """
        return (0.0, 0.0, 0.0)

    def control_many_timed(
        self, calls: Sequence[ControlCall]
    ) -> List[Tuple[Any, float, Tuple[float, float, float]]]:
        """:meth:`control_many`, plus each round's network breakdown.

        Returns ``(result, completed_at, (connect, send, wait))`` per call.
        The default wraps :meth:`control_many` with zero network time —
        correct for every in-process wiring.
        """
        return [
            (value, completed_at, (0.0, 0.0, 0.0))
            for value, completed_at in self.control_many(calls)
        ]

    def close(self) -> None:  # pragma: no cover - default is stateless
        """Release transport-held resources (nothing by default)."""


# ---------------------------------------------------------------------------
# DirectTransport: in-process calls + worker-pool fan-out
# ---------------------------------------------------------------------------


class DirectTransport(Transport):
    """The in-process wiring the repository always had, behind the new surface.

    Control calls are plain method invocations; chunk transfers of a batch
    are fanned out across the shared worker pool when the batch is large
    enough for threads to pay for themselves (many jobs or big payloads —
    small functional-test writes stay inline and fast).
    """

    name = "direct"

    def __init__(
        self,
        pool: ProviderPool,
        max_workers: int = 8,
        parallel_threshold_bytes: int = 256 * 1024,
    ) -> None:
        self._pool = pool
        self._max_workers = max(1, max_workers)
        self._parallel_threshold_bytes = parallel_threshold_bytes

    @classmethod
    def for_deployment(cls, deployment, **kwargs: Any) -> "DirectTransport":
        return cls(deployment.provider_pool, **kwargs)

    # -- clock / control ---------------------------------------------------------
    def now(self) -> float:
        return time.perf_counter()

    def control(
        self, service: str, fn: Callable[[], T], shard: int = 0, units: int = 1
    ) -> T:
        return fn()

    def control_many(self, calls: Sequence[ControlCall]) -> List[Tuple[Any, float]]:
        # Rounds to different shards hold different locks, so fanning them
        # out over the worker pool is real parallelism, not just shape.
        return parallel_map(
            [(lambda call=call: (call.fn(), self.now())) for call in calls],
            max_workers=self._max_workers,
        )

    # -- data plane ----------------------------------------------------------------
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
        start = self.now()
        try:
            stored: List[str] = []
            for pid in job.providers:
                if self._pool.write_chunk([pid], job.key, job.data):
                    stored.append(pid)
            outcome.replicas_stored = len(stored)
            outcome.providers_stored = tuple(stored)
        except Exception as exc:  # defensive: store-level failures stay per-job
            outcome.error = exc
        outcome.elapsed = self.now() - start
        return outcome

    def _do_fetch(self, job: ChunkFetch) -> FetchOutcome:
        outcome = FetchOutcome(job=job)
        start = self.now()
        try:
            outcome.payload = self._pool.read_chunk(list(job.providers), job.key)
        except (ProviderUnavailableError, ChunkNotFoundError) as exc:
            outcome.error = exc
        outcome.elapsed = self.now() - start
        return outcome

    # -- metadata ------------------------------------------------------------------
    def record_metadata(self, fn: Callable[[], T]) -> Tuple[T, float]:
        start = self.now()
        value = fn()
        return value, self.now() - start

    def replay_metadata(self, tokens: Sequence[Any], leveled: bool = False) -> List[float]:
        # Direct metadata work already happened in real time inside
        # record_metadata; the token *is* the measured duration.
        return [float(token) for token in tokens]


# ---------------------------------------------------------------------------
# SimTransport: the same operations on simulated time
# ---------------------------------------------------------------------------


@dataclass
class _SimMetadataToken:
    """Recorded metadata accesses of one operation, awaiting time charging.

    Each entry is ``(provider_id, op, payload)`` exactly as the DHT's
    ``access_hook`` fired it: bulk ops (``get_many``/``put_many``) carry the
    tuple of keys one per-provider bulk request grouped — the per-level
    provider groupings the replay needs to charge a level as the *max* over
    providers instead of the sum — and scalar ops carry one key.
    """

    accesses: List[Tuple[str, str, Any]] = field(default_factory=list)


def _access_level(op: str, payload: Any) -> int:
    """Tree level of one recorded access (node size; bulk keys share a level)."""
    if op in ("get", "put"):
        return getattr(payload, "size", 0)
    return max((getattr(key, "size", 0) for key in payload), default=0)


def _access_count(op: str, payload: Any) -> int:
    """Number of logical node operations one recorded access carries."""
    if op in ("get", "put"):
        return 1
    return max(1, len(payload))


def charge_metadata_accesses(
    env, all_of_fn, model, rpc_to, accesses, leveled: bool, name: str = "sim.meta"
):
    """Charge recorded metadata accesses on simulated time (a generator).

    The one cost model shared by :meth:`SimTransport.replay_metadata` and
    the simulated cluster's client replay: an access (one
    ``get_many``/``put_many`` request per provider, as the DHT fires them)
    costs a single round trip carrying ``n`` nodes' payload and ``n``
    service times at that provider's CPU, with the providers of one round
    running in parallel — a level costs the max over its providers.  A
    scalar access is a one-node round.  ``leveled=True`` additionally
    orders rounds root-level first, parents before children, as a tree
    lookup must.

    ``rpc_to(pid, request_bytes, response_bytes, service)`` must return the
    caller's request/response generator against provider ``pid``'s node.
    """

    def one_access(pid: str, op: str, payload: Any):
        count = _access_count(op, payload)
        service = model.metadata_service * count
        if op in ("put", "put_many"):
            yield from rpc_to(pid, model.metadata_node_bytes * count, 64, service)
        else:
            yield from rpc_to(pid, 64 * count, model.metadata_node_bytes * count, service)

    def charge_group(entries):
        children = [
            env.process(one_access(pid, op, payload), name=name)
            for pid, op, payload in entries
        ]
        if children:
            yield all_of_fn(env, children)

    if leveled:
        levels: dict = {}
        for pid, op, payload in accesses:
            levels.setdefault(_access_level(op, payload), []).append((pid, op, payload))
        for size in sorted(levels, reverse=True):
            yield from charge_group(levels[size])
    else:
        yield from charge_group(list(accesses))


class SimTransport(Transport):
    """Route client operations through the :mod:`repro.sim.network` models.

    The transport owns a private discrete-event :class:`~repro.sim.engine.
    Environment` with one :class:`~repro.sim.network.SimNode` per process it
    talks to (the client itself, the version and provider managers, every
    data and metadata provider).  Payloads are moved for real through the
    deployment (so reads return byte-exact data); the simulation charges
    NIC serialisation, propagation latency and per-request service times,
    and the transport's clock advances accordingly.  Sequential operations
    therefore accumulate simulated time, while one batch's transfers share
    the event loop and overlap — the difference *is* the pipelining gain.
    """

    name = "sim"

    def __init__(
        self,
        pool: ProviderPool,
        metadata_store,
        model=None,
        client_id: str = "client",
        num_version_shards: int = 1,
    ) -> None:
        # Imported lazily: core must stay importable without the sim package
        # (and the sim package imports core, so a top-level import cycles).
        from ..sim.engine import Environment
        from ..sim.network import NetworkModel, SimNode

        self._pool = pool
        self._metadata_store = metadata_store
        self.model = model if model is not None else NetworkModel()
        self.env = Environment()
        self.client_node = SimNode(self.env, f"{client_id}.nic", self.model, role="client")
        #: One simulated machine per version-coordinator shard: commit RPCs
        #: are charged to the *owning shard's* node, so a single hot shard
        #: queues while spread-out commits proceed in parallel.
        self.version_manager_nodes = [
            SimNode(
                self.env,
                f"version-manager-{index:03d}",
                self.model,
                role="version_manager",
            )
            for index in range(max(1, num_version_shards))
        ]
        self.provider_manager_node = SimNode(
            self.env, "provider-manager", self.model, role="provider_manager"
        )
        self.data_nodes = {
            pid: SimNode(self.env, pid, self.model, role="data_provider")
            for pid in pool.provider_ids
        }
        self.meta_nodes = {
            mid: SimNode(self.env, mid, self.model, role="metadata_provider")
            for mid in metadata_store.provider_ids
        }

    @classmethod
    def for_deployment(cls, deployment, model=None, client_id: str = "client") -> "SimTransport":
        return cls(
            deployment.provider_pool,
            deployment.metadata_store,
            model=model,
            client_id=client_id,
            num_version_shards=getattr(deployment.version_manager, "num_shards", 1),
        )

    @property
    def version_manager_node(self):
        """The first coordinator shard's machine (single-shard compatibility)."""
        return self.version_manager_nodes[0]

    # -- clock / control ---------------------------------------------------------
    def now(self) -> float:
        return self.env.now

    def _service_node(self, service: str, shard: int = 0):
        if service == "version_manager":
            # The coordinator is elastic: a shard added at runtime gets its
            # machine materialised on first contact.
            from ..sim.network import ensure_version_manager_node

            node = ensure_version_manager_node(
                self.env, self.model, self.version_manager_nodes, shard
            )
            return node, self.model.version_manager_service
        if service == "provider_manager":
            return self.provider_manager_node, self.model.provider_manager_service
        raise ValueError(f"unknown control service {service!r}")

    def control(
        self, service: str, fn: Callable[[], T], shard: int = 0, units: int = 1
    ) -> T:
        value, _ = self.control_many(
            [ControlCall(service, fn, shard=shard, units=units)]
        )[0]
        return value

    def control_many(self, calls: Sequence[ControlCall]) -> List[Tuple[Any, float]]:
        """Run independent control rounds concurrently on simulated time.

        Each round pays one request/response exchange with its shard's
        machine plus ``units`` service times at that machine's CPU (a bulk
        round saves the round trips, not the serialised work).  Rounds to
        different shards overlap; rounds to the same shard queue at its
        single-capacity CPU — exactly the contention the sharding removes.
        Each call's completion timestamp is its own round's finish, so a
        round against an idle shard reports an earlier time than one queued
        behind a hot shard.
        """
        results: List[Tuple[Any, float]] = [(None, 0.0)] * len(calls)

        def round_trip(index: int, call: ControlCall):
            node, service_time = self._service_node(call.service, call.shard)
            yield from self.client_node.rpc(
                node, service=service_time * max(1, call.units)
            )
            results[index] = (call.fn(), self.env.now)

        processes = [
            self.env.process(round_trip(index, call), name=f"control.{call.service}")
            for index, call in enumerate(calls)
        ]
        self.env.run()
        for process in processes:
            if process.exception is not None:
                raise process.exception
        return results

    # -- data plane ----------------------------------------------------------------
    def _data_node(self, pid: str):
        node = self.data_nodes.get(pid)
        if node is None:  # provider added after transport construction
            from ..sim.network import SimNode

            node = SimNode(self.env, pid, self.model, role="data_provider")
            self.data_nodes[pid] = node
        return node

    def transfer(
        self, pushes: Sequence[ChunkPush], fetches: Sequence[ChunkFetch]
    ) -> Tuple[List[PushOutcome], List[FetchOutcome]]:
        push_outcomes = [PushOutcome(job=job) for job in pushes]
        fetch_outcomes = [FetchOutcome(job=job) for job in fetches]
        start = self.env.now
        processes = []
        for outcome in push_outcomes:
            processes.append(
                self.env.process(self._sim_push(outcome, start), name="sim.push")
            )
        for outcome in fetch_outcomes:
            processes.append(
                self.env.process(self._sim_fetch(outcome, start), name="sim.fetch")
            )
        self.env.run()
        return push_outcomes, fetch_outcomes

    def _sim_push(self, outcome: PushOutcome, start: float):
        """One chunk to each replica: uplink → latency → downlink → service."""
        job = outcome.job
        stored: List[str] = []
        for pid in job.providers:
            provider = self._pool.get(pid)
            node = self._data_node(pid)
            if not provider.alive or not node.alive:
                continue
            yield from self.client_node.send_to(node, len(job.data))
            yield from node.cpu.serve(self.model.chunk_service)
            if self._pool.write_chunk([pid], job.key, job.data):
                stored.append(pid)
        outcome.replicas_stored = len(stored)
        outcome.providers_stored = tuple(stored)
        outcome.elapsed = self.env.now - start

    def _sim_fetch(self, outcome: FetchOutcome, start: float):
        """Request to the first live replica, payload back over its uplink."""
        job = outcome.job
        target = None
        for pid in job.providers:
            provider = self._pool.get(pid)
            node = self.data_nodes.get(pid)
            if provider.alive and node is not None and node.alive:
                target = node
                break
        if target is not None:
            yield from self.client_node.send_to(target, 128)
            yield from target.cpu.serve(self.model.chunk_service)
            yield from target.send_to(self.client_node, job.length)
        try:
            outcome.payload = self._pool.read_chunk(list(job.providers), job.key)
        except (ProviderUnavailableError, ChunkNotFoundError) as exc:
            outcome.error = exc
        outcome.elapsed = self.env.now - start

    # -- metadata ------------------------------------------------------------------
    def record_metadata(self, fn: Callable[[], T]) -> Tuple[T, _SimMetadataToken]:
        token = _SimMetadataToken()

        def hook(provider_id: str, op: str, key: Any) -> None:
            token.accesses.append((provider_id, op, key))

        previous = self._metadata_store.access_hook
        self._metadata_store.access_hook = hook
        try:
            value = fn()
        finally:
            self._metadata_store.access_hook = previous
        return value, token

    def replay_metadata(self, tokens: Sequence[Any], leveled: bool = False) -> List[float]:
        """Charge the recorded metadata traffic on simulated time.

        Each token's accesses are charged by
        :func:`charge_metadata_accesses`: per-provider bulk requests in
        parallel, so a level costs the max over its providers.  Tokens
        belong to independent operations and replay concurrently.
        """
        from ..sim.engine import all_of

        start = self.env.now
        durations = [0.0] * len(tokens)

        def rpc_to(pid: str, request_bytes: int, response_bytes: int, service: float):
            return self.client_node.rpc(
                self.meta_nodes[pid],
                request_bytes=request_bytes,
                response_bytes=response_bytes,
                service=service,
            )

        def one_token(index: int, token: _SimMetadataToken):
            yield from charge_metadata_accesses(
                self.env, all_of, self.model, rpc_to, token.accesses, leveled
            )
            durations[index] = self.env.now - start

        processes = [
            self.env.process(one_token(index, token), name="sim.meta.round")
            for index, token in enumerate(tokens)
        ]
        if processes:
            self.env.run()
        return durations
