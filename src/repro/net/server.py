"""Asyncio TCP servers hosting the in-process services unchanged.

One process hosts one service instance — exactly the objects
``BlobSeerDeployment`` composes in-process, constructed the same way and
driven through the same methods, only reached through framed RPCs instead
of direct calls:

* ``provider`` — a :class:`~repro.core.data_provider.DataProvider`;
* ``meta`` — a DHT store node (:class:`~repro.dht.store.KeyValueStore`);
* ``coordinator`` — one coordinator shard
  (:class:`~repro.core.version_manager.VersionManager`), optionally
  WAL-backed via ``--journal-dir``; every coordinator also carries the
  global blob-id counter RPCs (``alloc_blob_id``/``reserve_blob_id``) but
  the deployment only drives shard 0's, which makes ids unique and
  monotonic across shards (not dense — probed ids are discarded, matching
  the in-process coordinator's documented id semantics);
* ``standby`` — a hot standby for one coordinator shard, following the
  primary's journal and serving the shard after ``take_over``;
* ``pmgr`` — a :class:`~repro.core.provider_manager.ProviderManager` over
  a bookkeeping pool that mirrors the provider fleet (placement state
  lives here; the bytes live in the provider processes, so the pool's
  ``chunks_stored`` stays 0 and only load-aware placement degrades).

Every role also serves ``ping``, ``health`` and the observability RPCs
(``metrics``, ``trace_spans``, ``slow_ops``).

The server accepts any number of connections (listen backlog 256); on
each one, requests are dispatched as they arrive — handlers run inline
on the event loop (they are GIL-bound in-memory calls; a thread handoff
would cost two context switches per request for no parallelism) up to a
per-connection in-flight bound, past which the read loop stops consuming
and TCP backpressure throttles the client — and responses return in
completion order, matched by request id, encoded with the configured
frame codec.  Servers bind port 0 by default
and report the bound address in a one-line JSON ready handshake on
stdout; SIGTERM stops accepting, drains in-flight requests, then exits.

Entrypoint::

    python -m repro.net.server --role coordinator --index 0 \
        --config '<flat BlobSeerConfig json>' [--journal-dir DIR]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import threading
import time
import uuid
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core import errors
from ..core.config import BlobSeerConfig
from ..core.data_provider import DataProvider
from ..core.provider_manager import ProviderManager, ProviderPool
from ..core.version_manager import VersionManager
from ..dht.store import KeyValueStore
from ..obs import configure_observability
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from . import wire
from .frames import FrameDecoder, encode_frame

Handlers = Dict[str, Callable[..., Any]]

#: Wall-clock start of this server process (uptime in ``health`` vitals).
_PROCESS_START = time.time()


def _rss_bytes() -> int:
    """Current resident set size, dependency-free (Linux /proc, then rusage)."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
        return pages * 4096
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:  # pragma: no cover - exotic platforms
        return 0


def _vitals() -> Dict[str, Any]:
    """Liveness-plus-vitals fields merged into every role's ``health``."""
    return {"uptime": time.time() - _PROCESS_START, "rss_bytes": _rss_bytes()}


def _obs_handlers(on_scrape: Optional[Callable[[], None]] = None) -> Handlers:
    """The observability surface every role exposes next to ``health``."""

    def metrics() -> Dict[str, Any]:
        if on_scrape is not None:
            on_scrape()  # refresh point-in-time gauges (backlog, lsn, rss)
        obs_metrics.registry().gauge("process_rss_bytes").set(_rss_bytes())
        return obs_metrics.registry().snapshot()

    return {
        "metrics": metrics,
        "trace_spans": lambda: obs_trace.tracer().drain_dicts(),
        "slow_ops": lambda: obs_trace.tracer().slow_ops(),
    }


def _timed(fn: Callable[..., Any], histogram: str) -> Callable[..., Any]:
    """Record a handler's latency into a registry histogram."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            obs_metrics.registry().histogram(histogram).record(
                time.perf_counter() - started
            )

    return wrapper

#: Gap left above the highest known blob id when a coordinator restarts or a
#: standby takes over.  Ids are allocated in ranges ahead of blob creation
#: and the counter itself is not journaled, so a recovering shard only sees
#: the ids that reached ``create_blob``; skipping a window past them keeps
#: handed-out-but-uncreated ids from being reissued (ids are documented
#: non-dense, so the gap is free).
ID_RESTART_GAP = 1024

#: Batch size cap of one ``journal_stream`` response; a lagging standby
#: drains the backlog over several pulls instead of one giant frame.
STREAM_BATCH_RECORDS = 512


# -- role -> handler tables --------------------------------------------------------


def provider_handlers(index: int, config: BlobSeerConfig) -> Handlers:
    provider = DataProvider(
        provider_id=f"provider-{index:03d}", host=f"host-{index:03d}"
    )

    # put_chunk *is* the landing half of a replica push: latency and bytes
    # feed the metrics plane (the dispatch span in RpcServer covers tracing).
    def put_chunk(key: Any, data: bytes) -> Any:
        started = time.perf_counter()
        result = provider.put_chunk(key, data)
        reg = obs_metrics.registry()
        reg.histogram("provider_put_seconds").record(time.perf_counter() - started)
        reg.counter("provider_put_bytes").inc(len(data))
        return result

    def get_chunk(key: Any, *args: Any, **kwargs: Any) -> bytes:
        started = time.perf_counter()
        data = provider.get_chunk(key, *args, **kwargs)
        reg = obs_metrics.registry()
        reg.histogram("provider_get_seconds").record(time.perf_counter() - started)
        reg.counter("provider_get_bytes").inc(len(data))
        return data

    return {
        "ping": lambda: True,
        "health": lambda: {
            "role": "provider",
            "index": index,
            "serving": provider.alive,
            **_vitals(),
        },
        **_obs_handlers(),
        "put_chunk": put_chunk,
        "get_chunk": get_chunk,
        "delete_chunk": provider.delete_chunk,
        "chunk_keys": provider.chunk_keys,
        "report": provider.report,
        "crash": provider.crash,
        "recover": provider.recover,
        "alive": lambda: provider.alive,
        "chunks_stored": lambda: provider.chunks_stored,
    }


def meta_handlers(index: int, config: BlobSeerConfig) -> Handlers:
    store = KeyValueStore(provider_id=f"meta-{index:03d}")
    return {
        "ping": lambda: True,
        "health": lambda: {
            "role": "meta",
            "index": index,
            "serving": True,
            **_vitals(),
        },
        **_obs_handlers(),
        "put": store.put,
        "get": store.get,
        "get_or_none": store.get_or_none,
        "get_many": store.get_many,
        "put_many": lambda items: store.put_many((k, v) for k, v in items),
        "repair_put": store.repair_put,
        "keys": store.keys,
        "clear": store.clear,
        "stats": lambda: store.stats,
        "length": lambda: len(store),
    }


def _blob_id_allocator(manager: VersionManager, gap: int = 0) -> Handlers:
    """Global blob-id allocation (driven on shard 0 only): hand out ranges,
    bump past explicitly-reserved ids, never reuse.  ``gap`` skips a window
    above the recovered maximum on restart/takeover (:data:`ID_RESTART_GAP`)."""
    id_lock = threading.Lock()
    next_id = [1]
    for blob_id in manager.blob_ids():
        next_id[0] = max(next_id[0], blob_id + 1)
    if gap and next_id[0] > 1:
        next_id[0] += gap

    def alloc_blob_ids(count: int = 1) -> list:
        with id_lock:
            start = next_id[0]
            next_id[0] = start + count
            return list(range(start, start + count))

    def reserve_blob_id(blob_id: int) -> None:
        with id_lock:
            next_id[0] = max(next_id[0], blob_id + 1)

    return {"alloc_blob_ids": alloc_blob_ids, "reserve_blob_id": reserve_blob_id}


def _reconcile_register(manager: VersionManager, blob_id, spans, writer) -> List[Any]:
    """Idempotent re-registration for a retried round (lost-ack recovery).

    The client's per-round writer token is unique, so the tickets already
    carrying it are exactly what the interrupted round assigned, in span
    order.  Each span consumes the next matching existing ticket; spans past
    what the first attempt got through (a SIGKILL mid-bulk journals a
    partial round) are registered now.  Matching is by shape (append, or
    same offset+size) so spans the first attempt *rejected* — which consumed
    no version — cannot steal a later span's ticket.
    """
    existing = list(manager.writer_tickets(blob_id, writer))
    outcomes: List[Any] = []
    for offset, size in spans:
        head = existing[0] if existing else None
        if head is not None and head.size == size and (
            head.is_append or head.offset == offset
        ):
            outcomes.append(existing.pop(0))
        else:
            outcomes.append(
                manager.register_writes(blob_id, [(offset, size)], writer=writer)[0]
            )
    return outcomes


def _manager_surface(get_manager: Callable[[], VersionManager]) -> Handlers:
    """The coordinator-shard data plane over a per-call manager resolver.

    Shared by the ``coordinator`` role (resolver returns the one manager)
    and the ``standby`` role (resolver returns the replica, or raises the
    retryable routing error while the primary still owns the shard).
    """

    def register_append(blob_id, size, writer=None, reconcile=False):
        manager = get_manager()
        if reconcile and writer:
            tickets = manager.writer_tickets(blob_id, writer)
            if tickets:
                return tickets[0]
        return manager.register_append(blob_id, size, writer=writer)

    def register_writes_bulk(batches, writer=None, reconcile=False):
        manager = get_manager()
        normalized = [
            (blob_id, [(off, size) for off, size in spans]) for blob_id, spans in batches
        ]
        if reconcile and writer:
            return [
                _reconcile_register(manager, blob_id, spans, writer)
                for blob_id, spans in normalized
            ]
        return manager.register_writes_bulk(normalized, writer=writer)

    return {
        "ping": lambda: True,
        "create_blob": lambda chunk_size, replication, blob_id: get_manager().create_blob(
            chunk_size=chunk_size, replication=replication, blob_id=blob_id
        ),
        "blob_ids": lambda: get_manager().blob_ids(),
        "blob_info": lambda blob_id: get_manager().blob_info(blob_id),
        "register_append": register_append,
        "register_writes_bulk": register_writes_bulk,
        "publish_many": lambda blob_id, versions: get_manager().publish_many(
            blob_id, versions
        ),
        "abort": lambda blob_id, version: get_manager().abort(blob_id, version),
        "mark_repaired": lambda blob_id, version: get_manager().mark_repaired(
            blob_id, version
        ),
        "latest_version": lambda blob_id: get_manager().latest_version(blob_id),
        "get_snapshot": lambda blob_id, version=None: get_manager().get_snapshot(
            blob_id, version
        ),
        "get_history": lambda blob_id, upto_version: get_manager().get_history(
            blob_id, upto_version
        ),
        "pending_versions": lambda blob_id: get_manager().pending_versions(blob_id),
        "aborted_versions": lambda blob_id: get_manager().aborted_versions(blob_id),
        "version_state": lambda blob_id, version: get_manager()
        .version_state(blob_id, version)
        .value,
        "drop_blob": lambda blob_id: get_manager().drop_blob(blob_id),
        "report": lambda: get_manager().report(),
        "backlog": lambda: get_manager().backlog(),
    }


def coordinator_handlers(
    index: int, config: BlobSeerConfig, journal_dir: Optional[str] = None
) -> Handlers:
    from ..resilience.journal import ShardJournal

    shard_id = f"vm-{index:03d}"
    manager = VersionManager()
    journal: Optional[ShardJournal] = None
    restarted = False
    if journal_dir:
        journal = ShardJournal.open(
            journal_dir,
            shard_id=shard_id,
            snapshot_interval=config.journal_snapshot_interval,
        )
        if journal.has_history:
            restarted = True
            journal.replay_into(manager)
            manager.journal = journal
            # A rejoining primary folds in what its standby committed while
            # it was down: the handoff journal's records are ingested into
            # the WAL (and applied) and only then dropped from disk.
            handoff = ShardJournal.open(journal_dir, shard_id=f"{shard_id}-handoff")
            if handoff.has_history:
                journal.ingest(handoff.records(), apply_to=manager)
                handoff.discard_files()
            else:
                handoff.close()
        else:
            manager.journal = journal
            journal.snapshot(manager.dump_state())

    # Per-boot stream token: a standby resuming by lsn across a primary
    # restart would diverge (the handoff ingest re-stamps lsns), so a token
    # mismatch forces it to re-bootstrap from the snapshot instead.
    boot_token = uuid.uuid4().hex

    def journal_stream(
        after_lsn: int = 0,
        stream_id: Optional[str] = None,
        bootstrap: bool = False,
        max_records: int = STREAM_BATCH_RECORDS,
    ) -> Dict[str, Any]:
        if journal is None:
            raise errors.ServiceError(
                f"coordinator {shard_id} has no journal to stream (no --journal-dir)"
            )
        view = journal.stream_state(
            after_lsn=int(after_lsn),
            bootstrap=bool(bootstrap) or stream_id != boot_token,
        )
        records = view["records"]
        truncated = len(records) > max_records
        if truncated:
            records = records[:max_records]
        if records:
            last_lsn = records[-1].lsn
        else:
            last_lsn = view["snapshot_lsn"] if view["bootstrap"] else int(after_lsn)
        return {
            "stream_id": boot_token,
            "bootstrap": view["bootstrap"],
            "snapshot": view["snapshot"],
            "snapshot_lsn": view["snapshot_lsn"],
            "records": records,
            "last_lsn": last_lsn,
            "truncated": truncated,
        }

    def note_membership(state) -> bool:
        if journal is not None:
            journal.append("membership", 0, **state)
        return True

    handlers = _manager_surface(lambda: manager)
    handlers.update(_blob_id_allocator(manager, gap=ID_RESTART_GAP if restarted else 0))
    # Commit latency is the shard's tail-latency story: publish_many is the
    # commit point, the register paths are its admission half.
    handlers["publish_many"] = _timed(
        handlers["publish_many"], "coordinator_commit_seconds"
    )
    handlers["register_append"] = _timed(
        handlers["register_append"], "coordinator_register_seconds"
    )
    handlers["register_writes_bulk"] = _timed(
        handlers["register_writes_bulk"], "coordinator_register_seconds"
    )

    def _scrape_gauges() -> None:
        reg = obs_metrics.registry()
        reg.gauge("coordinator_backlog").set(manager.backlog())
        reg.gauge("coordinator_last_lsn").set(
            journal.last_lsn if journal is not None else 0
        )

    handlers.update(
        {
            "health": lambda: {
                "role": "coordinator",
                "shard_id": shard_id,
                "serving": True,
                "last_lsn": journal.last_lsn if journal is not None else 0,
                "restarted": restarted,
                **_vitals(),
            },
            **_obs_handlers(on_scrape=_scrape_gauges),
            "journal_stream": journal_stream,
            "membership": lambda: (
                journal.latest_membership() if journal is not None else None
            ),
            "note_membership": note_membership,
        }
    )
    return handlers


def standby_handlers(
    index: int,
    config: BlobSeerConfig,
    journal_dir: Optional[str] = None,
    primary: Optional[str] = None,
) -> Handlers:
    """A process-hosted hot standby for coordinator shard ``index``.

    Follows the primary's journal over the wire (a puller thread calling its
    ``journal_stream`` RPC) into a :class:`~repro.resilience.failover.
    StreamedStandby`; on ``take_over`` it catches up from the shared on-disk
    WAL and serves the full coordinator surface from the replica, journaling
    every transition to the handoff file the rejoining primary ingests.
    Until then the data plane answers with the retryable
    :class:`~repro.core.errors.EpochRetryError` — a client landing here has
    stale routing, not a broken shard.
    """
    from ..resilience.failover import StreamedStandby
    from .rpc import RpcClient

    shard_id = f"vm-{index:03d}"
    standby = StreamedStandby(shard_id)
    # One lock serialises puller applies against takeover/resign; RPC
    # handlers run inline on the server loop but the puller is a thread.
    state_lock = threading.Lock()
    commits_served = [0]
    latest_membership: List[Optional[Dict[str, Any]]] = [None]
    #: The live puller as ``(client, its stop flag)``; at most one at a time.
    puller: List[Optional[Tuple[RpcClient, threading.Event]]] = [None]
    pulls = [0]
    poll = max(0.01, config.net_heartbeat_interval / 5.0)

    def _pull_loop(client: RpcClient, stop: threading.Event) -> None:
        while not stop.is_set():
            drain = False
            try:
                with state_lock:
                    if standby.taking_over:
                        return
                    after, token = standby.applied_lsn, standby.stream_id
                batch = client.call(
                    "journal_stream", {"after_lsn": after, "stream_id": token}
                )
                with state_lock:
                    if standby.taking_over or stop.is_set():
                        return
                    standby.apply_batch(
                        batch["stream_id"],
                        batch["bootstrap"],
                        batch["snapshot"],
                        batch["snapshot_lsn"],
                        batch["records"],
                    )
                pulls[0] += 1
                drain = bool(batch.get("truncated"))
            except (ConnectionError, OSError):
                # Primary unreachable: keep polling quietly — either it
                # comes back or the monitor promotes us via ``take_over``.
                pass
            except Exception as exc:  # noqa: BLE001 - follower must survive
                print(
                    f"standby {shard_id}: stream pull failed: {exc}",
                    file=sys.stderr,
                    flush=True,
                )
            if not drain:
                stop.wait(poll)

    def _stop_puller() -> None:
        """Retire the live puller.  Its flag is its own, so a later
        ``follow`` cannot revive it; once set, the thread applies nothing
        beyond a batch it already holds ``state_lock`` for."""
        current, puller[0] = puller[0], None
        if current is not None:
            client, stop = current
            stop.set()
            # Fails the in-flight ``journal_stream`` call, so the thread
            # wakes now instead of after the request timeout.
            client.close()

    def follow(primary: str) -> bool:
        """(Re)attach the pull stream to a primary at ``host:port``."""
        host, _, port = primary.rpartition(":")
        _stop_puller()
        client = RpcClient(
            [(host, int(port))],
            connect_timeout=2.0,
            request_timeout=10.0,
            max_retries=0,
            codec=config.net_codec,
        )
        stop = threading.Event()
        puller[0] = (client, stop)
        threading.Thread(
            target=_pull_loop,
            args=(client, stop),
            name=f"standby-pull-{shard_id}",
            daemon=True,
        ).start()
        return True

    def take_over(state: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Promote the replica (idempotent).  ``state`` is the membership
        snapshot that marked the primary down; journaling it into the
        handoff makes the takeover epoch durable — a deployment restart
        adopts it instead of resurrecting the dead shard's routing."""
        _stop_puller()
        with state_lock:
            if not standby.taking_over:
                standby.take_over(journal_dir)
                if state is None:
                    state = latest_membership[0]
                if state is not None:
                    standby.handoff.append("membership", 0, **state)
                    latest_membership[0] = dict(state)
            return standby.status()

    def resign() -> Dict[str, Any]:
        """Stop serving so the rejoining primary can ingest the handoff."""
        with state_lock:
            standby.resign()
            return standby.status()

    def note_membership(state) -> bool:
        with state_lock:
            latest_membership[0] = dict(state)
            if standby.taking_over:
                standby.handoff.append("membership", 0, **state)
        return True

    def get_manager() -> VersionManager:
        if not standby.taking_over:
            raise errors.EpochRetryError(
                f"standby {shard_id} is not serving (the primary owns the shard)",
                epoch=0,
            )
        return standby.manager

    def health() -> Dict[str, Any]:
        with state_lock:
            return {
                "role": "standby",
                "shard_id": shard_id,
                "serving": standby.taking_over,
                "applied_lsn": standby.applied_lsn,
                "commits_served": commits_served[0],
                **_vitals(),
            }

    def standby_status() -> Dict[str, Any]:
        with state_lock:
            status = standby.status()
        status["commits_served"] = commits_served[0]
        status["pulls"] = pulls[0]
        return status

    handlers = _manager_surface(get_manager)
    base_publish = handlers["publish_many"]

    def publish_many(blob_id, versions):
        frontier = base_publish(blob_id=blob_id, versions=versions)
        commits_served[0] += len(versions)
        return frontier

    # Commits a promoted standby serves land in the same histogram as the
    # primary's, so the deployment-wide merge spans the outage window too.
    handlers["publish_many"] = _timed(publish_many, "coordinator_commit_seconds")

    # Blob-id allocation only exists once the replica is promoted (the
    # primary owns the counter until then); reseeded with the restart gap.
    id_box: List[Optional[Handlers]] = [None]

    def _ids() -> Handlers:
        get_manager()  # raises the routing error while the primary serves
        if id_box[0] is None:
            id_box[0] = _blob_id_allocator(standby.manager, gap=ID_RESTART_GAP)
        return id_box[0]

    handlers.update(
        {
            "alloc_blob_ids": lambda count=1: _ids()["alloc_blob_ids"](count),
            "reserve_blob_id": lambda blob_id: _ids()["reserve_blob_id"](blob_id),
            **_obs_handlers(),
            "health": health,
            "follow": follow,
            "take_over": take_over,
            "resign": resign,
            "standby_status": standby_status,
            "membership": lambda: latest_membership[0],
            "note_membership": note_membership,
        }
    )
    if primary:
        follow(primary)
    return handlers


def pmgr_handlers(index: int, config: BlobSeerConfig) -> Handlers:
    providers = [
        DataProvider(provider_id=f"provider-{i:03d}", host=f"host-{i:03d}")
        for i in range(config.num_data_providers)
    ]
    pool = ProviderPool(providers)
    manager = ProviderManager(pool, config)
    return {
        "ping": lambda: True,
        "health": lambda: {
            "role": "pmgr",
            "index": index,
            "serving": True,
            **_vitals(),
        },
        **_obs_handlers(),
        "allocate": lambda blob_id, offset, size, chunk_size, replication=None: list(
            manager.allocate(blob_id, offset, size, chunk_size, replication=replication)
        ),
        "complete": manager.complete,
        "load_snapshot": manager.load_snapshot,
        "placement_balance": manager.placement_balance,
        "set_provider_alive": lambda provider_id, alive: (
            pool.get(provider_id).recover() if alive else pool.get(provider_id).crash()
        ),
    }


ROLES = {
    "provider": provider_handlers,
    "meta": meta_handlers,
    "coordinator": coordinator_handlers,
    "standby": standby_handlers,
    "pmgr": pmgr_handlers,
}


# -- the server --------------------------------------------------------------------


class RpcServer:
    """Serve one handler table over framed RPC on a TCP socket."""

    def __init__(
        self,
        handlers: Handlers,
        host: str = "127.0.0.1",
        port: int = 0,
        codec: str = "json",
        max_inflight_per_connection: int = 256,
        backlog: int = 256,
    ):
        self.handlers = handlers
        self.host = host
        self.port = port
        self.codec = codec
        self.max_inflight_per_connection = max(1, max_inflight_per_connection)
        self.backlog = backlog
        self.bound_port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._inflight: set = set()
        self._stopping = asyncio.Event()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port, backlog=self.backlog
        )
        self.bound_port = self._server.sockets[0].getsockname()[1]

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = FrameDecoder()
        try:
            while True:
                data = await reader.read(256 * 1024)
                if not data:
                    break
                batch = decoder.feed(data)
                if not batch:
                    continue
                # One tracked task per recv batch (not per message): a
                # pipelined client's 64-deep burst costs one task, and a
                # SIGTERM drain still waits for every fully-received
                # request.  Awaiting it here is the backpressure: no
                # further reads until this batch's responses are flushed.
                task = asyncio.ensure_future(self._dispatch_batch(batch, writer))
                self._inflight.add(task)
                task.add_done_callback(self._inflight.discard)
                await task
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch_batch(
        self, batch: list, writer: asyncio.StreamWriter
    ) -> None:
        # Responses for a pipelined batch coalesce into single writes;
        # ``max_inflight_per_connection`` bounds how many buffer between
        # flushes so server memory stays flat under deep windows.
        out: list = []
        for message in batch:
            out.append(encode_frame(self._handle(message), codec=self.codec))
            if len(out) >= self.max_inflight_per_connection:
                await self._write_frames(out, writer)
                out = []
        if out:
            await self._write_frames(out, writer)

    def _handle(self, message: Dict[str, Any]) -> Dict[str, Any]:
        request_id = message.get("id")
        try:
            method = message["method"]
            handler = self.handlers.get(method)
            if handler is None:
                raise ValueError(f"unknown method {method!r}")
            tracer = obs_trace.tracer()
            ctx = (
                wire.decode_trace(message.get(wire.TRACE_KEY))
                if tracer.enabled
                else None
            )
            if ctx is not None:
                # Adopt the client's envelope: this request's server-side
                # spans (decode, dispatch, and whatever the handler opens —
                # journal appends, replica-push landings) parent under the
                # client span that caused them.
                with tracer.span(f"srv:{method}", parent=ctx):
                    with tracer.span("decode"):
                        params = wire.decode(message.get("params") or {})
                    with tracer.span("dispatch"):
                        result = handler(**params)
            else:
                params = wire.decode(message.get("params") or {})
                # Handlers run inline on the loop: they are all GIL-bound
                # in-memory service calls, so a thread-pool handoff buys no
                # parallelism and costs two context switches per request —
                # the dominant per-op server cost under a pipelined client.
                result = handler(**params)
            return {"id": request_id, "result": wire.encode(result)}
        except Exception as exc:  # noqa: BLE001 - every failure becomes a wire error
            if isinstance(exc, errors.EpochRetryError):
                # Stale-routing rejections are the shard's epoch-retry count.
                obs_metrics.registry().counter("epoch_retry_errors").inc()
            return {"id": request_id, "error": wire.encode(exc)}

    @staticmethod
    async def _write_frames(frames: list, writer: asyncio.StreamWriter) -> None:
        if writer.is_closing():
            return
        writer.write(b"".join(frames))
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    async def run_until_stopped(self) -> None:
        """Serve until :meth:`stop`; then drain in-flight requests and return."""
        await self._stopping.wait()
        # Stop accepting; existing connections finish their in-flight work.
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    def stop(self) -> None:
        self._stopping.set()


async def _amain(args: argparse.Namespace) -> None:
    config = (
        BlobSeerConfig.from_dict(json.loads(args.config))
        if args.config
        else BlobSeerConfig()
    )
    configure_observability(config, role=f"{args.role}-{args.index:03d}")
    factory = ROLES[args.role]
    if args.role == "coordinator":
        handlers = factory(args.index, config, journal_dir=args.journal_dir)
    elif args.role == "standby":
        handlers = factory(
            args.index, config, journal_dir=args.journal_dir, primary=args.primary
        )
    else:
        handlers = factory(args.index, config)
    server = RpcServer(
        handlers,
        host=args.host,
        port=args.port,
        codec=config.net_codec,
        max_inflight_per_connection=max(64, config.net_max_inflight),
    )
    await server.start()

    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, server.stop)

    print(
        json.dumps(
            {
                "ready": True,
                "role": args.role,
                "index": args.index,
                "host": server.host,
                "port": server.bound_port,
            }
        ),
        flush=True,
    )
    await server.run_until_stopped()


def main(argv: Optional[list] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.server",
        description="Host one BlobSeer service role over framed TCP RPC.",
    )
    parser.add_argument("--role", required=True, choices=sorted(ROLES))
    parser.add_argument("--index", type=int, default=0, help="instance index within the role")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 binds an ephemeral port")
    parser.add_argument("--config", default=None, help="flat BlobSeerConfig JSON")
    parser.add_argument(
        "--journal-dir",
        default=None,
        help="WAL directory (coordinator and standby roles)",
    )
    parser.add_argument(
        "--primary",
        default=None,
        help="host:port of the coordinator shard a standby follows",
    )
    args = parser.parse_args(argv)
    try:
        asyncio.run(_amain(args))
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":
    main()
