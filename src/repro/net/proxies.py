"""Client-side stand-ins for the deployment services, over RPC.

The batch engine never talks to sockets directly — it calls
``deployment.version_manager`` / ``provider_manager`` / ``metadata_store``
through closures handed to ``transport.control``.  In networked mode those
attributes are the proxies below, so the *same client code* drives the
remote processes; the network cost lands inside the proxy methods and is
attributed to operations through :func:`repro.net.rpc.drain_timings`.

* :class:`RemoteKeyValueStore` speaks one DHT store node's method surface
  over an :class:`~repro.net.rpc.RpcClient`; the deployment hands these
  stubs to :func:`~repro.core.deployment.make_metadata_store`, so the
  metadata DHT's ring placement, replication, read repair and vectored
  fan-out run in the client process exactly as in direct mode;
* :class:`RemoteCoordinator` mirrors the sharded coordinator: a local
  :class:`~repro.core.membership.CoordinatorMembership` (same shard ids,
  same virtual-node count → identical routing) picks the shard, one
  ``RpcClient`` per shard process carries the call.  Blob ids come from a
  global counter hosted on shard 0;
* :class:`RemoteProviderManager` forwards chunk placement to the provider
  manager process.
"""

from __future__ import annotations

import random
import threading
import time
import uuid
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.config import DEFAULT_CHUNK_SIZE
from ..core.errors import BlobSeerError, EpochRetryError, ServiceError
from ..core.membership import CoordinatorMembership, ShardStatus
from ..core.types import BlobId, BlobInfo, SnapshotInfo, Version, WritePlan
from ..core.version_manager import WriteState
from ..obs import metrics as obs_metrics
from .rpc import RpcClient


class RemoteKeyValueStore:
    """One DHT store node's surface, forwarded to its server process."""

    def __init__(self, rpc: RpcClient, provider_id: str) -> None:
        self._rpc = rpc
        self.provider_id = provider_id

    def put(self, key: Any, value: Any) -> None:
        self._rpc.call("put", {"key": key, "value": value})

    def get(self, key: Any) -> Any:
        return self._rpc.call("get", {"key": key})

    def get_or_none(self, key: Any) -> Any:
        return self._rpc.call("get_or_none", {"key": key})

    def get_many(self, keys: Sequence[Any]) -> Dict[Any, Any]:
        return self._rpc.call("get_many", {"keys": list(keys)})

    def put_many(self, items: Iterable[Tuple[Any, Any]]) -> None:
        self._rpc.call("put_many", {"items": [[k, v] for k, v in items]})

    def repair_put(self, key: Any, value: Any) -> None:
        self._rpc.call("repair_put", {"key": key, "value": value})

    def keys(self) -> List[Any]:
        return self._rpc.call("keys")

    def clear(self) -> None:
        self._rpc.call("clear")

    def __len__(self) -> int:
        return self._rpc.call("length")

    @property
    def stats(self) -> Dict[str, int]:
        return self._rpc.call("stats")


class RemoteCoordinator:
    """The sharded version-manager surface over one RpcClient per shard.

    Failover-aware since PR 8: the local membership mirror is no longer
    static.  A shard marked ``DOWN`` (by the deployment's
    :class:`~repro.net.monitor.ClusterMonitor`, or learned over the wire via
    :meth:`refresh_membership`) keeps its ring position — blobs never move
    on failover — but its calls are served by the shard's standby process.
    A call that hits a dead or not-yet-promoted target
    (``NetworkError``/``EpochRetryError``) refreshes the mirror from the
    surviving processes and retries with jittered backoff, so an in-flight
    commit degrades to a bounded stall instead of a failure.  Registration
    retries carry a per-round writer token and ``reconcile=True``, letting
    the serving shard answer with the tickets an interrupted round already
    assigned instead of assigning duplicates.
    """

    def __init__(
        self,
        shard_rpcs: Sequence[RpcClient],
        virtual_nodes: int = 32,
        standby_rpcs: Optional[Sequence[Optional[RpcClient]]] = None,
        reroute_retries: int = 20,
        reroute_backoff: float = 0.05,
        reroute_backoff_max: float = 0.2,
    ) -> None:
        self._rpcs: List[RpcClient] = list(shard_rpcs)
        #: Per-shard standby client (``None`` where no standby is deployed);
        #: serves a shard's traffic while its primary is marked down.
        self._standbys: List[Optional[RpcClient]] = (
            list(standby_rpcs)
            if standby_rpcs is not None
            else [None] * len(self._rpcs)
        )
        #: Same ring construction as the server-side coordinator — routing
        #: is a pure function of (shard ids, virtual nodes, statuses), so
        #: this local mirror resolves owners without a network round trip.
        self.membership = CoordinatorMembership(
            [f"vm-{index:03d}" for index in range(len(self._rpcs))],
            virtual_nodes=virtual_nodes,
        )
        self.reroute_retries = reroute_retries
        self.reroute_backoff = reroute_backoff
        self.reroute_backoff_max = reroute_backoff_max
        self._id_lock = threading.Lock()
        self._id_pool: List[int] = []
        #: Monitoring counters.
        self.reroutes = 0
        self.membership_refreshes = 0

    # -- failover plumbing ---------------------------------------------------------
    def replace_shard_rpc(self, index: int, rpc: RpcClient) -> None:
        """Swap shard ``index``'s client (its primary respawned elsewhere)."""
        self._rpcs[index] = rpc

    def replace_standby_rpc(self, index: int, rpc: Optional[RpcClient]) -> None:
        self._standbys[index] = rpc

    def _serving_rpc(self, shard: int) -> RpcClient:
        """The client currently answering for ``shard``: its primary, or its
        standby while the mirror says the primary is down."""
        if self.membership.status_of(shard) == ShardStatus.DOWN:
            standby = self._standbys[shard]
            if standby is not None:
                return standby
        return self._rpcs[shard]

    def refresh_membership(self) -> bool:
        """Re-learn the membership from the deployment, adopt the max epoch.

        Asks every coordinator and standby process for its journaled
        membership state in parallel, tolerating the dead ones, and adopts
        the highest-epoch answer into the local mirror (no-op when nothing
        newer is known).  Returns whether the mirror moved.
        """
        self.membership_refreshes += 1
        futures = []
        for rpc in [*self._rpcs, *self._standbys]:
            if rpc is None:
                continue
            try:
                futures.append(rpc.submit("membership"))
            except ConnectionError:
                continue
        best: Optional[Dict[str, Any]] = None
        for future in futures:
            try:
                state = future.result()
            except Exception:  # noqa: BLE001 - dead processes are expected here
                continue
            if state is None:
                continue
            if best is None or state.get("epoch", 0) > best.get("epoch", 0):
                best = state
        if best is None:
            return False
        try:
            return self.membership.adopt_state(best)
        except ServiceError:
            return False

    def _call_with_failover(
        self,
        shard_of: Callable[[], int],
        method: str,
        params: Dict[str, Any],
        reconcilable: bool = False,
    ) -> Any:
        """Run one RPC against whatever currently serves the target shard.

        ``NetworkError`` (the target process is gone) and
        ``EpochRetryError`` (the target says our routing is stale — e.g. a
        standby not yet promoted) both mean the same thing here: refresh the
        mirror and try the re-resolved server after a jittered backoff.
        Registration calls set ``reconcilable`` so every retry after the
        first carries ``reconcile=True`` — the first attempt may have been
        applied with its ack lost, and the writer token lets the shard
        answer idempotently.  Bounded: after ``reroute_retries`` attempts
        the last error propagates.
        """
        delay = self.reroute_backoff
        last: Optional[BaseException] = None
        for attempt in range(self.reroute_retries):
            if attempt:
                call_params = dict(params, reconcile=True) if reconcilable else params
            else:
                call_params = params
            try:
                return self._serving_rpc(shard_of()).call(method, call_params)
            except (EpochRetryError, ConnectionError, OSError) as exc:
                last = exc
                self.reroutes += 1
                if obs_metrics.enabled():
                    obs_metrics.registry().counter("coordinator_reroutes_total").inc()
                    if isinstance(exc, EpochRetryError):
                        obs_metrics.registry().counter("epoch_retries_total").inc()
                self.refresh_membership()
                time.sleep(delay * (1.0 + random.random() * 0.5))
                delay = min(self.reroute_backoff_max, delay * 2)
        assert last is not None
        raise ServiceError(
            f"rpc {method!r} still failing after {self.reroute_retries} "
            f"re-route attempts: {last}"
        ) from last

    def _call_routed(
        self,
        blob_id: BlobId,
        method: str,
        params: Dict[str, Any],
        reconcilable: bool = False,
    ) -> Any:
        return self._call_with_failover(
            lambda: self.shard_index(blob_id), method, params, reconcilable
        )

    # -- routing (local, no RPC) ---------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._rpcs)

    @property
    def epoch(self) -> int:
        return self.membership.epoch

    def shard_index(self, blob_id: BlobId) -> int:
        return self.membership.owner_index(blob_id)

    # -- blob-id allocation (shard 0 hosts the counter) ----------------------------
    def _alloc_blob_id(self) -> BlobId:
        with self._id_lock:
            if not self._id_pool:
                self._id_pool.extend(
                    self._call_with_failover(
                        lambda: 0, "alloc_blob_ids", {"count": 8}
                    )
                )
            return self._id_pool.pop(0)

    # -- blob lifecycle ------------------------------------------------------------
    def create_blob(
        self,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        replication: int = 1,
        blob_id: Optional[BlobId] = None,
        avoid_shards: Optional[Sequence[int]] = None,
    ) -> BlobInfo:
        if blob_id is None:
            blob_id = self._alloc_blob_id()
            if avoid_shards:
                avoid = set(avoid_shards)
                eligible = set(range(self.num_shards)) - avoid
                if eligible:
                    # Probe forward through the (unique, monotonic) id space
                    # until an id lands off the avoided shards; skipped ids
                    # are simply never used — ids are not dense.
                    while self.shard_index(blob_id) in avoid:
                        blob_id = self._alloc_blob_id()
        else:
            self._call_with_failover(
                lambda: 0, "reserve_blob_id", {"blob_id": blob_id}
            )
        return self._call_routed(
            blob_id,
            "create_blob",
            {"chunk_size": chunk_size, "replication": replication, "blob_id": blob_id},
        )

    def blob_ids(self) -> List[BlobId]:
        ids: List[BlobId] = []
        futures = [
            self._serving_rpc(shard).submit("blob_ids")
            for shard in range(self.num_shards)
        ]
        for future in futures:
            ids.extend(future.result())
        return sorted(ids)

    def blob_info(self, blob_id: BlobId) -> BlobInfo:
        return self._call_routed(blob_id, "blob_info", {"blob_id": blob_id})

    def drop_blob(self, blob_id: BlobId) -> None:
        self._call_routed(blob_id, "drop_blob", {"blob_id": blob_id})

    # -- the serialised step -------------------------------------------------------
    @staticmethod
    def _writer_token(writer: Optional[str]) -> str:
        """Per-round writer token: unique to one logical registration, stable
        across its internal retries, so a reconcile after a lost ack finds
        exactly the tickets that round assigned."""
        return f"{writer or ''}#{uuid.uuid4().hex[:10]}"

    def register_append(
        self,
        blob_id: BlobId,
        size: int,
        writer: Optional[str] = None,
    ):
        return self._call_routed(
            blob_id,
            "register_append",
            {"blob_id": blob_id, "size": size, "writer": self._writer_token(writer)},
            reconcilable=True,
        )

    def register_writes_bulk(
        self,
        batches: Sequence[Tuple[BlobId, Sequence[Tuple[int, int]]]],
        writer: Optional[str] = None,
    ) -> List[List[Any]]:
        """One RPC per owning shard, all shards in flight at once; results
        realigned to input order.

        Epoch staleness surfaces as ``EpochRetryError`` from the serving
        process and is absorbed by the failover retry below.  A shard that
        stays unreachable, or whose round fails, assigns nothing: each of
        its writes gets the error as its outcome, and the other shards'
        tickets still return.
        """
        by_shard: Dict[int, List[int]] = {}
        for position, (blob_id, _spans) in enumerate(batches):
            by_shard.setdefault(self.shard_index(blob_id), []).append(position)
        results: List[List[Any]] = [[] for _ in batches]
        rounds = []
        for shard, positions in by_shard.items():
            shard_batches = [
                [batches[p][0], [list(span) for span in batches[p][1]]]
                for p in positions
            ]
            token = self._writer_token(writer)
            try:
                future = self._serving_rpc(shard).submit(
                    "register_writes_bulk",
                    {"batches": shard_batches, "writer": token},
                )
            except (ConnectionError, OSError) as exc:
                future = exc
            rounds.append((positions, shard_batches, token, future))
        for positions, shard_batches, token, future in rounds:
            try:
                if isinstance(future, BaseException):
                    raise future
                shard_results = future.result()
            except (EpochRetryError, ConnectionError, OSError):
                # The fast parallel path lost this shard mid-round: fall
                # back to the failover loop, reconciling with the same
                # token — whatever the interrupted round already assigned
                # comes back instead of being assigned twice.  A shard
                # marked DOWN keeps its ring slot, so re-resolving any blob
                # of the group finds the whole group's serving process.
                try:
                    shard_results = self._call_with_failover(
                        lambda: self.shard_index(batches[positions[0]][0]),
                        "register_writes_bulk",
                        {"batches": shard_batches, "writer": token, "reconcile": True},
                        reconcilable=True,
                    )
                except BlobSeerError as exc:
                    shard_results = [[exc] * len(spans) for _, spans in shard_batches]
            except BlobSeerError as exc:
                shard_results = [[exc] * len(spans) for _, spans in shard_batches]
            for position, tickets in zip(positions, shard_results):
                results[position] = tickets
        return results

    # -- publication ---------------------------------------------------------------
    def publish_many(self, blob_id: BlobId, versions: Sequence[Version]) -> Version:
        # Retry-idempotent on the shard (PENDING -> COMPLETED only), so the
        # failover loop can safely re-send a round whose ack was lost.
        return self._call_routed(
            blob_id, "publish_many", {"blob_id": blob_id, "versions": list(versions)}
        )

    def abort(self, blob_id: BlobId, version: Version) -> None:
        self._call_routed(blob_id, "abort", {"blob_id": blob_id, "version": version})

    def mark_repaired(self, blob_id: BlobId, version: Version) -> Version:
        return self._call_routed(
            blob_id, "mark_repaired", {"blob_id": blob_id, "version": version}
        )

    # -- read-side queries ---------------------------------------------------------
    def latest_version(self, blob_id: BlobId) -> Version:
        return self._call_routed(blob_id, "latest_version", {"blob_id": blob_id})

    def get_snapshot(
        self, blob_id: BlobId, version: Optional[Version] = None
    ) -> SnapshotInfo:
        return self._call_routed(
            blob_id, "get_snapshot", {"blob_id": blob_id, "version": version}
        )

    def get_history(self, blob_id: BlobId, upto_version: Version):
        return self._call_routed(
            blob_id, "get_history", {"blob_id": blob_id, "upto_version": upto_version}
        )

    def pending_versions(self, blob_id: BlobId) -> List[Version]:
        return self._call_routed(blob_id, "pending_versions", {"blob_id": blob_id})

    def aborted_versions(self, blob_id: BlobId) -> List[Version]:
        return self._call_routed(blob_id, "aborted_versions", {"blob_id": blob_id})

    def version_state(self, blob_id: BlobId, version: Version) -> WriteState:
        return WriteState(
            self._call_routed(
                blob_id, "version_state", {"blob_id": blob_id, "version": version}
            )
        )

    def report(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        futures = [
            self._serving_rpc(shard).submit("report")
            for shard in range(self.num_shards)
        ]
        for future in futures:
            for key, value in future.result().items():
                totals[key] = totals.get(key, 0) + value
        return totals


class RemoteProviderManager:
    """Chunk placement forwarded to the provider-manager process."""

    def __init__(self, rpc: RpcClient) -> None:
        self._rpc = rpc

    def allocate(
        self,
        blob_id: BlobId,
        offset: int,
        size: int,
        chunk_size: int,
        replication: Optional[int] = None,
    ) -> Tuple[int, WritePlan]:
        write_id, plan = self._rpc.call(
            "allocate",
            {
                "blob_id": blob_id,
                "offset": offset,
                "size": size,
                "chunk_size": chunk_size,
                "replication": replication,
            },
        )
        return write_id, plan

    def load_snapshot(self) -> Dict[str, int]:
        return self._rpc.call("load_snapshot")

    def placement_balance(self) -> float:
        return self._rpc.call("placement_balance")

    def set_provider_alive(self, provider_id: str, alive: bool) -> None:
        self._rpc.call(
            "set_provider_alive", {"provider_id": provider_id, "alive": alive}
        )
