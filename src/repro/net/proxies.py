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
* :class:`RemoteCoordinator` is the
  :class:`~repro.core.version_coordinator.VersionCoordinator` router over
  one ``RpcClient`` per shard process: it states only how a shard is
  reached (primary, or standby while the primary is down) and how a stale
  route is resynced (membership refresh plus backoff).  Blob ids come from
  a global counter hosted on shard 0;
* :class:`RemoteProviderManager` forwards chunk placement to the provider
  manager process.
"""

from __future__ import annotations

import random
import threading
import time
import uuid
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.config import DEFAULT_CHUNK_SIZE
from ..core.errors import EpochRetryError, ServiceError
from ..core.membership import CoordinatorMembership, ShardStatus
from ..core.types import BlobId, BlobInfo, WritePlan
from ..core.version_coordinator import VersionCoordinator
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

    def submit(self, method: str, payload: Any) -> Callable[[], Any]:
        """Put one ``get_many``/``put_many`` on the wire; return the thunk
        awaiting its reply."""
        if method == "get_many":
            return self._rpc.submit(method, {"keys": list(payload)}).result
        return self._rpc.submit(method, {"items": [[k, v] for k, v in payload]}).result

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


class RemoteCoordinator(VersionCoordinator):
    """The coordinator router over one RpcClient per shard process.

    Routing, the stale-route retry loop and bulk registration are the
    :class:`~repro.core.version_coordinator.VersionCoordinator`'s; this
    class says how a shard is reached.  A local membership mirror (same
    shard ids, same virtual-node count → identical routing) picks the
    shard.  A shard marked ``DOWN`` (by the deployment's
    :class:`~repro.net.monitor.ClusterMonitor`, or learned over the wire
    via :meth:`refresh_membership`) keeps its ring position — blobs never
    move on failover — but its calls go to the shard's standby process.
    A call that hits a dead or not-yet-promoted target
    (``ConnectionError``/``EpochRetryError``) refreshes the mirror from the
    surviving processes and retries with jittered backoff, so an in-flight
    commit degrades to a bounded stall instead of a failure.  Registration
    retries carry the call's writer token and ``reconcile=True``, letting
    the serving shard answer with the tickets an interrupted round already
    assigned instead of assigning duplicates.
    """

    RETRYABLE = (EpochRetryError, ConnectionError, OSError)

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
        #: Monitoring counter: stale routes resynced.
        self.reroutes = 0

    @property
    def num_shards(self) -> int:
        return len(self._rpcs)

    # -- how a shard is reached ----------------------------------------------------
    def replace_shard_rpc(self, index: int, rpc: RpcClient) -> None:
        """Swap shard ``index``'s client (its primary respawned elsewhere)."""
        self._rpcs[index] = rpc

    def replace_standby_rpc(self, index: int, rpc: Optional[RpcClient]) -> None:
        self._standbys[index] = rpc

    def _serving_shard(self, index: int) -> RpcClient:
        """The client currently answering for shard ``index``: its primary,
        or its standby while the mirror says the primary is down."""
        if self.membership.status_of(index) == ShardStatus.DOWN:
            standby = self._standbys[index]
            if standby is not None:
                return standby
        return self._rpcs[index]

    def _submit(self, handle, method, params, guard, retry):
        # A retried registration may have been applied with its reply lost;
        # reconciling under the same writer token answers idempotently.
        if retry and method in ("register_append", "register_writes_bulk"):
            params = dict(params, reconcile=True)
        return handle.submit(method, params).result

    @property
    def max_route_attempts(self) -> int:
        return self.reroute_retries + 1

    def _resync(self, exc, attempt):
        """Refresh the mirror, then back off: jittered, doubling from
        ``reroute_backoff`` up to ``reroute_backoff_max``."""
        self.reroutes += 1
        if obs_metrics.enabled():
            obs_metrics.registry().counter("coordinator_reroutes_total").inc()
            if isinstance(exc, EpochRetryError):
                obs_metrics.registry().counter("epoch_retries_total").inc()
        self.refresh_membership()
        delay = min(self.reroute_backoff_max, self.reroute_backoff * 2 ** (attempt - 1))
        time.sleep(delay * (1.0 + random.random() * 0.5))

    @staticmethod
    def _round_writer(writer: Optional[str]) -> str:
        """Writer token: unique to one logical registration, stable across
        its retries, so a reconcile after a lost reply finds exactly the
        tickets that call assigned."""
        return f"{writer or ''}#{uuid.uuid4().hex[:10]}"

    def refresh_membership(self) -> bool:
        """Re-learn the membership from the deployment, adopt the max epoch.

        Asks every coordinator and standby process for its journaled
        membership state in parallel, tolerating the dead ones, and adopts
        the highest-epoch answer into the local mirror (no-op when nothing
        newer is known).  Returns whether the mirror moved.
        """
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

    # -- blob lifecycle (shard 0 hosts the blob-id counter) ------------------------
    def _alloc_blob_id(self) -> BlobId:
        with self._id_lock:
            if not self._id_pool:
                self._id_pool.extend(
                    self._call("alloc_blob_ids", 0, {"count": 8}, owner=lambda _: 0)
                )
            return self._id_pool.pop(0)

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
            self._call("reserve_blob_id", 0, {"blob_id": blob_id}, owner=lambda _: 0)
        return self._call(
            "create_blob",
            blob_id,
            {"chunk_size": chunk_size, "replication": replication, "blob_id": blob_id},
        )

    def blob_ids(self) -> List[BlobId]:
        ids: List[BlobId] = []
        futures = [
            self._serving_shard(shard).submit("blob_ids")
            for shard in range(self.num_shards)
        ]
        for future in futures:
            ids.extend(future.result())
        return sorted(ids)

    def report(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        futures = [
            self._serving_shard(shard).submit("report")
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
