"""The distributed metadata store: a DHT of key-value providers.

This ties the consistent-hashing ring to a set of :class:`KeyValueStore`
instances (one per metadata provider) and adds replication and failure
handling: a ``get`` falls back to replica owners when the primary is down,
and a ``put`` writes to every live replica owner.  The version manager and
the client metadata layer talk to this object exactly as the real BlobSeer
client talks to its metadata-provider DHT.

Besides the scalar ``get``/``put``, the store offers **vectored** access:
:meth:`DistributedKeyValueStore.get_many` and :meth:`put_many` group their
keys by owning provider and issue one bulk request per provider (fanned out
over the shared worker pool when the group count makes threads worthwhile),
while preserving the per-key semantics of the scalar path — replica
fallback, dead-provider handling and the immutability rule all apply key by
key.  Reads additionally perform **read repair**: when the value is found
on a fallback replica, it is written back to every live owner that missed
it, so a provider recovered with data loss re-converges instead of missing
its keys forever.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.errors import MetadataNotFoundError, ServiceError
from ..core.transport import parallel_map
from .hashing import ring_position
from .ring import ConsistentHashRing
from .store import KeyValueStore

#: Fan provider groups out over the worker pool only from this many groups
#: up; below it, the thread handoff costs more than the in-process calls.
MIN_PARALLEL_PROVIDER_GROUPS = 4


class DistributedKeyValueStore:
    """A replicated key-value store partitioned over metadata providers.

    Reads ask the live replica owners in ring order and stop at the first
    hit; there is no existence filter in front of them.  A snapshot's tree
    nodes are all written before its version is published, so readers only
    ask for keys that were put, and a miss means a replica lost its copy.
    """

    def __init__(
        self,
        provider_ids: Sequence[str],
        virtual_nodes: int = 32,
        replication: int = 1,
    ) -> None:
        if not provider_ids:
            raise ValueError("at least one metadata provider is required")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self._replication = min(replication, len(provider_ids))
        self._ring = ConsistentHashRing(virtual_nodes=virtual_nodes)
        self._stores: Dict[str, KeyValueStore] = {}
        self._alive: Dict[str, bool] = {}
        for pid in provider_ids:
            self._ring.add_node(pid)
            self._stores[pid] = KeyValueStore(provider_id=pid)
            self._alive[pid] = True
        #: Optional callback invoked as (provider_id, op, key) on every access;
        #: the simulator and the QoS monitor hook in here.  Scalar accesses
        #: fire with op ``"get"``/``"put"`` and a single key; vectored
        #: accesses fire once per provider group with op
        #: ``"get_many"``/``"put_many"`` and the *tuple* of keys that one
        #: bulk request carries.
        self.access_hook: Optional[Callable[[str, str, Any], None]] = None

    # -- membership / failure injection ---------------------------------------
    @property
    def provider_ids(self) -> Tuple[str, ...]:
        return tuple(sorted(self._stores))

    @property
    def replication(self) -> int:
        return self._replication

    def store_of(self, provider_id: str) -> KeyValueStore:
        return self._stores[provider_id]

    def is_alive(self, provider_id: str) -> bool:
        return self._alive.get(provider_id, False)

    def fail_provider(self, provider_id: str) -> None:
        """Mark a metadata provider as crashed (its data becomes unreachable)."""
        if provider_id not in self._stores:
            raise KeyError(provider_id)
        self._alive[provider_id] = False

    def recover_provider(self, provider_id: str, lose_data: bool = False) -> None:
        """Bring a crashed provider back, optionally with an empty store."""
        if provider_id not in self._stores:
            raise KeyError(provider_id)
        if lose_data:
            self._stores[provider_id].clear()
        self._alive[provider_id] = True

    def add_provider(self, provider_id: str) -> None:
        """Add a brand-new metadata provider to the ring."""
        if provider_id in self._stores:
            raise ValueError(f"provider {provider_id!r} already exists")
        self._ring.add_node(provider_id)
        self._stores[provider_id] = KeyValueStore(provider_id=provider_id)
        self._alive[provider_id] = True

    # -- key placement ----------------------------------------------------------
    def owners(self, key: Any) -> List[str]:
        """Replica owners for ``key`` (primary first), ignoring liveness."""
        return self._ring.owners(key, self._replication)

    def live_owners(self, key: Any) -> List[str]:
        return [pid for pid in self.owners(key) if self._alive[pid]]

    # -- data plane ---------------------------------------------------------------
    def put(self, key: Any, value: Any) -> List[str]:
        """Store ``key`` on every live replica owner; return the owners written."""
        written: List[str] = []
        for pid in self.owners(key):
            if not self._alive[pid]:
                continue
            if self.access_hook is not None:
                self.access_hook(pid, "put", key)
            self._stores[pid].put(key, value)
            written.append(pid)
        if not written:
            raise ServiceError(
                f"no live metadata provider available for key {key!r}"
            )
        return written

    def get(self, key: Any) -> Any:
        """Fetch ``key`` from the first live replica that has it.

        A hit on a fallback replica triggers read repair: the value is
        written back to every live owner probed before it (they all missed),
        counted in that owner's ``repairs`` stat.
        """
        missed: List[str] = []
        for pid in self.owners(key):
            if not self._alive[pid]:
                continue
            if self.access_hook is not None:
                self.access_hook(pid, "get", key)
            value = self._stores[pid].get_or_none(key)
            if value is not None:
                self._repair([(key, value)], {key: missed})
                return value
            missed.append(pid)
        if missed:
            raise MetadataNotFoundError(key)
        raise ServiceError(f"no live metadata provider owns key {key!r}")

    def put_many(self, items: Iterable[Tuple[Any, Any]]) -> Dict[Any, List[str]]:
        """Store several pairs, one bulk request per owning provider.

        Every key is written to all of its live replica owners —
        atomically-per-key in the sense of :meth:`put`: a key either reaches
        its full live owner set or (when no owner is live) fails, without
        affecting its batch siblings.  Keys with no live owner are reported
        by a single :class:`ServiceError` raised *after* the rest of the
        batch was written.  Returns ``{key: [owners written]}``.
        """
        pairs = list(items)
        written: Dict[Any, List[str]] = {key: [] for key, _ in pairs}
        groups: Dict[str, List[Tuple[Any, Any]]] = {}
        dead_keys: List[Any] = []
        for key, value in pairs:
            live = [pid for pid in self.owners(key) if self._alive[pid]]
            if not live:
                dead_keys.append(key)
                continue
            for pid in live:
                groups.setdefault(pid, []).append((key, value))
                written[key].append(pid)
        ordered = sorted(groups.items())
        if self.access_hook is not None:
            for pid, group in ordered:
                self.access_hook(pid, "put_many", tuple(key for key, _ in group))
        self._fan_out(
            [
                (lambda pid=pid, group=group: self._stores[pid].put_many(group))
                for pid, group in ordered
            ]
        )
        if dead_keys:
            raise ServiceError(
                f"no live metadata provider available for key {dead_keys[0]!r}"
                + (f" (and {len(dead_keys) - 1} more)" if len(dead_keys) > 1 else "")
            )
        return written

    def get_many(self, keys: Sequence[Any]) -> Dict[Any, Any]:
        """Fetch several keys, one bulk request per owning provider per round.

        Round ``r`` asks, for every still-missing key, that key's ``r``-th
        *live* replica owner — so the common case is a single fan-out of one
        bulk request per primary, and fallback (a dead or lossy primary)
        costs one extra round per replica rank instead of one RPC per key.
        Keys found on a fallback replica are read-repaired onto the live
        owners that missed them.  Returns only the keys found; callers
        decide whether a miss is an error (mirroring the scalar
        :meth:`get` / ``get_or_none`` split).  A key whose replica owners
        are *all* dead raises :class:`ServiceError` — the service is down
        for it, which is not the same as the metadata not existing (and is
        exactly what its scalar ``get`` would report).
        """
        unique_keys = list(dict.fromkeys(keys))
        live_owners = {
            key: [pid for pid in self.owners(key) if self._alive[pid]]
            for key in unique_keys
        }
        for key, live in live_owners.items():
            if not live:
                raise ServiceError(f"no live metadata provider owns key {key!r}")
        found: Dict[Any, Any] = {}
        repaired: List[Tuple[Any, Any]] = []
        missed_at: Dict[Any, List[str]] = {}
        remaining = list(unique_keys)
        rank = 0
        while remaining:
            groups: Dict[str, List[Any]] = {}
            for key in remaining:
                groups.setdefault(live_owners[key][rank], []).append(key)
            ordered = sorted(groups.items())
            if self.access_hook is not None:
                for pid, group_keys in ordered:
                    self.access_hook(pid, "get_many", tuple(group_keys))
            results = self._fan_out(
                [
                    (lambda pid=pid, group_keys=group_keys: self._stores[pid].get_many(group_keys))
                    for pid, group_keys in ordered
                ]
            )
            for (pid, group_keys), got in zip(ordered, results):
                for key in group_keys:
                    if key in got:
                        found[key] = got[key]
                        if rank > 0:
                            repaired.append((key, got[key]))
                            missed_at[key] = live_owners[key][:rank]
            remaining = [
                key
                for key in remaining
                if key not in found and rank + 1 < len(live_owners[key])
            ]
            rank += 1
        self._repair(repaired, missed_at)
        return found

    # -- read repair / anti-entropy / fan-out ------------------------------------
    def scan_keys(self) -> List[Any]:
        """Every key held by at least one *live* provider, in ring order.

        The anti-entropy scrubber's walk order: ring position gives a
        stable, provider-independent traversal so successive passes visit
        batches of ring-adjacent keys (one digest round per provider per
        batch).  Keys whose every holder is down are invisible — there is
        nothing left to copy them from until a holder recovers.
        """
        seen: Dict[Any, None] = {}
        for pid in sorted(self._stores):
            if not self._alive[pid]:
                continue
            for key in self._stores[pid].keys():
                seen.setdefault(key, None)
        return sorted(seen, key=ring_position)

    def re_replicate(
        self, values: Sequence[Tuple[Any, Any]], missing_at: Dict[Any, List[str]]
    ) -> int:
        """Install ``values`` on the live owners listed in ``missing_at``.

        The anti-entropy entry point: the scrubber hands in keys whose live
        owner sets are incomplete together with a value fetched from a
        surviving replica; this writes them back in one bulk round per
        provider, counted in the target stores' ``repairs`` stat (same
        bookkeeping as read repair).  Returns the number of (key, provider)
        copies actually installed.
        """
        return self._repair(values, missing_at)

    def _repair(
        self, values: Sequence[Tuple[Any, Any]], missed_at: Dict[Any, List[str]]
    ) -> int:
        """Write values found on fallback replicas back to the owners that missed.

        Best-effort: a repair that races with a provider crash (or an
        inconsistent binding) never fails the read that triggered it.
        Returns the number of copies installed.
        """
        groups: Dict[str, List[Tuple[Any, Any]]] = {}
        for key, value in values:
            for pid in missed_at.get(key, ()):
                if self._alive.get(pid, False):
                    groups.setdefault(pid, []).append((key, value))
        installed = 0
        for pid, group in sorted(groups.items()):
            if self.access_hook is not None:
                self.access_hook(pid, "put_many", tuple(key for key, _ in group))
            for key, value in group:
                try:
                    self._stores[pid].repair_put(key, value)
                except ValueError:  # pragma: no cover - diverged binding
                    continue
                installed += 1
        return installed

    def _fan_out(self, thunks: Sequence[Callable[[], Any]]) -> List[Any]:
        """Run one thunk per provider group, on the shared pool when it pays."""
        return parallel_map(
            thunks, min_parallel=MIN_PARALLEL_PROVIDER_GROUPS
        )

    def get_or_none(self, key: Any) -> Optional[Any]:
        try:
            return self.get(key)
        except (MetadataNotFoundError, ServiceError):
            return None

    def contains(self, key: Any) -> bool:
        return self.get_or_none(key) is not None

    def probe_exists(self, key: Any) -> Optional[bool]:
        """Whether ``key`` is stored; ``None`` when no live provider owns it.

        The benchmark tracer (``benchmarks/perf/blobperf/tracing.py``) wraps
        this method by name and is its only user; it goes when ROADMAP item
        7(a) deletes ``tracing.install()``.
        """
        if not self.live_owners(key):
            return None
        return key in self.get_many([key])

    # -- introspection ----------------------------------------------------------
    def load_per_provider(self) -> Dict[str, int]:
        """Number of entries stored on each provider."""
        return {pid: len(store) for pid, store in self._stores.items()}

    def access_stats(self) -> Dict[str, Dict[str, int]]:
        return {pid: store.stats for pid, store in self._stores.items()}

    def total_entries(self) -> int:
        return sum(len(store) for store in self._stores.values())

    def rebalance_report(self, keys: Iterable[Any]) -> Dict[str, int]:
        """How a hypothetical key set would distribute over live providers."""
        counts = {pid: 0 for pid in self._stores}
        for key in keys:
            counts[self.owners(key)[0]] += 1
        return counts
