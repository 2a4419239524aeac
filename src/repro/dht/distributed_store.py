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
from ..filters.bloom import DEFAULT_REBUILD_THRESHOLD, DEFAULT_TARGET_FP
from ..filters.tree import FilterTree
from ..obs import metrics as obs_metrics
from .hashing import ring_position
from .ring import ConsistentHashRing
from .store import KeyValueStore

#: Fan provider groups out over the worker pool only from this many groups
#: up; below it, the thread handoff costs more than the in-process calls.
MIN_PARALLEL_PROVIDER_GROUPS = 4

_NOT_FOUND = object()


class DistributedKeyValueStore:
    """A replicated key-value store partitioned over metadata providers."""

    def __init__(
        self,
        provider_ids: Sequence[str],
        virtual_nodes: int = 32,
        replication: int = 1,
        filters_enabled: bool = True,
        filters_target_fp: float = DEFAULT_TARGET_FP,
        filters_rebuild_threshold: int = DEFAULT_REBUILD_THRESHOLD,
    ) -> None:
        if not provider_ids:
            raise ValueError("at least one metadata provider is required")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self._replication = min(replication, len(provider_ids))
        self._ring = ConsistentHashRing(virtual_nodes=virtual_nodes)
        self._stores: Dict[str, KeyValueStore] = {}
        self._alive: Dict[str, bool] = {}
        self.filters_enabled = filters_enabled
        self._filters_target_fp = filters_target_fp
        self._filters_rebuild_threshold = filters_rebuild_threshold
        for pid in provider_ids:
            self._ring.add_node(pid)
            self._stores[pid] = self._make_store(pid)
            self._alive[pid] = True
        #: Bloofi-style union tree over the providers' Bloom filters; the
        #: fallback-skip fast path and :meth:`probe_exists` consult it.
        self._tree = FilterTree(list(provider_ids)) if filters_enabled else None
        #: True when ``_stores`` holds in-process stores whose filters can be
        #: synced exactly (and for free) before every probe.  The networked
        #: subclass flips this off and revalidates over RPC instead.
        self._filter_leaves_live = True
        #: Test hook: force every filter probe to answer "maybe" (a 100%
        #: false-positive rate) — results must stay byte-identical to the
        #: unfiltered path, only slower.
        self.filter_fp_injection = False
        #: RPC-visible accounting for benchmarks/tests.
        self.filter_skipped_probes = 0
        self.filter_refreshes = 0
        #: Optional callback invoked as (provider_id, op, key) on every access;
        #: the simulator and the QoS monitor hook in here.  Scalar accesses
        #: fire with op ``"get"``/``"put"`` and a single key; vectored
        #: accesses fire once per provider group with op
        #: ``"get_many"``/``"put_many"`` and the *tuple* of keys that one
        #: bulk request carries.
        self.access_hook: Optional[Callable[[str, str, Any], None]] = None

    def _make_store(self, pid: str) -> KeyValueStore:
        return KeyValueStore(
            provider_id=pid,
            filters_enabled=self.filters_enabled,
            filters_target_fp=self._filters_target_fp,
            filters_rebuild_threshold=self._filters_rebuild_threshold,
        )

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
        self._stores[provider_id] = self._make_store(provider_id)
        self._alive[provider_id] = True
        if self._tree is not None:
            self._tree.add_leaf(provider_id)

    # -- key placement ----------------------------------------------------------
    def owners(self, key: Any) -> List[str]:
        """Replica owners for ``key`` (primary first), ignoring liveness."""
        return self._ring.owners(key, self._replication)

    def live_owners(self, key: Any) -> List[str]:
        return [pid for pid in self.owners(key) if self._alive[pid]]

    # -- bloom filter plane (ROADMAP item 4) -------------------------------------
    def _may_contain(self, pid: str, key: Any) -> bool:
        """Filter verdict for one provider; "maybe" whenever in doubt."""
        if self._tree is None or self.filter_fp_injection:
            return True
        if self._filter_leaves_live:
            self._sync_leaf(pid)
        return self._tree.leaf_may_contain(pid, key)

    def _sync_leaf(self, pid: str) -> None:
        """Bring an in-process leaf exactly current (cheap epoch/gen compare)."""
        store = self._stores[pid]
        state = store.filter_state()
        known = self._tree.leaf_state(pid)
        if known == state:
            return
        epoch, generation = known if known is not None else (0, 0)
        self._apply_filter_update(pid, store.filter_delta(epoch, generation))

    def _apply_filter_update(self, pid: str, update: Any) -> None:
        """Apply a snapshot/delta; an unchainable delta forces a snapshot."""
        if not self._tree.apply(update):
            self._tree.apply_snapshot(self._stores[pid].filter_snapshot())

    def refresh_filters(self, provider_ids: Optional[Sequence[str]] = None) -> int:
        """Pull filter updates (compact deltas when possible) from providers.

        One small call per live provider — a real RPC in networked mode, a
        local call in-process.  Returns the number of providers refreshed.
        """
        if self._tree is None:
            return 0
        pids = (
            list(provider_ids) if provider_ids is not None else sorted(self._stores)
        )
        refreshed = 0
        for pid in pids:
            if not self._alive.get(pid, False):
                continue
            known = self._tree.leaf_state(pid) or (0, 0)
            try:
                self._apply_filter_update(
                    pid, self._stores[pid].filter_delta(known[0], known[1])
                )
            except (ServiceError, ConnectionError, OSError):
                continue
            refreshed += 1
            self.filter_refreshes += 1
        return refreshed

    def probe_exists(self, key: Any) -> Optional[bool]:
        """Exact existence check via the filter tree; None when filters are off.

        ``False`` is trustworthy: the pruned tree descent costs O(log n)
        local probes, and any surviving candidate set is intersected with
        the key's replica owners (the only providers a ``get`` would ever
        ask).  In-process leaves are synced first; remote leaves are
        refreshed (owners only) before a negative verdict is returned.
        """
        if self._tree is None:
            return None
        if self.filter_fp_injection:
            return True
        live = self.live_owners(key)
        if not live:
            return None  # a service question, not an existence answer
        reg = obs_metrics.registry()
        reg.counter("filters.probes").inc()
        if self._filter_leaves_live:
            for pid in live:
                self._sync_leaf(pid)
        else:
            # A never-refreshed remote leaf answers "maybe" for everything;
            # pull the owners' filters once so the verdict is meaningful.
            unknown = [pid for pid in live if self._tree.leaf_state(pid) is None]
            if unknown:
                self.refresh_filters(unknown)
        candidates = self._tree.probe(key)
        hits = [pid for pid in live if pid in candidates]
        if not hits and not self._filter_leaves_live:
            # Stale-filter guard: refresh just the owners' leaves over RPC
            # and re-ask before trusting a negative.
            self.refresh_filters(live)
            hits = [pid for pid in live if self._tree.leaf_may_contain(pid, key)]
        if not hits:
            reg.counter("filters.probe_negatives").inc()
            return False
        return True

    def filter_states(self) -> Dict[str, Optional[Tuple[bool, int, int]]]:
        """Current (alive, filter epoch, generation) per provider.

        The scrubber's change detector: a ring segment whose owners all
        report the same triple as at the last clean pass provably received
        no churn since.  ``None`` marks a provider whose state could not be
        learned — callers must treat it as changed.
        """
        states: Dict[str, Optional[Tuple[bool, int, int]]] = {}
        for pid in sorted(self._stores):
            if not self._alive.get(pid, False):
                states[pid] = (False, -1, -1)
                continue
            if self._tree is None:
                states[pid] = None
                continue
            if self._filter_leaves_live:
                epoch, generation = self._stores[pid].filter_state()
            else:
                self.refresh_filters([pid])
                held = self._tree.leaf_state(pid)
                if held is None:
                    states[pid] = None
                    continue
                epoch, generation = held
            states[pid] = (True, epoch, generation)
        return states

    def _note_skips(self, count: int) -> None:
        self.filter_skipped_probes += count
        obs_metrics.registry().counter("filters.skipped_rpcs").inc(count)

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
        owners = self.owners(key)
        missed: List[str] = []
        skipped: List[str] = []
        probed_live = False
        for pid in owners:
            if not self._alive[pid]:
                continue
            if probed_live and not self._may_contain(pid, key):
                # The fallback replica's filter excludes the key: provably a
                # miss (filters have no false negatives), so skip the RPC but
                # keep the owner in the repair set exactly as a probed miss
                # would be.  The primary is never skipped.
                skipped.append(pid)
                missed.append(pid)
                continue
            probed_live = True
            if self.access_hook is not None:
                self.access_hook(pid, "get", key)
            value = self._stores[pid].get_or_none(key)
            if value is not None:
                self._repair([(key, value)], {key: missed})
                return value
            missed.append(pid)
        if skipped:
            self._note_skips(len(skipped))
            if not self._filter_leaves_live:
                value = self._revalidate_get(key, skipped, missed)
                if value is not _NOT_FOUND:
                    return value
        if missed:
            raise MetadataNotFoundError(key)
        raise ServiceError(f"no live metadata provider owns key {key!r}")

    def _revalidate_get(self, key: Any, skipped: List[str], missed: List[str]) -> Any:
        """Stale-filter guard for remote leaves: before declaring a miss,
        refresh the skipped owners' filters over RPC and probe any that may
        hold the key after all — a false negative is thereby impossible even
        when the client's tree lags the providers."""
        self.refresh_filters(skipped)
        for pid in skipped:
            if not self._tree.leaf_may_contain(pid, key):
                continue
            if self.access_hook is not None:
                self.access_hook(pid, "get", key)
            value = self._stores[pid].get_or_none(key)
            if value is not None:
                # Repair exactly the owners an unfiltered walk would have
                # probed (and missed) before reaching this one.
                self._repair([(key, value)], {key: missed[: missed.index(pid)]})
                return value
        return _NOT_FOUND

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
        skipped_at: Dict[Any, List[str]] = {}
        remaining = list(unique_keys)
        rank = 0
        while remaining:
            groups: Dict[str, List[Any]] = {}
            round_skips = 0
            for key in remaining:
                live = live_owners[key]
                if rank < len(live):
                    pid = live[rank]
                    if rank > 0 and not self._may_contain(pid, key):
                        # Fallback replica filtered out: provably a miss, so
                        # skip its RPC.  It stays in ``live_owners[key][:r]``,
                        # which keeps the read-repair target set identical to
                        # the unfiltered walk's.
                        skipped_at.setdefault(key, []).append(pid)
                        round_skips += 1
                        continue
                    groups.setdefault(pid, []).append(key)
            if not groups and not round_skips:
                break
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
        total_skips = sum(len(pids) for pids in skipped_at.values())
        if total_skips:
            self._note_skips(total_skips)
            if not self._filter_leaves_live:
                self._revalidate_get_many(
                    skipped_at, found, live_owners, repaired, missed_at
                )
        self._repair(repaired, missed_at)
        return found

    def _revalidate_get_many(
        self,
        skipped_at: Dict[Any, List[str]],
        found: Dict[Any, Any],
        live_owners: Dict[Any, List[str]],
        repaired: List[Tuple[Any, Any]],
        missed_at: Dict[Any, List[str]],
    ) -> None:
        """Stale-filter guard (remote leaves): any key still missing after
        skips refreshes the skipped owners' filters and probes the ones that
        may hold it after all, keeping the vectored path false-negative-free."""
        leftovers = [key for key in skipped_at if key not in found]
        if not leftovers:
            return
        self.refresh_filters(
            sorted({pid for key in leftovers for pid in skipped_at[key]})
        )
        for key in leftovers:
            for pid in skipped_at[key]:
                if not self._tree.leaf_may_contain(pid, key):
                    continue
                if self.access_hook is not None:
                    self.access_hook(pid, "get", key)
                value = self._stores[pid].get_or_none(key)
                if value is None:
                    continue
                found[key] = value
                live = live_owners[key]
                repaired.append((key, value))
                missed_at[key] = live[: live.index(pid)]
                break

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
