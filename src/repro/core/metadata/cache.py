"""Client-side metadata cache.

Section IV.A of the paper highlights "the benefits of metadata caching on
the client side" for fine-grain concurrent access.  Because metadata tree
nodes are immutable (versioning means a key is never rebound), a plain LRU
cache is always coherent: there is nothing to invalidate.  The cache wraps
the distributed store with the same ``get``/``put`` — and vectored
``get_many``/``put_many`` — interface, so the segment-tree builder and
reader are oblivious to whether caching is on.  Vectored gets serve hits
locally and forward only the misses to the backend in one bulk request.
Misses are not remembered: clients only look up nodes of published
snapshots, which exist by construction.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


class MetadataCache:
    """Write-through LRU cache of metadata tree nodes keyed by NodeKey."""

    def __init__(self, backend, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._backend = backend
        self._capacity = capacity
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def backend(self):
        return self._backend

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    # -- store interface ------------------------------------------------------
    def get(self, key: Any) -> Any:
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return cached
        self.misses += 1
        value = self._backend.get(key)
        self._insert(key, value)
        return value

    def get_or_none(self, key: Any) -> Optional[Any]:
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return cached
        self.misses += 1
        value = self._backend.get_or_none(key)
        if value is not None:
            self._insert(key, value)
        return value

    def put(self, key: Any, value: Any) -> None:
        """Write through to the DHT and retain the node locally."""
        self._backend.put(key, value)
        self._insert(key, value)

    def probe(self, key: Any) -> Optional[bool]:
        """Cheap existence check: cache, then the backend's filter tree.

        ``True``/``False`` are exact; ``None`` means the question cannot be
        answered locally (no filter surface) and the caller should just
        perform the read.
        """
        if key in self._entries:
            return True
        probe = getattr(self._backend, "probe_exists", None)
        if probe is None:
            return None
        return probe(key)

    # -- vectored interface ----------------------------------------------------
    def get_many(self, keys: Sequence[Any]) -> Dict[Any, Any]:
        """Bulk get: serve hits locally, forward only the misses to the DHT.

        Returns the keys found (local hits plus backend hits); missing keys
        are simply absent, mirroring the backend's ``get_many``.  Hit/miss
        counters advance per key, exactly as the scalar sequence would.
        """
        found: Dict[Any, Any] = {}
        missing: List[Any] = []
        for key in keys:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                found[key] = cached
            else:
                self.misses += 1
                missing.append(key)
        if missing:
            fetched = self._backend.get_many(missing)
            for key, value in fetched.items():
                self._insert(key, value)
            found.update(fetched)
        return found

    def put_many(self, items: Iterable[Tuple[Any, Any]]) -> None:
        """Bulk write-through: one backend ``put_many``, all pairs retained."""
        pairs = list(items)
        self._backend.put_many(pairs)
        for key, value in pairs:
            self._insert(key, value)

    # -- internals ---------------------------------------------------------------
    def _insert(self, key: Any, value: Any) -> None:
        if key in self._entries:
            # Refresh the stored value: a re-put of an (immutable, hence
            # equal) node may still carry a fresher object identity.
            self._entries[key] = value
            self._entries.move_to_end(key)
            return
        self._entries[key] = value
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class PassthroughMetadataStore:
    """No-op "cache" exposing the same interface, used when caching is disabled.

    Keeping the same wrapper shape lets experiments toggle caching with a
    single configuration flag while the rest of the client stays identical.
    """

    def __init__(self, backend) -> None:
        self._backend = backend
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def backend(self):
        return self._backend

    def get(self, key: Any) -> Any:
        self.misses += 1
        return self._backend.get(key)

    def get_or_none(self, key: Any) -> Optional[Any]:
        self.misses += 1
        return self._backend.get_or_none(key)

    def put(self, key: Any, value: Any) -> None:
        self._backend.put(key, value)

    def get_many(self, keys: Sequence[Any]) -> Dict[Any, Any]:
        self.misses += len(keys)
        return self._backend.get_many(keys)

    def put_many(self, items: Iterable[Tuple[Any, Any]]) -> None:
        self._backend.put_many(items)

    def probe(self, key: Any) -> Optional[bool]:
        """Delegate existence probes straight to the backend's filter tree."""
        probe = getattr(self._backend, "probe_exists", None)
        if probe is None:
            return None
        return probe(key)

    def clear(self) -> None:  # pragma: no cover - nothing to clear
        return None

    @property
    def stats(self) -> Dict[str, int]:
        return {"entries": 0, "hits": self.hits, "misses": self.misses, "evictions": 0}
