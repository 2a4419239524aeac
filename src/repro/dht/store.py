"""Key-value stores backing the metadata DHT.

Each metadata provider is, at its core, an immutable key-value store: the
versioning design of BlobSeer guarantees that a metadata tree node, once
written, is never modified (only new nodes are added for new snapshot
versions).  The store therefore rejects conflicting overwrites — attempting
to bind an existing key to a *different* value is a logic error upstream,
while idempotent re-puts (same value) are allowed because a client retrying
a write after a timeout may legitimately resend the same node.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.errors import MetadataNotFoundError


class _Missing:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<missing>"


_MISSING = _Missing()


class KeyValueStore:
    """In-memory, append-only key-value store for one metadata provider.

    One lock guards the map; the bulk ``get_many``/``put_many`` calls take
    it once per request, matching one RPC to a provider process.
    """

    def __init__(self, provider_id: str = "meta-0") -> None:
        self.provider_id = provider_id
        self._data: Dict[Any, Any] = {}
        self._lock = threading.Lock()
        self.puts = 0
        self.gets = 0
        self.hits = 0
        #: Values installed by read repair (a replica re-converging after a
        #: recovery with data loss) rather than by a client put.
        self.repairs = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def put(self, key: Any, value: Any) -> None:
        """Bind ``key`` to ``value``; conflicting rebinds raise ValueError."""
        with self._lock:
            self.puts += 1
            existing = self._data.get(key, _MISSING)
            if existing is not _MISSING and existing != value:
                raise ValueError(
                    f"metadata key {key!r} is immutable and already bound "
                    f"to a different value"
                )
            self._data[key] = value

    def get(self, key: Any) -> Any:
        """Return the value for ``key`` or raise MetadataNotFoundError."""
        with self._lock:
            self.gets += 1
            if key not in self._data:
                raise MetadataNotFoundError(key)
            self.hits += 1
            return self._data[key]

    def put_many(self, items: Iterable[Tuple[Any, Any]]) -> None:
        """Bind several pairs under one lock acquisition (one bulk RPC).

        Each binding follows the same immutability rule as :meth:`put`; a
        conflicting rebind raises after the earlier pairs of the batch were
        installed (exactly what a sequence of scalar puts would leave).
        """
        with self._lock:
            for key, value in items:
                self.puts += 1
                existing = self._data.get(key, _MISSING)
                if existing is not _MISSING and existing != value:
                    raise ValueError(
                        f"metadata key {key!r} is immutable and already bound "
                        f"to a different value"
                    )
                self._data[key] = value

    def get_many(self, keys: Sequence[Any]) -> Dict[Any, Any]:
        """Fetch several keys under one lock acquisition (one bulk RPC).

        Returns only the keys present; callers decide whether a miss is an
        error.  Per-key get/hit counters advance exactly as the equivalent
        scalar sequence would.
        """
        with self._lock:
            found: Dict[Any, Any] = {}
            for key in keys:
                self.gets += 1
                value = self._data.get(key, _MISSING)
                if value is not _MISSING:
                    self.hits += 1
                    found[key] = value
            return found

    def submit(self, method: str, payload: Any) -> Callable[[], Any]:
        """Run one ``get_many``/``put_many`` now; return its result as a thunk."""
        result = getattr(self, method)(payload)
        return lambda: result

    def repair_put(self, key: Any, value: Any) -> None:
        """Install a value learned from a replica (read repair accounting)."""
        with self._lock:
            existing = self._data.get(key, _MISSING)
            if existing is not _MISSING and existing != value:
                raise ValueError(
                    f"metadata key {key!r} is immutable and already bound "
                    f"to a different value"
                )
            self._data[key] = value
            self.repairs += 1

    def get_or_none(self, key: Any) -> Optional[Any]:
        with self._lock:
            self.gets += 1
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                return None
            self.hits += 1
            return value

    def delete(self, key: Any) -> bool:
        """Remove a key (used only by garbage collection of pruned versions)."""
        with self._lock:
            return self._data.pop(key, _MISSING) is not _MISSING

    def keys(self) -> List[Any]:
        with self._lock:
            return list(self._data.keys())

    def items(self) -> Iterator[Tuple[Any, Any]]:
        with self._lock:
            return iter(list(self._data.items()))

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._data),
            "puts": self.puts,
            "gets": self.gets,
            "hits": self.hits,
            "repairs": self.repairs,
        }
