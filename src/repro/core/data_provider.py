"""Data provider: the process that physically stores chunks.

Each data provider aggregates the storage space of one machine into the
BlobSeer deployment (the paper's "scalable aggregation of storage space
from the participating nodes").  It exposes a tiny RPC surface — store a
chunk, fetch a chunk, report statistics — backed by one of the chunk
stores in :mod:`repro.storage`.  Liveness is modelled explicitly so the
fault-tolerance experiments can crash and recover providers.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from ..storage.memory_store import ChunkStore, MemoryChunkStore
from .errors import ChunkNotFoundError, ProviderUnavailableError
from .types import ChunkKey, ProviderStats


class DataProvider:
    """One storage node of the deployment.

    Chunk and byte counts are read from the backing store; ``stats`` holds
    only the read/write traffic counters that ``report()`` passes on.
    """

    def __init__(
        self,
        provider_id: str,
        store: Optional[ChunkStore] = None,
        host: Optional[str] = None,
        capacity_bytes: Optional[int] = None,
    ) -> None:
        self.provider_id = provider_id
        #: Physical host the provider runs on (used for locality scheduling).
        self.host = host if host is not None else provider_id
        self._store = store if store is not None else MemoryChunkStore()
        self._capacity_bytes = capacity_bytes
        self._alive = True
        self.stats = ProviderStats(provider_id=provider_id)
        # Batched clients fan chunk pushes out across a worker pool, so the
        # capacity check and the statistics must update atomically.
        self._lock = threading.Lock()

    # -- liveness ---------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._alive

    def crash(self) -> None:
        """Simulate a failure: the provider stops answering requests."""
        self._alive = False

    def recover(self, lose_data: bool = False) -> None:
        """Bring the provider back; optionally with all stored chunks lost."""
        if lose_data and hasattr(self._store, "clear"):
            self._store.clear()  # type: ignore[attr-defined]
        self._alive = True

    def _check_alive(self) -> None:
        if not self._alive:
            raise ProviderUnavailableError(self.provider_id)

    # -- data plane ---------------------------------------------------------------
    def put_chunk(self, key: ChunkKey, data: bytes) -> None:
        """Store one chunk (idempotent for identical content)."""
        self._check_alive()
        with self._lock:
            if self._capacity_bytes is not None:
                if self._store.bytes_stored + len(data) > self._capacity_bytes:
                    raise ProviderUnavailableError(
                        f"{self.provider_id} (capacity exhausted)"
                    )
            already = self._store.contains(key)
            self._store.put(key, data)
            if not already:
                self.stats.record_write(len(data))

    def get_chunk(self, key: ChunkKey) -> bytes:
        """Fetch one chunk's payload."""
        self._check_alive()
        data = self._store.get(key)
        with self._lock:
            self.stats.record_read(len(data))
        return data

    def delete_chunk(self, key: ChunkKey) -> bool:
        """Drop a chunk (garbage collection of pruned snapshots only)."""
        self._check_alive()
        return self._store.delete(key)

    def chunk_keys(self) -> List[ChunkKey]:
        self._check_alive()
        return self._store.keys()

    # -- introspection ----------------------------------------------------------
    @property
    def bytes_stored(self) -> int:
        return self._store.bytes_stored

    @property
    def chunks_stored(self) -> int:
        return len(self._store)

    def utilization(self) -> Optional[float]:
        """Fraction of capacity used (None when capacity is unbounded)."""
        if self._capacity_bytes is None or self._capacity_bytes == 0:
            return None
        return self._store.bytes_stored / self._capacity_bytes

    def report(self) -> Dict[str, object]:
        """Monitoring record consumed by the QoS subsystem."""
        return {
            "provider_id": self.provider_id,
            "host": self.host,
            "alive": self._alive,
            "chunks_stored": self.chunks_stored,
            "bytes_stored": self.bytes_stored,
            "reads_served": self.stats.reads_served,
            "writes_served": self.stats.writes_served,
            "bytes_read": self.stats.bytes_read,
            "bytes_written": self.stats.bytes_written,
        }


class ProviderPool:
    """Directory of all data providers of a deployment.

    Routes chunk reads/writes to providers, implementing replica failover on
    reads (try the primary, then each replica in order) and best-effort
    replica writes (a write succeeds when at least one replica accepted the
    chunk; the number of successful replicas is returned so callers can
    enforce stricter policies).
    """

    def __init__(self, providers: List[DataProvider]) -> None:
        if not providers:
            raise ValueError("at least one data provider is required")
        self._providers: Dict[str, DataProvider] = {
            provider.provider_id: provider for provider in providers
        }

    # -- directory ---------------------------------------------------------------
    @property
    def provider_ids(self) -> List[str]:
        return sorted(self._providers)

    def __len__(self) -> int:
        return len(self._providers)

    def get(self, provider_id: str) -> DataProvider:
        return self._providers[provider_id]

    def add(self, provider: DataProvider) -> None:
        if provider.provider_id in self._providers:
            raise ValueError(f"provider {provider.provider_id!r} already registered")
        self._providers[provider.provider_id] = provider

    def live_provider_ids(self) -> List[str]:
        return sorted(pid for pid, p in self._providers.items() if p.alive)

    # -- replicated data plane ------------------------------------------------------
    def write_chunk(self, providers: List[str], key: ChunkKey, data: bytes) -> int:
        """Write a chunk to every listed replica; return how many succeeded."""
        successes = 0
        for pid in providers:
            provider = self._providers.get(pid)
            if provider is None:
                continue
            try:
                provider.put_chunk(key, data)
                successes += 1
            except ProviderUnavailableError:
                continue
        return successes

    def read_chunk(self, providers: List[str], key: ChunkKey) -> bytes:
        """Read a chunk from the first live replica that has it."""
        last_error: Optional[Exception] = None
        for pid in providers:
            provider = self._providers.get(pid)
            if provider is None:
                continue
            try:
                return provider.get_chunk(key)
            except (ProviderUnavailableError, ChunkNotFoundError) as exc:
                last_error = exc
        if last_error is not None:
            raise last_error
        raise ChunkNotFoundError(str(key))

    # -- monitoring ------------------------------------------------------------------
    def reports(self) -> List[Dict[str, object]]:
        return [provider.report() for provider in self._providers.values()]

    def total_bytes_stored(self) -> int:
        return sum(p.bytes_stored for p in self._providers.values() if p.alive)
