"""Provider manager: decides where new chunks are stored.

The paper (Section I.B.2): "a provider manager decides which chunks are
stored on which data providers when writes or appends are issued by the
clients", and I.B.3: "a configurable chunk distribution strategy is
employed ... for example, round-robin can be used to achieve load-
balancing".

Three strategies are provided:

``round_robin``
    Successive chunks go to successive providers in a global cyclic order —
    the strategy the paper's experiments use for load balancing.
``random``
    Uniformly random providers (seeded, so experiments are reproducible).
``load_aware``
    Chunks go to the least-loaded providers, spreading hot-spot load when
    providers are heterogeneous.  A provider's load is the larger of two
    lower bounds on what it holds or is about to hold: the chunks it
    reports stored (which misses pushes still in flight, and stays 0 on
    the networked ``pmgr`` ledger) and the chunks this manager placed on it
    (which misses chunks stored before the manager saw them, such as a
    preload).  Writers never report back, exactly as in the paper.

Every allocation also hands out a globally unique ``write_id`` used to name
the chunks of that write, so data can be pushed to providers before the
version manager assigns the snapshot version (keeping the serialised commit
window as small as possible, exactly as in BlobSeer's write protocol).
"""

from __future__ import annotations

import random
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from .chunking import chunk_count
from .config import BlobSeerConfig
from .data_provider import ProviderPool
from .errors import AllocationError
from .interval import Interval, iter_chunks
from .types import BlobId, WritePlan


class PlacementStrategy:
    """Interface of a chunk placement strategy."""

    def select(
        self,
        live_providers: Sequence[str],
        num_chunks: int,
        replication: int,
        load: Dict[str, int],
    ) -> List[Tuple[str, ...]]:
        """Return, for each chunk, the ordered replica set (primary first)."""
        raise NotImplementedError


class RoundRobinStrategy(PlacementStrategy):
    """Cyclic allocation over the live providers (default, load-balancing)."""

    def __init__(self) -> None:
        self._cursor = 0
        self._lock = threading.Lock()

    def select(
        self,
        live_providers: Sequence[str],
        num_chunks: int,
        replication: int,
        load: Dict[str, int],
    ) -> List[Tuple[str, ...]]:
        n = len(live_providers)
        placements: List[Tuple[str, ...]] = []
        with self._lock:
            for _ in range(num_chunks):
                replicas = tuple(
                    live_providers[(self._cursor + r) % n]
                    for r in range(min(replication, n))
                )
                placements.append(replicas)
                self._cursor = (self._cursor + 1) % n
        return placements


class RandomStrategy(PlacementStrategy):
    """Uniformly random placement (seeded for reproducibility)."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def select(
        self,
        live_providers: Sequence[str],
        num_chunks: int,
        replication: int,
        load: Dict[str, int],
    ) -> List[Tuple[str, ...]]:
        n = len(live_providers)
        k = min(replication, n)
        with self._lock:
            return [tuple(self._rng.sample(list(live_providers), k)) for _ in range(num_chunks)]


class LoadAwareStrategy(PlacementStrategy):
    """Least-loaded-first placement over the manager's per-provider load."""

    def select(
        self,
        live_providers: Sequence[str],
        num_chunks: int,
        replication: int,
        load: Dict[str, int],
    ) -> List[Tuple[str, ...]]:
        n = len(live_providers)
        k = min(replication, n)
        # Work on a local copy of the load so chunks of the same allocation
        # spread out instead of all piling on the initially least-loaded node.
        working = {pid: load.get(pid, 0) for pid in live_providers}
        placements: List[Tuple[str, ...]] = []
        for _ in range(num_chunks):
            ranked = sorted(live_providers, key=lambda pid: (working[pid], pid))
            replicas = tuple(ranked[:k])
            placements.append(replicas)
            for pid in replicas:
                working[pid] += 1
        return placements


_STRATEGIES = {
    "round_robin": RoundRobinStrategy,
    "random": RandomStrategy,
    "load_aware": LoadAwareStrategy,
}


def make_strategy(name: str, seed: int = 0) -> PlacementStrategy:
    """Instantiate a placement strategy by configuration name."""
    if name not in _STRATEGIES:
        raise AllocationError(f"unknown placement strategy {name!r}")
    if name == "random":
        return RandomStrategy(seed=seed)
    return _STRATEGIES[name]()


class ProviderManager:
    """Allocates providers for writes and tracks per-provider load."""

    def __init__(
        self,
        pool: ProviderPool,
        config: BlobSeerConfig,
        strategy: Optional[PlacementStrategy] = None,
        seed: int = 0,
    ) -> None:
        self._pool = pool
        self._config = config
        self._strategy = strategy or make_strategy(config.placement_strategy, seed=seed)
        self._lock = threading.Lock()
        self._next_write_id = 1
        #: chunk replicas ever placed per provider (never decremented)
        self._placed: Dict[str, int] = {pid: 0 for pid in pool.provider_ids}
        self.allocations = 0

    @property
    def pool(self) -> ProviderPool:
        return self._pool

    # -- allocation ---------------------------------------------------------------
    def allocate(
        self,
        blob_id: BlobId,
        offset: int,
        size: int,
        chunk_size: int,
        replication: Optional[int] = None,
    ) -> Tuple[int, WritePlan]:
        """Return ``(write_id, plan)`` for a write of ``size`` bytes at ``offset``."""
        if size <= 0:
            raise AllocationError("cannot allocate providers for an empty write")
        replication = replication if replication is not None else self._config.replication
        live = self._pool.live_provider_ids()
        if not live:
            raise AllocationError("no live data provider available")
        if replication > len(live):
            replication = len(live)

        pieces = list(iter_chunks(Interval.of(offset, size), chunk_size))
        load = self._current_load(live)
        placements = self._strategy.select(live, len(pieces), replication, load)
        if len(placements) != len(pieces):
            raise AllocationError("placement strategy returned a wrong-sized plan")

        with self._lock:
            write_id = self._next_write_id
            self._next_write_id += 1
            for replicas in placements:
                for pid in replicas:
                    self._placed[pid] = self._placed.get(pid, 0) + 1
            self.allocations += 1

        plan = WritePlan(
            blob_id=blob_id,
            chunk_size=chunk_size,
            placements=tuple(
                (piece.start, replicas) for piece, replicas in zip(pieces, placements)
            ),
        )
        return write_id, plan

    # -- load tracking ---------------------------------------------------------------
    def _current_load(self, live: Sequence[str]) -> Dict[str, int]:
        with self._lock:
            placed = dict(self._placed)
        return {
            pid: max(self._pool.get(pid).chunks_stored, placed.get(pid, 0))
            for pid in live
        }

    def load_snapshot(self) -> Dict[str, int]:
        """Current ``max(stored, placed)`` chunk count per live provider."""
        return self._current_load(self._pool.live_provider_ids())

    def placement_balance(self) -> float:
        """Coefficient of variation of per-provider chunk counts (0 = perfect)."""
        counts = [self._pool.get(pid).chunks_stored for pid in self._pool.live_provider_ids()]
        if not counts:
            return 0.0
        mean = sum(counts) / len(counts)
        if mean == 0:
            return 0.0
        variance = sum((c - mean) ** 2 for c in counts) / len(counts)
        return (variance ** 0.5) / mean
