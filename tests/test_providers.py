"""Tests for data providers, the provider pool and the provider manager."""

from __future__ import annotations

import pytest

from repro.core.config import BlobSeerConfig
from repro.core.data_provider import DataProvider, ProviderPool
from repro.core.errors import (
    AllocationError,
    ChunkNotFoundError,
    ProviderUnavailableError,
)
from repro.core.provider_manager import (
    LoadAwareStrategy,
    ProviderManager,
    RandomStrategy,
    RoundRobinStrategy,
    make_strategy,
)
from repro.core.types import ChunkKey


def key(i: int) -> ChunkKey:
    return ChunkKey(1, i, 0)


def make_pool(n=4) -> ProviderPool:
    return ProviderPool([DataProvider(f"p{i}") for i in range(n)])


class TestDataProvider:
    def test_put_get_roundtrip_and_stats(self):
        provider = DataProvider("p0")
        provider.put_chunk(key(1), b"chunk-data")
        assert provider.get_chunk(key(1)) == b"chunk-data"
        assert provider.stats.writes_served == 1
        assert provider.stats.reads_served == 1
        assert provider.bytes_stored == 10

    def test_crashed_provider_refuses_requests(self):
        provider = DataProvider("p0")
        provider.put_chunk(key(1), b"x")
        provider.crash()
        with pytest.raises(ProviderUnavailableError):
            provider.get_chunk(key(1))
        with pytest.raises(ProviderUnavailableError):
            provider.put_chunk(key(2), b"y")

    def test_recover_keeps_data_by_default(self):
        provider = DataProvider("p0")
        provider.put_chunk(key(1), b"x")
        provider.crash()
        provider.recover()
        assert provider.get_chunk(key(1)) == b"x"

    def test_recover_with_data_loss(self):
        provider = DataProvider("p0")
        provider.put_chunk(key(1), b"x")
        provider.crash()
        provider.recover(lose_data=True)
        with pytest.raises(ChunkNotFoundError):
            provider.get_chunk(key(1))

    def test_capacity_limit(self):
        provider = DataProvider("p0", capacity_bytes=10)
        provider.put_chunk(key(1), b"12345")
        with pytest.raises(ProviderUnavailableError):
            provider.put_chunk(key(2), b"6789012345")
        assert provider.utilization() == pytest.approx(0.5)

    def test_duplicate_put_does_not_double_count(self):
        provider = DataProvider("p0")
        provider.put_chunk(key(1), b"abc")
        provider.put_chunk(key(1), b"abc")
        assert provider.stats.writes_served == 1

    def test_report_contains_monitoring_fields(self):
        report = DataProvider("p0", host="h0").report()
        assert report["provider_id"] == "p0" and report["host"] == "h0"
        assert "bytes_written" in report and "alive" in report


class TestProviderPool:
    def test_write_chunk_counts_successes(self):
        pool = make_pool(3)
        assert pool.write_chunk(["p0", "p1"], key(1), b"data") == 2

    def test_write_chunk_skips_dead_replicas(self):
        pool = make_pool(3)
        pool.get("p1").crash()
        assert pool.write_chunk(["p0", "p1"], key(1), b"data") == 1

    def test_read_chunk_fails_over_to_replica(self):
        pool = make_pool(3)
        pool.write_chunk(["p0", "p1"], key(1), b"data")
        pool.get("p0").crash()
        assert pool.read_chunk(["p0", "p1"], key(1)) == b"data"

    def test_read_chunk_raises_when_all_replicas_dead(self):
        pool = make_pool(2)
        pool.write_chunk(["p0"], key(1), b"data")
        pool.get("p0").crash()
        with pytest.raises((ProviderUnavailableError, ChunkNotFoundError)):
            pool.read_chunk(["p0"], key(1))

    def test_live_provider_ids(self):
        pool = make_pool(3)
        pool.get("p2").crash()
        assert pool.live_provider_ids() == ["p0", "p1"]

    def test_add_duplicate_provider_rejected(self):
        pool = make_pool(2)
        with pytest.raises(ValueError):
            pool.add(DataProvider("p0"))

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            ProviderPool([])

    def test_total_bytes_ignores_dead_providers(self):
        pool = make_pool(2)
        pool.write_chunk(["p0"], key(1), b"aaaa")
        pool.write_chunk(["p1"], key(2), b"bb")
        pool.get("p0").crash()
        assert pool.total_bytes_stored() == 2


class TestPlacementStrategies:
    LIVE = [f"p{i}" for i in range(4)]

    def test_round_robin_cycles(self):
        strategy = RoundRobinStrategy()
        placements = strategy.select(self.LIVE, 6, 1, {})
        assert [p[0] for p in placements] == ["p0", "p1", "p2", "p3", "p0", "p1"]

    def test_round_robin_replicas_are_distinct_neighbours(self):
        strategy = RoundRobinStrategy()
        placements = strategy.select(self.LIVE, 2, 3, {})
        assert placements[0] == ("p0", "p1", "p2")
        assert len(set(placements[0])) == 3

    def test_random_is_seeded_and_distinct(self):
        a = RandomStrategy(seed=1).select(self.LIVE, 5, 2, {})
        b = RandomStrategy(seed=1).select(self.LIVE, 5, 2, {})
        assert a == b
        assert all(len(set(replicas)) == 2 for replicas in a)

    def test_load_aware_prefers_least_loaded(self):
        strategy = LoadAwareStrategy()
        load = {"p0": 100, "p1": 0, "p2": 50, "p3": 100}
        placements = strategy.select(self.LIVE, 1, 1, load)
        assert placements[0] == ("p1",)

    def test_load_aware_spreads_within_one_allocation(self):
        strategy = LoadAwareStrategy()
        placements = strategy.select(self.LIVE, 4, 1, {pid: 0 for pid in self.LIVE})
        assert {p[0] for p in placements} == set(self.LIVE)

    def test_make_strategy_rejects_unknown(self):
        with pytest.raises(AllocationError):
            make_strategy("fancy")


class TestProviderManager:
    def make(self, n=4, strategy="round_robin", replication=1):
        pool = make_pool(n)
        config = BlobSeerConfig(
            num_data_providers=n,
            chunk_size=64,
            placement_strategy=strategy,
            replication=replication,
        )
        return ProviderManager(pool, config), pool

    def test_allocate_assigns_unique_write_ids(self):
        manager, _ = self.make()
        w1, _ = manager.allocate(1, 0, 64, 64)
        w2, _ = manager.allocate(1, 0, 64, 64)
        assert w1 != w2

    def test_plan_covers_every_chunk(self):
        manager, _ = self.make()
        _, plan = manager.allocate(1, 10, 300, 64)
        assert plan.num_chunks == 5  # partial head chunk + 4 more pieces
        offsets = [offset for offset, _ in plan.placements]
        assert offsets == [10, 64, 128, 192, 256]

    def test_plan_respects_replication(self):
        manager, _ = self.make(replication=3)
        _, plan = manager.allocate(1, 0, 64, 64, replication=3)
        assert len(plan.providers_for(0)) == 3

    def test_allocation_skips_dead_providers(self):
        manager, pool = self.make()
        pool.get("p0").crash()
        _, plan = manager.allocate(1, 0, 256, 64)
        used = {pid for _, replicas in plan.placements for pid in replicas}
        assert "p0" not in used

    def test_allocate_with_no_live_provider_fails(self):
        manager, pool = self.make(n=2)
        pool.get("p0").crash()
        pool.get("p1").crash()
        with pytest.raises(AllocationError):
            manager.allocate(1, 0, 64, 64)

    def test_empty_write_rejected(self):
        manager, _ = self.make()
        with pytest.raises(AllocationError):
            manager.allocate(1, 0, 0, 64)

    def test_allocations_raise_load_and_do_not_fall_back(self):
        manager, _ = self.make()
        manager.allocate(1, 0, 256, 64)
        assert sum(manager.load_snapshot().values()) == 4
        manager.allocate(1, 256, 128, 64)
        # Nothing reports completion: the placed count only grows.
        assert sum(manager.load_snapshot().values()) == 6

    def test_load_is_the_larger_of_stored_and_placed(self):
        manager, pool = self.make()
        # A preload the manager never placed counts...
        for offset in range(0, 3 * 64, 64):
            pool.write_chunk(["p0"], ChunkKey(9, 1, offset), b"x" * 64)
        _, plan = manager.allocate(1, 0, 256, 64)
        assert manager.load_snapshot() == {"p0": 3, "p1": 1, "p2": 1, "p3": 1}
        # ...and a placed chunk that lands is not counted twice.
        for offset, replicas in plan.placements:
            pool.write_chunk(list(replicas), ChunkKey(1, 1, offset), b"x" * 64)
        assert manager.load_snapshot() == {"p0": 4, "p1": 1, "p2": 1, "p3": 1}

    def test_round_robin_balances_chunks(self):
        manager, pool = self.make()
        for _ in range(8):
            _, plan = manager.allocate(1, 0, 256, 64)
            for offset, replicas in plan.placements:
                pool.write_chunk(list(replicas), ChunkKey(1, offset + id(plan) % 7919, offset), b"x" * 64)
        assert manager.placement_balance() < 0.3
