"""Tests for the DHT substrate: hashing, ring, stores."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import MetadataNotFoundError, ServiceError
from repro.core.types import NodeKey
from repro.dht import (
    ConsistentHashRing,
    DistributedKeyValueStore,
    KeyValueStore,
    build_ring,
    ring_position,
    stable_hash64,
)


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash64(("blob", 1, 2)) == stable_hash64(("blob", 1, 2))

    def test_distinct_keys_almost_surely_differ(self):
        values = {stable_hash64(("key", i)) for i in range(1000)}
        assert len(values) == 1000

    def test_type_tagging_separates_str_and_bytes(self):
        assert stable_hash64("abc") != stable_hash64(b"abc")

    def test_nodekey_hashes_stably(self):
        key = NodeKey(1, 2, 0, 4096)
        assert stable_hash64(key) == stable_hash64(NodeKey(1, 2, 0, 4096))

    @given(st.tuples(st.integers(), st.text(max_size=20)))
    def test_position_in_64bit_range(self, key):
        assert 0 <= ring_position(key) < (1 << 64)


class TestConsistentHashRing:
    def test_single_node_owns_everything(self):
        ring = build_ring(["a"])
        assert ring.owner(("k", 1)) == "a"
        assert ring.owners(("k", 1), 3) == ["a"]

    def test_owners_returns_distinct_nodes(self):
        ring = build_ring([f"n{i}" for i in range(5)])
        owners = ring.owners("some-key", 3)
        assert len(owners) == 3
        assert len(set(owners)) == 3

    def test_distribution_is_roughly_uniform(self):
        ring = build_ring([f"n{i}" for i in range(8)], virtual_nodes=64)
        counts = ring.distribution([("key", i) for i in range(4000)])
        assert min(counts.values()) > 0
        assert max(counts.values()) / (4000 / 8) < 2.0  # within 2x of fair share

    def test_removing_node_only_moves_its_keys(self):
        ring = build_ring([f"n{i}" for i in range(6)])
        keys = [("key", i) for i in range(500)]
        before = {k: ring.owner(k) for k in keys}
        ring.remove_node("n3")
        after = {k: ring.owner(k) for k in keys}
        for key in keys:
            if before[key] != "n3":
                assert after[key] == before[key]
            else:
                assert after[key] != "n3"

    def test_adding_node_is_idempotent(self):
        ring = build_ring(["a", "b"])
        ring.add_node("a")
        assert len(ring) == 2

    def test_empty_ring_raises(self):
        with pytest.raises(LookupError):
            ConsistentHashRing().owner("x")

    def test_arc_fractions_sum_to_one(self):
        ring = build_ring([f"n{i}" for i in range(4)])
        assert sum(ring.arc_fractions().values()) == pytest.approx(1.0)

    def test_membership_protocol(self):
        ring = build_ring(["a", "b", "c"])
        assert "b" in ring
        ring.remove_node("b")
        assert "b" not in ring
        assert ring.nodes == ("a", "c")


class TestKeyValueStore:
    def test_put_get_roundtrip(self):
        store = KeyValueStore()
        store.put("k", {"v": 1})
        assert store.get("k") == {"v": 1}

    def test_missing_key_raises(self):
        with pytest.raises(MetadataNotFoundError):
            KeyValueStore().get("nope")

    def test_idempotent_reput_allowed(self):
        store = KeyValueStore()
        store.put("k", "v")
        store.put("k", "v")
        assert len(store) == 1

    def test_conflicting_rebind_rejected(self):
        store = KeyValueStore()
        store.put("k", "v1")
        with pytest.raises(ValueError):
            store.put("k", "v2")

    def test_delete(self):
        store = KeyValueStore()
        store.put("k", "v")
        assert store.delete("k") is True
        assert store.delete("k") is False

    def test_stats_track_accesses(self):
        store = KeyValueStore()
        store.put("a", 1)
        store.get("a")
        store.get_or_none("missing")
        stats = store.stats
        assert stats["puts"] == 1 and stats["gets"] == 2 and stats["hits"] == 1


class TestDistributedKeyValueStore:
    def make(self, n=4, replication=1):
        return DistributedKeyValueStore(
            [f"meta-{i}" for i in range(n)], virtual_nodes=16, replication=replication
        )

    def test_put_get_roundtrip(self):
        store = self.make()
        store.put(("node", 1), "payload")
        assert store.get(("node", 1)) == "payload"

    def test_keys_spread_over_providers(self):
        store = self.make(n=4)
        for i in range(400):
            store.put(("node", i), i)
        load = store.load_per_provider()
        assert len(load) == 4
        assert all(count > 0 for count in load.values())
        assert store.total_entries() == 400

    def test_replication_writes_to_multiple_providers(self):
        store = self.make(n=4, replication=3)
        written = store.put(("node", 1), "x")
        assert len(written) == 3
        assert store.total_entries() == 3  # one copy per replica

    def test_get_survives_primary_failure_with_replication(self):
        store = self.make(n=4, replication=2)
        store.put("key", "value")
        primary = store.owners("key")[0]
        store.fail_provider(primary)
        assert store.get("key") == "value"

    def test_get_fails_without_replication_when_primary_dies(self):
        store = self.make(n=4, replication=1)
        store.put("key", "value")
        primary = store.owners("key")[0]
        store.fail_provider(primary)
        with pytest.raises((MetadataNotFoundError, ServiceError)):
            store.get("key")

    def test_recover_provider_restores_data(self):
        store = self.make(n=3, replication=1)
        store.put("key", "value")
        primary = store.owners("key")[0]
        store.fail_provider(primary)
        store.recover_provider(primary)
        assert store.get("key") == "value"

    def test_recover_with_data_loss(self):
        store = self.make(n=3, replication=1)
        store.put("key", "value")
        primary = store.owners("key")[0]
        store.fail_provider(primary)
        store.recover_provider(primary, lose_data=True)
        assert store.get_or_none("key") is None

    def test_put_with_all_owners_down_raises(self):
        store = self.make(n=2, replication=1)
        for pid in store.provider_ids:
            store.fail_provider(pid)
        with pytest.raises(ServiceError):
            store.put("key", "value")

    def test_add_provider_expands_ring(self):
        store = self.make(n=2)
        store.add_provider("meta-new")
        assert "meta-new" in store.provider_ids
        with pytest.raises(ValueError):
            store.add_provider("meta-new")

    def test_access_hook_sees_every_access(self):
        store = self.make(n=3, replication=2)
        seen = []
        store.access_hook = lambda pid, op, key: seen.append((pid, op))
        store.put("key", "value")
        store.get("key")
        puts = [entry for entry in seen if entry[1] == "put"]
        gets = [entry for entry in seen if entry[1] == "get"]
        assert len(puts) == 2 and len(gets) >= 1

    def test_contains(self):
        store = self.make()
        store.put("a", 1)
        assert store.contains("a")
        assert not store.contains("b")

    def test_probe_exists_is_an_exact_check(self):
        store = self.make(n=3, replication=1)
        store.put("a", 1)
        assert store.probe_exists("a") is True
        assert store.probe_exists("b") is False
        store.fail_provider(store.owners("b")[0])
        assert store.probe_exists("b") is None


CHURN_PROVIDERS = [f"meta-{i:03d}" for i in range(6)]
CHURN_KEYS = 64


def _check_reads(store, keys, seen):
    """Check ``get_many(keys)`` and ``get`` of each key against the members.

    The expected answer is read straight off the member stores just before
    the calls: a key is found, with its only value, exactly when some live
    owner holds it; a key with no live owner is a ``ServiceError`` (the
    service is down for it, which is not a miss).
    """
    expected = {}
    for key in keys:
        live = store.live_owners(key)
        held = {store.store_of(pid).get_or_none(key) for pid in live} - {None}
        assert len(held) <= 1, f"{key!r} bound to several values: {held}"
        expected[key] = (bool(live), next(iter(held), None))
    if all(live for live, _ in expected.values()):
        got = store.get_many(keys)
        assert got == {key: value for key, (_, value) in expected.items() if value is not None}
    else:
        with pytest.raises(ServiceError) as raised:
            store.get_many(keys)
        assert not isinstance(raised.value, MetadataNotFoundError)
    for key, (live, value) in expected.items():
        if not live:
            seen["no_live_owner"] += 1
            with pytest.raises(ServiceError) as raised:
                store.get(key)
            assert not isinstance(raised.value, MetadataNotFoundError)
        elif value is None:
            seen["missing"] += 1
            with pytest.raises(MetadataNotFoundError):
                store.get(key)
        else:
            seen["found"] += 1
            assert store.get(key) == value


def _apply_churn(rng, store):
    """Drive 400 seeded steps of put / fail / lossy recover / get / get_many.

    Every read is checked by :func:`_check_reads`; returns how often each
    kind of answer came up.
    """
    seen = {"found": 0, "missing": 0, "no_live_owner": 0}
    for _ in range(400):
        roll = rng.random()
        key = ("meta", rng.randrange(CHURN_KEYS))
        if roll < 0.45:
            if store.live_owners(key):
                # Metadata keys are immutable: the value is a function of the key.
                store.put(key, f"value-{key[1]}")
        elif roll < 0.55:
            store.fail_provider(rng.choice(CHURN_PROVIDERS))
        elif roll < 0.65:
            store.recover_provider(
                rng.choice(CHURN_PROVIDERS), lose_data=rng.random() < 0.5
            )
        elif roll < 0.85:
            _check_reads(store, [key], seen)
        else:
            batch = [("meta", rng.randrange(CHURN_KEYS)) for _ in range(8)]
            _check_reads(store, batch, seen)
    return seen


class TestChurnContract:
    @pytest.mark.parametrize("seed", [11, 29, 47])
    def test_reads_match_member_stores_under_churn(self, seed):
        store = DistributedKeyValueStore(CHURN_PROVIDERS, replication=3)
        seen = _apply_churn(random.Random(seed), store)
        assert all(seen.values()), seen
