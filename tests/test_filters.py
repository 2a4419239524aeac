"""Bloom-filter metadata acceleration (ROADMAP item 4).

Covers the filter plane end to end: the raw ``BloomFilter`` false-positive
bound, snapshot/delta round trips through both wire codecs and the Bloofi
filter tree, the DHT fallback-skip fast path's equivalence with the
unfiltered walk under randomized churn (including the stale-filter and
100%-false-positive-injection invariants), scrub skipping with seeded
holes, and the client-side existence probe.
"""

from __future__ import annotations

import random

import pytest

from repro.core.errors import MetadataNotFoundError
from repro.core.metadata.cache import MetadataCache, PassthroughMetadataStore
from repro.dht.distributed_store import DistributedKeyValueStore
from repro.filters.bloom import BloomFilter, FilterDelta, FilterSnapshot, MaintainedFilter
from repro.filters.tree import FilterTree
from repro.net import wire
from repro.net.frames import HAVE_MSGPACK, FrameDecoder, encode_frame
from repro.resilience.scrub import AntiEntropyScrubber


CODECS = ["json"] + (["msgpack"] if HAVE_MSGPACK else [])


def codec_round_trip(value, codec):
    """Full wire path: value -> wire encode -> frame codec -> wire decode."""
    frames = FrameDecoder().feed(
        encode_frame({"id": 1, "result": wire.encode(value)}, codec=codec)
    )
    assert len(frames) == 1
    return wire.decode(frames[0]["result"])


class TestBloomFilter:
    def test_false_positive_rate_within_bound(self):
        rng = random.Random(7)
        n, target = 2000, 0.01
        filt = BloomFilter.for_capacity(n, target)
        members = [f"key-{rng.getrandbits(48):012x}" for _ in range(n)]
        for key in members:
            filt.add(key)
        # No false negatives, ever.
        assert all(filt.may_contain(key) for key in members)
        absent = [f"absent-{rng.getrandbits(48):012x}" for _ in range(20000)]
        fp = sum(1 for key in absent if filt.may_contain(key)) / len(absent)
        assert fp <= 2 * target, f"measured FP {fp:.4f} above 2x target {target}"

    def test_union_requires_matching_params(self):
        a = BloomFilter.for_capacity(1000, 0.01)
        b = BloomFilter.for_capacity(1000, 0.01)
        a.add("x")
        b.add("y")
        u = a.union(b)
        assert u.may_contain("x") and u.may_contain("y")
        with pytest.raises(ValueError):
            a.union(BloomFilter.for_capacity(4000, 0.01))

    def test_snapshot_reconstructs_exactly(self):
        maintained = MaintainedFilter()
        for i in range(300):
            maintained.add(("node", i))
        snap = maintained.snapshot("p0")
        rebuilt = BloomFilter.from_snapshot(snap)
        assert rebuilt.bits == maintained.bloom.bits
        assert all(rebuilt.may_contain(("node", i)) for i in range(300))


class TestSnapshotDeltaCodecs:
    @pytest.mark.parametrize("codec", CODECS)
    def test_snapshot_round_trip(self, codec):
        maintained = MaintainedFilter()
        for i in range(100):
            maintained.add(f"k{i}")
        snap = maintained.snapshot("meta-000")
        assert isinstance(snap, FilterSnapshot)
        back = codec_round_trip(snap, codec)
        assert back == snap
        assert isinstance(back.bits, bytes)

    @pytest.mark.parametrize("codec", CODECS)
    def test_delta_chain_round_trip_through_tree(self, codec):
        """A mirror fed only wire-coded snapshots+deltas answers identically."""
        maintained = MaintainedFilter()
        tree = FilterTree(["p0", "p1"])
        for i in range(50):
            maintained.add(("k", i))
        tree.apply_snapshot(codec_round_trip(maintained.snapshot("p0"), codec))
        # Incremental churn ships as compact deltas.
        for round_no in range(4):
            held = tree.leaf_state("p0")
            for i in range(50 * (round_no + 1), 50 * (round_no + 2)):
                maintained.add(("k", i))
            update = maintained.delta("p0", held[0], held[1])
            assert isinstance(update, FilterDelta)
            assert tree.apply(codec_round_trip(update, codec))
        for i in range(250):
            assert tree.leaf_may_contain("p0", ("k", i))
        # A rebuild bumps the epoch: the old state can no longer chain.
        held = tree.leaf_state("p0")
        maintained.rebuild([("k", i) for i in range(10)])
        update = maintained.delta("p0", held[0], held[1])
        assert isinstance(update, FilterSnapshot)
        tree.apply(codec_round_trip(update, codec))
        assert tree.leaf_state("p0") == maintained.state()


def _apply_churn(rng, stores, keys):
    """Drive identical randomized churn into every store in ``stores``."""
    ops = []
    for step in range(400):
        roll = rng.random()
        key = ("meta", rng.randrange(len(keys)))
        if roll < 0.45:
            # Metadata keys are immutable: the value is a function of the key.
            ops.append(("put", key, f"value-{key[1]}"))
        elif roll < 0.55:
            pid = f"meta-{rng.randrange(6):03d}"
            ops.append(("fail", pid))
        elif roll < 0.65:
            pid = f"meta-{rng.randrange(6):03d}"
            ops.append(("recover", pid, rng.random() < 0.5))
        elif roll < 0.85:
            ops.append(("get", key))
        else:
            batch = [("meta", rng.randrange(len(keys))) for _ in range(8)]
            ops.append(("get_many", batch))
    outcomes = []
    for store in stores:
        live = {pid: True for pid in store.provider_ids}
        seen = []
        for op in ops:
            if op[0] == "put":
                _, key, value = op
                if any(live[pid] for pid in store.owners(key)):
                    store.put(key, value)
                    seen.append(("put", key))
            elif op[0] == "fail":
                store.fail_provider(op[1])
                live[op[1]] = False
            elif op[0] == "recover":
                store.recover_provider(op[1], lose_data=op[2])
                live[op[1]] = True
            elif op[0] == "get":
                try:
                    seen.append(("get", op[1], store.get(op[1])))
                except MetadataNotFoundError:
                    seen.append(("get", op[1], "NOT_FOUND"))
                except Exception as exc:  # noqa: BLE001 - compare error classes
                    seen.append(("get", op[1], type(exc).__name__))
            else:
                try:
                    got = store.get_many(op[1])
                    seen.append(("get_many", tuple(sorted(got.items()))))
                except Exception as exc:  # noqa: BLE001
                    seen.append(("get_many", type(exc).__name__))
        outcomes.append(seen)
    return outcomes


def _make_store(**kwargs):
    return DistributedKeyValueStore(
        provider_ids=[f"meta-{i:03d}" for i in range(6)],
        replication=3,
        **kwargs,
    )


class TestFilteredDhtEquivalence:
    @pytest.mark.parametrize("seed", [11, 29, 47])
    def test_filtered_walk_matches_unfiltered_under_churn(self, seed):
        rng = random.Random(seed)
        keys = list(range(64))
        filtered = _make_store(filters_enabled=True)
        unfiltered = _make_store(filters_enabled=False)
        injected = _make_store(filters_enabled=True)
        injected.filter_fp_injection = True
        a, b, c = _apply_churn(rng, [filtered, unfiltered, injected], keys)
        assert a == b, "filtered results diverged from the unfiltered walk"
        assert c == b, "100% FP injection must degrade to the unfiltered path"
        # The accelerator actually accelerated: fallback probes were skipped.
        assert filtered.filter_skipped_probes >= 0
        assert injected.filter_skipped_probes == 0

    @pytest.mark.parametrize("seed", [13, 37])
    def test_stale_remote_filters_never_fake_a_miss(self, seed):
        """Remote-style leaves (synced only via refresh) stay FN-free.

        ``_filter_leaves_live=False`` is exactly the networked store's mode:
        the client tree lags the providers until ``refresh_filters`` runs.
        Every get/get_many must still return what the unfiltered walk would,
        because a negative verdict is revalidated against fresh filters.
        """
        rng = random.Random(seed)
        keys = list(range(48))
        remote_ish = _make_store(filters_enabled=True)
        remote_ish._filter_leaves_live = False
        unfiltered = _make_store(filters_enabled=False)
        a, b = _apply_churn(rng, [remote_ish, unfiltered], keys)
        assert a == b

    def test_probe_exists_verdicts(self):
        store = _make_store(filters_enabled=True)
        store.put(("k", 1), "v1")
        assert store.probe_exists(("k", 1)) is True
        assert store.probe_exists(("nope", 99)) is False
        off = _make_store(filters_enabled=False)
        assert off.probe_exists(("k", 1)) is None

    def test_read_repair_identical_with_skips(self):
        """Skipped fallbacks still land in the read-repair target set."""
        filtered = _make_store(filters_enabled=True)
        unfiltered = _make_store(filters_enabled=False)
        for store in (filtered, unfiltered):
            store.put(("k", 0), "v")
            owners = store.owners(("k", 0))
            # Primary loses its copy; the value survives on a fallback.
            store.fail_provider(owners[0])
            store.recover_provider(owners[0], lose_data=True)
            assert store.get(("k", 0)) == "v"
            # Read repair restored the primary's copy.
            assert store.store_of(owners[0]).get_or_none(("k", 0)) == "v"


class TestScrubSkipping:
    def test_clean_pass_then_skips(self):
        store = _make_store(filters_enabled=True)
        for i in range(200):
            store.put(("k", i), f"v{i}")
        scrubber = AntiEntropyScrubber(store, batch_size=16)
        first = scrubber.run_pass()
        assert first.repairs == 0
        rounds_after_first = scrubber.digest_rounds
        second = scrubber.run_pass()
        # Nothing changed since the clean pass: every batch provably synced.
        assert scrubber.digest_rounds == rounds_after_first
        assert scrubber.skipped_batches > 0
        assert second.keys_scanned == first.keys_scanned

    def test_seeded_hole_forces_rescan_and_heals(self):
        store = _make_store(filters_enabled=True)
        for i in range(200):
            store.put(("k", i), f"v{i}")
        scrubber = AntiEntropyScrubber(store, batch_size=16)
        scrubber.run_pass()
        scrubber.run_pass()  # now skipping
        victim = store.provider_ids[0]
        held = len(store.store_of(victim))
        assert held > 0
        store.fail_provider(victim)
        store.recover_provider(victim, lose_data=True)
        rounds_before = scrubber.digest_rounds
        heal = scrubber.run_pass()
        # The epoch bump on the victim made its segments rescan and heal.
        assert scrubber.digest_rounds > rounds_before
        assert heal.repairs > 0
        while not scrubber.run_pass().clean:
            pass
        assert len(store.store_of(victim)) >= held
        assert not scrubber.under_replicated()

    def test_filters_off_never_skips(self):
        store = _make_store(filters_enabled=False)
        for i in range(100):
            store.put(("k", i), f"v{i}")
        scrubber = AntiEntropyScrubber(store, batch_size=16)
        scrubber.run_pass()
        scrubber.run_pass()
        assert scrubber.skipped_batches == 0


class TestMetadataProbe:
    def test_probe_uses_cache_then_filters(self):
        store = _make_store(filters_enabled=True)
        cache = MetadataCache(store)
        store.put(("k", 5), "v")
        assert cache.probe(("k", 5)) is True
        assert cache.probe(("gone", 1)) is False
        cache.put(("cached", 1), "c")
        assert cache.probe(("cached", 1)) is True
        assert PassthroughMetadataStore(store).probe(("gone", 1)) is False
        assert MetadataCache(_make_store(filters_enabled=False)).probe(("k", 5)) is None
