"""Tests for vectored metadata I/O: bulk DHT ops, frontier-BFS traversal,
one-round weaves, read repair, and the round counters they expose."""

from __future__ import annotations

import random

import pytest

from repro.core import BlobSeerConfig, BlobSeerDeployment
from repro.core.config import ClientConfig
from repro.core.errors import MetadataNotFoundError, ServiceError
from repro.core.interval import Interval
from repro.core.metadata import (
    Fragment,
    InnerNode,
    LeafNode,
    MetadataCache,
    SegmentTreeBuilder,
    SegmentTreeReader,
    WriteRecord,
)
from repro.core.types import ChunkKey, NodeKey
from repro.dht import DistributedKeyValueStore

CS = 16


def make_store(n: int = 3, replication: int = 1) -> DistributedKeyValueStore:
    return DistributedKeyValueStore(
        [f"m{i}" for i in range(n)], virtual_nodes=8, replication=replication
    )


def fragments_for(write_id: int, offset: int, size: int) -> list:
    out = []
    for part in Interval.of(offset, size).split_at(
        [b for b in range((offset // CS) * CS, offset + size + CS, CS)]
    ):
        out.append(
            Fragment(
                key=ChunkKey(1, write_id, part.start),
                providers=("p0",),
                blob_offset=part.start,
                length=part.size,
                chunk_offset=0,
            )
        )
    return out


class CountingStore:
    """Wrapper that counts vectored/scalar rounds hitting the store."""

    def __init__(self, backend) -> None:
        self.backend = backend
        self.get_rounds = 0
        self.put_rounds = 0
        self.scalar_gets = 0
        self.scalar_puts = 0
        #: Keys of every ``get_many`` round, in order.
        self.frontiers = []

    def get(self, key):
        self.scalar_gets += 1
        return self.backend.get(key)

    def put(self, key, value):
        self.scalar_puts += 1
        self.backend.put(key, value)

    def get_many(self, keys):
        self.get_rounds += 1
        self.frontiers.append(list(keys))
        return self.backend.get_many(keys)

    def put_many(self, items):
        self.put_rounds += 1
        return self.backend.put_many(items)


# ---------------------------------------------------------------------------
# DHT layer
# ---------------------------------------------------------------------------


class TestDistributedBulkOps:
    def test_get_many_returns_only_found_keys(self):
        store = make_store(n=4)
        for i in range(10):
            store.put(("k", i), i)
        found = store.get_many([("k", i) for i in range(15)])
        assert found == {("k", i): i for i in range(10)}

    def test_get_many_deduplicates_keys(self):
        store = make_store()
        store.put("a", 1)
        assert store.get_many(["a", "a", "a"]) == {"a": 1}

    def test_get_many_groups_one_bulk_request_per_provider(self):
        store = make_store(n=4)
        keys = [("k", i) for i in range(40)]
        for key in keys:
            store.put(key, 0)
        rounds = []
        store.access_hook = lambda pid, op, payload: rounds.append((pid, op, payload))
        store.get_many(keys)
        bulk = [entry for entry in rounds if entry[1] == "get_many"]
        # All keys present at their primaries: exactly one bulk request per
        # provider that owns at least one key, covering all 40 keys.
        assert len(bulk) == len({pid for pid, _, _ in bulk})
        assert sum(len(payload) for _, _, payload in bulk) == 40

    def test_get_many_falls_back_per_key_when_primary_dies(self):
        store = make_store(n=4, replication=2)
        keys = [("k", i) for i in range(30)]
        for key in keys:
            store.put(key, hash(key) & 0xFF)
        dead = store.provider_ids[0]
        store.fail_provider(dead)
        found = store.get_many(keys)
        assert set(found) == set(keys)

    def test_get_many_read_repairs_lossy_recovered_provider(self):
        store = make_store(n=4, replication=2)
        keys = [("k", i) for i in range(30)]
        for key in keys:
            store.put(key, 7)
        lossy = store.provider_ids[1]
        lost = [key for key in keys if store.owners(key)[0] == lossy]
        assert lost, "expected the failed provider to own some keys"
        store.fail_provider(lossy)
        store.recover_provider(lossy, lose_data=True)
        assert store.get_many(keys) == {key: 7 for key in keys}
        # The recovered provider got its primaries written back, and the
        # repair shows up in its access stats.
        for key in lost:
            assert key in store.store_of(lossy)
        assert store.access_stats()[lossy]["repairs"] == len(lost)

    def test_scalar_get_read_repairs_too(self):
        store = make_store(n=3, replication=2)
        store.put("key", "v")
        primary = store.owners("key")[0]
        store.fail_provider(primary)
        store.recover_provider(primary, lose_data=True)
        assert store.get("key") == "v"
        assert "key" in store.store_of(primary)
        assert store.store_of(primary).stats["repairs"] == 1

    def test_put_many_writes_all_live_owner_sets(self):
        store = make_store(n=4, replication=2)
        pairs = [(("k", i), i) for i in range(20)]
        written = store.put_many(pairs)
        for key, _ in pairs:
            assert written[key] == store.owners(key)
            assert store.get(key) is not None

    def test_put_many_raises_for_dead_key_but_writes_the_others(self):
        store = make_store(n=4, replication=1)
        keys = [("k", i) for i in range(20)]
        dead = store.provider_ids[0]
        doomed = [key for key in keys if store.owners(key)[0] == dead]
        assert doomed, "expected the failed provider to own some keys"
        store.fail_provider(dead)
        with pytest.raises(ServiceError):
            store.put_many([(key, 1) for key in keys])
        for key in keys:
            if key in doomed:
                with pytest.raises(ServiceError):
                    store.get_many([key])
            else:
                assert store.get(key) == 1

    def test_get_many_missing_everywhere_is_just_absent(self):
        store = make_store(n=2, replication=2)
        assert store.get_many(["nope"]) == {}

    def test_get_many_raises_service_error_when_all_owners_dead(self):
        """Parity with scalar get: 'service down for this key' is not the
        same as 'metadata does not exist'."""
        store = make_store(n=2, replication=1)
        store.put("key", "v")
        for pid in store.provider_ids:
            store.fail_provider(pid)
        with pytest.raises(ServiceError):
            store.get_many(["key"])


# ---------------------------------------------------------------------------
# Cache layer
# ---------------------------------------------------------------------------


class TestVectoredCache:
    def test_get_many_serves_hits_locally_and_batches_misses(self):
        backend = CountingStore(make_store())
        for i in range(6):
            backend.backend.put(("k", i), i)
        cache = MetadataCache(backend, capacity=32)
        first = cache.get_many([("k", i) for i in range(4)])
        assert len(first) == 4
        assert cache.hits == 0 and cache.misses == 4
        assert backend.get_rounds == 1
        # Second round: two hits served locally, two misses forwarded in one
        # bulk request.
        second = cache.get_many([("k", i) for i in range(2, 6)])
        assert len(second) == 4
        assert cache.hits == 2 and cache.misses == 6
        assert backend.get_rounds == 2

    def test_get_many_all_hits_never_touches_backend(self):
        backend = CountingStore(make_store())
        cache = MetadataCache(backend, capacity=32)
        cache.put_many([(("k", i), i) for i in range(4)])
        assert cache.get_many([("k", i) for i in range(4)]) == {
            ("k", i): i for i in range(4)
        }
        assert backend.get_rounds == 0 and backend.scalar_gets == 0

    def test_put_many_is_write_through(self):
        backend = make_store()
        cache = MetadataCache(backend, capacity=32)
        cache.put_many([(("k", i), i) for i in range(4)])
        assert backend.get(("k", 2)) == 2

    def test_insert_refreshes_existing_entry(self):
        backend = make_store()
        cache = MetadataCache(backend, capacity=8)
        first, second = ["v"], ["v"]  # equal values, distinct identities
        cache.put("k", first)
        cache.put("k", second)
        assert cache.get("k") is second

    def test_passthrough_get_many_counts_misses(self):
        from repro.core.metadata import PassthroughMetadataStore

        backend = make_store()
        backend.put("a", 1)
        passthrough = PassthroughMetadataStore(backend)
        assert passthrough.get_many(["a", "b"]) == {"a": 1}
        assert passthrough.misses == 2


# ---------------------------------------------------------------------------
# Tree layer
# ---------------------------------------------------------------------------


def build_version(store, version, offset, size, history, new_size):
    builder = SegmentTreeBuilder(store, CS)
    root = builder.build(
        blob_id=1,
        version=version,
        write_interval=Interval.of(offset, size),
        new_fragments=fragments_for(version, offset, size),
        history=history,
        new_size=new_size,
    )
    return root, builder


class TestFrontierLookup:
    def test_cold_lookup_is_one_get_many_round_per_level(self):
        # Parametrised in a loop so the test keeps one id across tree sizes.
        for chunks in (8, 64, 512):
            store = make_store()
            root, _ = build_version(store, 1, 0, chunks * CS, [], chunks * CS)
            counting = CountingStore(store)
            reader = SegmentTreeReader(counting, CS)
            fragments = reader.lookup(root, Interval.of(0, chunks * CS))
            assert sum(f.length for f in fragments) == chunks * CS
            depth = chunks.bit_length() - 1
            assert reader.levels_fetched == depth + 1, chunks
            assert counting.get_rounds == depth + 1, chunks
            assert counting.scalar_gets == 0
            assert reader.nodes_fetched == 2 * chunks - 1

    def test_visit_nodes_is_bfs_ordered(self):
        # The nodes lookup visits come level by level: root first, and node
        # sizes never grow from one get_many round to the next.
        store = make_store()
        build_version(store, 1, 0, 8 * CS, [], 8 * CS)
        history = [WriteRecord(version=1, offset=0, size=8 * CS, new_size=8 * CS)]
        # Version 2 overwrites chunks 3-7 and grows the blob to 12 chunks:
        # its tree mixes new nodes with nodes borrowed from version 1.
        root2, _ = build_version(store, 2, 3 * CS, 9 * CS, history, 12 * CS)
        counting = CountingStore(store)
        reader = SegmentTreeReader(counting, CS)
        reader.lookup(root2, Interval.of(CS, 6 * CS))
        assert counting.frontiers[0] == [root2]
        sizes = [key.size for frontier in counting.frontiers for key in frontier]
        assert sizes == sorted(sizes, reverse=True)
        assert len(sizes) == reader.nodes_fetched
        assert {key.version for frontier in counting.frontiers for key in frontier} == {1, 2}

    def test_cold_cached_lookup_same_rounds_then_zero_backend_rounds(self):
        store = make_store()
        root, _ = build_version(store, 1, 0, 8 * CS, [], 8 * CS)
        counting = CountingStore(store)
        cache = MetadataCache(counting, capacity=1024)
        reader = SegmentTreeReader(cache, CS)
        reader.lookup(root, Interval.of(0, 8 * CS))
        assert counting.get_rounds == 4
        reader.lookup(root, Interval.of(0, 8 * CS))
        assert counting.get_rounds == 4  # warm: everything served locally
        assert reader.levels_fetched == 4  # levels still traversed

    def test_missing_node_raises(self):
        store = make_store()
        root, _ = build_version(store, 1, 0, 4 * CS, [], 4 * CS)
        reader = SegmentTreeReader(store, CS)
        with pytest.raises(MetadataNotFoundError):
            reader.lookup(NodeKey(1, 99, 0, 4 * CS), Interval.of(0, 4 * CS))


class TestLevelBatchedBuilder:
    def test_build_stores_the_whole_tree_in_one_put_round(self):
        store = make_store()
        counting = CountingStore(store)
        builder = SegmentTreeBuilder(counting, CS)
        builder.build(
            blob_id=1,
            version=1,
            write_interval=Interval.of(0, 8 * CS),
            new_fragments=fragments_for(1, 0, 8 * CS),
            history=[],
            new_size=8 * CS,
        )
        assert builder.nodes_written == 15
        assert builder.put_rounds == 1
        assert counting.put_rounds == 1
        assert counting.scalar_puts == 0

    def test_crash_mid_round_leaves_every_published_snapshot_intact(
        self, monkeypatch
    ):
        """A metadata provider that fails partway through a build's one
        ``put_many`` round leaves some of the new version's nodes stored and
        the rest missing.  The version is never published, every earlier
        snapshot reads byte-identical, and a sibling op on another blob in
        the same batch still publishes."""
        from repro.core.client import AppendOp, OpStatus

        config = BlobSeerConfig(
            num_data_providers=2,
            num_metadata_providers=4,
            chunk_size=CS,
            client=ClientConfig(metadata_cache=False),
        )
        with BlobSeerDeployment(config) as deployment:
            client = deployment.client()
            blob, sibling = client.create_blob(), client.create_blob()
            snapshots = [b""]
            for index in range(3):
                blob.append(bytes([65 + index]) * (3 * CS + 5))
                snapshots.append(snapshots[-1] + bytes([65 + index]) * (3 * CS + 5))
            sibling.append(b"s" * CS)
            store = deployment.metadata_store
            # The crashing provider is not the first group of the round, so
            # the groups sorted before it are stored when it fails; it owns
            # neither of the sibling's two new nodes.
            sibling_keys = [
                NodeKey(sibling.blob_id, 2, CS, CS),
                NodeKey(sibling.blob_id, 2, 0, 2 * CS),
            ]
            crashed = next(
                pid
                for pid in store.provider_ids[1:]
                if not any(pid in store.owners(key) for key in sibling_keys)
            )

            def crash(items):
                raise ServiceError("injected crash mid-round")

            monkeypatch.setattr(store.store_of(crashed), "put_many", crash)
            results = client.submit_ops(
                [
                    AppendOp(blob.blob_id, b"x" * (8 * CS)),
                    AppendOp(sibling.blob_id, b"t" * CS),
                ]
            )
            assert results[0].status is OpStatus.FAILED
            assert "injected crash" in str(results[0].error)
            assert results[1].status is OpStatus.OK
            assert sibling.read(0, 2 * CS) == b"s" * CS + b"t" * CS
            landed = [
                key
                for pid in store.provider_ids
                for key in store.store_of(pid).keys()
                if key.blob_id == blob.blob_id and key.version == 4
            ]
            assert landed, "the crash should fall inside the round"
            assert deployment.version_manager.latest_version(blob.blob_id) == 3
            for version, expected in enumerate(snapshots):
                assert blob.read(0, len(expected) + CS, version=version) == expected

    def test_provider_dying_mid_flush_converges_under_scrub(self):
        """A metadata provider that dies inside a build's one ``put_many``
        round fails the build and leaves the ring under-replicated: the
        groups sent before it reached only the survivors, and the provider
        rejoins wiped.  After anti-entropy convergence every key is back on
        its full live owner set, and every stored inner node's new-version
        children are stored too."""
        from repro.resilience import AntiEntropyScrubber

        store = make_store(n=4, replication=2)
        # The last group of the round: every key has an owner sorted before
        # it, so the round stores at least one copy of each node.
        victim = store.provider_ids[-1]

        def die(items):
            store.fail_provider(victim)
            raise ConnectionError("provider died mid-round")

        store.store_of(victim).put_many = die
        builder = SegmentTreeBuilder(store, CS)
        with pytest.raises(ConnectionError):
            builder.build(
                blob_id=1,
                version=1,
                write_interval=Interval.of(0, 8 * CS),
                new_fragments=fragments_for(1, 0, 8 * CS),
                history=[],
                new_size=8 * CS,
            )
        del store.store_of(victim).put_many
        # The provider rejoins having lost its store.
        store.recover_provider(victim, lose_data=True)
        scrubber = AntiEntropyScrubber(store, batch_size=4)
        assert scrubber.under_replicated(), "crash should seed under-replication"
        assert scrubber.run_until_converged(max_passes=3) <= 3
        assert not scrubber.under_replicated()
        assert len(store.scan_keys()) == 15
        for key in store.scan_keys():
            node = store.get(key)
            if isinstance(node, InnerNode):
                for child in node.children():
                    if child is not None and child.version == 1:
                        assert store.get(child) is not None
                        for pid in store.live_owners(child):
                            assert child in store.store_of(pid)

    def test_builder_batches_base_leaf_fetches(self):
        store = make_store()
        build_version(store, 1, 0, 8 * CS, [], 8 * CS)
        history = [WriteRecord(version=1, offset=0, size=8 * CS, new_size=8 * CS)]
        counting = CountingStore(store)
        builder = SegmentTreeBuilder(counting, CS)
        # Partial-chunk overwrite across 4 chunks: every touched leaf must
        # merge with its base leaf, fetched in one bulk round.
        builder.build(
            blob_id=1,
            version=2,
            write_interval=Interval.of(CS // 2, 3 * CS),
            new_fragments=[
                Fragment(
                    key=ChunkKey(1, 2, CS // 2),
                    providers=("p0",),
                    blob_offset=CS // 2,
                    length=3 * CS,
                    chunk_offset=0,
                )
            ],
            history=history,
            new_size=8 * CS,
        )
        assert builder.base_leaves_fetched == 2  # the two half-written leaves
        assert counting.get_rounds == 1


class TestSnapshotFold:
    """The paper's versioning contract: snapshot ``v`` reads as exactly the
    writes ``1..v`` applied in order to an empty blob."""

    @pytest.mark.parametrize("metadata_cache", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_snapshots_read_as_fold_of_writes(self, seed, metadata_cache):
        rng = random.Random(seed)
        config = BlobSeerConfig(
            num_data_providers=4,
            num_metadata_providers=4,
            chunk_size=CS,
            client=ClientConfig(metadata_cache=metadata_cache),
        )
        with BlobSeerDeployment(config) as deployment:
            blob = deployment.client().create_blob()
            snapshots = [bytes()]
            for _ in range(12):
                state = bytearray(snapshots[-1])
                payload = rng.randbytes(rng.randrange(1, 6 * CS))
                if not state or rng.random() < 0.4:
                    version = blob.append(payload)
                    state += payload
                else:
                    # Unaligned overwrite that may run past the end.
                    offset = rng.randrange(0, len(state))
                    version = blob.write(offset, payload)
                    state[offset : offset + len(payload)] = payload
                assert version == len(snapshots)
                snapshots.append(bytes(state))
            for version, expected in enumerate(snapshots):
                assert blob.read(0, len(expected) + CS, version=version) == expected
                if len(expected) > 2:
                    offset = rng.randrange(1, len(expected) - 1)
                    length = rng.randrange(1, len(expected) - offset + 1)
                    assert (
                        blob.read(offset, length, version=version)
                        == expected[offset : offset + length]
                    )


# ---------------------------------------------------------------------------
# Client counters and monitoring
# ---------------------------------------------------------------------------


class TestRoundCounters:
    def test_client_surfaces_level_and_put_round_counters(self):
        config = BlobSeerConfig(
            num_data_providers=2,
            num_metadata_providers=4,
            chunk_size=CS,
            client=ClientConfig(metadata_cache=False),
        )
        with BlobSeerDeployment(config) as deployment:
            client = deployment.client()
            blob = client.create_blob()
            blob.append(b"x" * (8 * CS))
            assert client.counters["metadata_put_rounds"] == 1
            blob.read(0, 8 * CS)
            assert client.counters["metadata_levels_fetched"] == 4
            assert client.counters["metadata_nodes_fetched"] == 15

    def test_base_leaf_polls_count_refetches_of_a_withheld_leaf(self, monkeypatch):
        config = BlobSeerConfig(
            num_data_providers=2,
            num_metadata_providers=4,
            chunk_size=CS,
            client=ClientConfig(metadata_cache=False),
        )
        with BlobSeerDeployment(config) as deployment:
            client = deployment.client()
            blob = client.create_blob()
            # Unaligned appends: each merges the base leaf it extends.
            for index in range(4):
                blob.append(bytes([65 + index]) * 11)
            assert client.counters["metadata_base_leaf_polls"] == 0
            # The next append's base leaf is missing for two rounds, as if
            # its writer were still storing it.
            store = deployment.metadata_store
            tail = NodeKey(blob.blob_id, 4, 2 * CS, CS)
            owner = store.store_of(store.owners(tail)[0])
            original = owner.get_many
            withheld = [2]

            def get_many(keys):
                found = original(keys)
                if tail in found and withheld[0]:
                    withheld[0] -= 1
                    del found[tail]
                return found

            monkeypatch.setattr(owner, "get_many", get_many)
            blob.append(b"y" * CS)
            assert client.counters["metadata_base_leaf_polls"] == 2
            expected = b"".join(bytes([65 + index]) * 11 for index in range(4))
            assert blob.read(0, 60) == expected + b"y" * CS

    def test_cold_lookup_rounds_bounded_by_depth_plus_one(self):
        config = BlobSeerConfig(
            num_data_providers=2,
            num_metadata_providers=4,
            chunk_size=CS,
            client=ClientConfig(metadata_cache=False),
        )
        with BlobSeerDeployment(config) as deployment:
            client = deployment.client()
            blob = client.create_blob()
            blob.append(b"x" * (16 * CS))  # 16 chunks -> depth 4
            blob.read(0, 16 * CS)
            depth = 4
            assert client.counters["metadata_levels_fetched"] <= depth + 1

    def test_monitor_samples_metadata_rounds(self):
        from repro.qos.monitoring import FEATURE_NAMES, Monitor
        from repro.sim import SimulatedBlobSeer
        from repro.sim.driver import run_concurrent_appenders, run_concurrent_readers

        assert len(FEATURE_NAMES) == 6  # behaviour-model layout unchanged
        cluster = SimulatedBlobSeer(
            BlobSeerConfig(
                num_data_providers=4, num_metadata_providers=4, chunk_size=1024
            )
        )
        blob = cluster.create_blob()
        run_concurrent_appenders(cluster, blob, num_clients=1, append_size=16 * 1024)
        monitor = Monitor(cluster)
        run_concurrent_readers(cluster, blob, num_clients=4, read_size=16 * 1024)
        sample = monitor.sample()
        assert sample.metadata_rounds > 0
        assert len(sample.features()) == len(FEATURE_NAMES)
