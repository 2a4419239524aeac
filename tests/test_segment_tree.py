"""Tests for the versioned distributed segment tree (the metadata core)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interval import Interval
from repro.core.metadata import (
    Fragment,
    InnerNode,
    LeafNode,
    SegmentTreeBuilder,
    SegmentTreeReader,
    WriteRecord,
    latest_version_touching,
    merge_fragments,
    nodes_created_by_write,
    root_key,
    span_bytes,
)
from repro.core.types import ChunkKey, NodeKey
from repro.dht import DistributedKeyValueStore

CS = 16  # tiny chunk size keeps trees small and assertions readable


def make_store() -> DistributedKeyValueStore:
    return DistributedKeyValueStore(["m0", "m1", "m2"], virtual_nodes=8)


def fragment(write_id: int, offset: int, length: int) -> Fragment:
    return Fragment(
        key=ChunkKey(1, write_id, offset),
        providers=("p0",),
        blob_offset=offset,
        length=length,
        chunk_offset=0,
    )


def fragments_for(write_id: int, offset: int, size: int) -> list[Fragment]:
    """Chunk-aligned fragments exactly tiling [offset, offset+size)."""
    out = []
    for part in Interval.of(offset, size).split_at(
        [b for b in range((offset // CS) * CS, offset + size + CS, CS)]
    ):
        out.append(fragment(write_id, part.start, part.size))
    return out


class SimpleBlobModel:
    """Reference model: a plain bytearray per version, used as ground truth."""

    def __init__(self) -> None:
        self.versions = {0: b""}

    def apply(self, version: int, offset: int, payload_byte: int, size: int) -> bytes:
        base = bytearray(self.versions[version - 1])
        if offset + size > len(base):
            base.extend(b"\x00" * (offset + size - len(base)))
        base[offset : offset + size] = bytes([payload_byte]) * size
        self.versions[version] = bytes(base)
        return self.versions[version]


class TestGeometry:
    @pytest.mark.parametrize(
        "size,expected_chunks", [(0, 1), (1, 1), (16, 1), (17, 2), (33, 4), (129, 16)]
    )
    def test_span_is_next_power_of_two_chunks(self, size, expected_chunks):
        assert span_bytes(size, CS) == expected_chunks * CS

    def test_root_key_covers_span(self):
        key = root_key(blob_id=3, version=5, snapshot_size=100, chunk_size=CS)
        assert key == NodeKey(3, 5, 0, span_bytes(100, CS))

    def test_latest_version_touching(self):
        history = [
            WriteRecord(1, 0, 32, 32),
            WriteRecord(2, 32, 16, 48),
            WriteRecord(3, 0, 16, 48),
        ]
        assert latest_version_touching(history, Interval(0, 16), 3) == 3
        assert latest_version_touching(history, Interval(16, 32), 3) == 1
        assert latest_version_touching(history, Interval(32, 48), 3) == 2
        assert latest_version_touching(history, Interval(48, 64), 3) is None
        # upto caps the search
        assert latest_version_touching(history, Interval(0, 16), 2) == 1

    @settings(max_examples=300, deadline=None)
    @given(
        writes=st.lists(
            st.tuples(st.integers(0, 255), st.integers(1, 64), st.booleans()),
            min_size=1,
            max_size=40,
        ),
        start=st.integers(0, 320),
        size=st.integers(1, 128),
        upto=st.integers(0, 45),
    )
    def test_newest_first_scan_matches_forward_scan(self, writes, start, size, upto):
        # A random history built by the coordinator's rule: versions dense
        # from 1, appends land at the current size, sizes never shrink.
        history, current = [], 0
        for version, (offset, length, append) in enumerate(writes, start=1):
            offset = current if append else offset
            current = max(current, offset + length)
            history.append(WriteRecord(version, offset, length, current))
        node_range = Interval(start, start + size)
        # Reference: the forward scan keeping the newest overlapping version.
        expected = None
        for record in history:
            if record.version <= upto and record.interval.overlaps(node_range):
                expected = record.version if expected is None else max(expected, record.version)
        assert latest_version_touching(history, node_range, upto) == expected

    def test_nodes_created_matches_builder(self):
        store = make_store()
        builder = SegmentTreeBuilder(store, CS)
        builder.build(
            blob_id=1,
            version=1,
            write_interval=Interval.of(0, 4 * CS),
            new_fragments=fragments_for(1, 0, 4 * CS),
            history=[],
            new_size=4 * CS,
        )
        assert builder.nodes_written == nodes_created_by_write(0, 4 * CS, 4 * CS, CS)


class TestFragments:
    def test_clip_adjusts_chunk_offset(self):
        frag = fragment(1, 32, 16)
        clipped = frag.clip(Interval(40, 60))
        assert clipped.blob_offset == 40
        assert clipped.length == 8
        assert clipped.chunk_offset == 8

    def test_clip_disjoint_returns_none(self):
        assert fragment(1, 0, 16).clip(Interval(32, 48)) is None

    def test_merge_fragments_rejects_overlap(self):
        with pytest.raises(ValueError):
            merge_fragments([fragment(1, 0, 16), fragment(2, 8, 16)])

    def test_merge_fragments_sorts(self):
        merged = merge_fragments([fragment(1, 32, 16), fragment(1, 0, 16)])
        assert [f.blob_offset for f in merged] == [0, 32]


class TestBuilderAndReader:
    def build_version(self, store, version, offset, size, history, new_size):
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

    def test_single_write_readable(self):
        store = make_store()
        root, _ = self.build_version(store, 1, 0, 64, [], 64)
        reader = SegmentTreeReader(store, CS)
        frags = reader.lookup(root, Interval(0, 64))
        assert sum(f.length for f in frags) == 64
        assert [f.blob_offset for f in frags] == [0, 16, 32, 48]

    def test_lookup_subrange_touches_logarithmic_nodes(self):
        store = make_store()
        root, _ = self.build_version(store, 1, 0, 16 * CS, [], 16 * CS)
        reader = SegmentTreeReader(store, CS)
        frags = reader.lookup(root, Interval.of(5 * CS, CS))
        assert len(frags) == 1 and frags[0].blob_offset == 5 * CS
        # One root-to-leaf path: depth is log2(16) + 1 = 5 nodes.
        assert reader.nodes_fetched == 5

    def test_visit_nodes_matches_lookup_traversal(self):
        store = make_store()
        history = []
        self.build_version(store, 1, 0, 8 * CS, history, 8 * CS)
        history.append(WriteRecord(1, 0, 8 * CS, 8 * CS))
        root2, _ = self.build_version(store, 2, 3 * CS, 9 * CS, history, 12 * CS)
        target = Interval.of(CS, 6 * CS)

        # Reference: a one-get-per-node depth-first walk over the same tree.
        expected = []

        def walk(key):
            expected.append(key)
            node = store.get(key)
            if isinstance(node, InnerNode):
                for child in node.children_overlapping(target):
                    walk(child)

        walk(root2)

        visited = []

        class Recording:
            def get_many(self, keys):
                visited.extend(keys)
                return store.get_many(keys)

        reader = SegmentTreeReader(Recording(), CS)
        frags = reader.lookup(root2, target)
        assert set(visited) == set(expected)
        assert len(visited) == len(set(visited)) == len(expected) == reader.nodes_fetched
        leaves = [node for node in map(store.get, expected) if isinstance(node, LeafNode)]
        assert frags == sorted(
            (f for leaf in leaves for f in leaf.fragments_in(target)),
            key=lambda f: f.blob_offset,
        )

    def test_unwritten_range_is_a_hole(self):
        store = make_store()
        root, _ = self.build_version(store, 1, 0, 32, [], 32)
        reader = SegmentTreeReader(store, CS)
        assert reader.lookup(root, Interval(100, 200)) == []

    def test_old_version_untouched_by_new_write(self):
        store = make_store()
        history = []
        root1, _ = self.build_version(store, 1, 0, 64, history, 64)
        history.append(WriteRecord(1, 0, 64, 64))
        root2, _ = self.build_version(store, 2, 16, 16, history, 64)
        reader = SegmentTreeReader(store, CS)
        v1 = reader.lookup(root1, Interval(0, 64))
        assert all(f.key.write_id == 1 for f in v1)
        v2 = reader.lookup(root2, Interval(0, 64))
        by_offset = {f.blob_offset: f.key.write_id for f in v2}
        assert by_offset[16] == 2
        assert by_offset[0] == 1 and by_offset[32] == 1 and by_offset[48] == 1

    def test_unchanged_subtrees_are_shared_not_copied(self):
        store = make_store()
        history = []
        self.build_version(store, 1, 0, 16 * CS, history, 16 * CS)
        history.append(WriteRecord(1, 0, 16 * CS, 16 * CS))
        before = store.total_entries()
        _, builder = self.build_version(store, 2, 0, CS, history, 16 * CS)
        added = store.total_entries() - before
        # Only the root-to-leaf path is new: log2(16)+1 = 5 nodes (per replica).
        assert added == 5
        assert builder.nodes_written == 5

    def test_append_grows_tree_and_borrows_old_root(self):
        store = make_store()
        history = []
        root1, _ = self.build_version(store, 1, 0, 2 * CS, history, 2 * CS)
        history.append(WriteRecord(1, 0, 2 * CS, 2 * CS))
        root2, _ = self.build_version(store, 2, 2 * CS, 6 * CS, history, 8 * CS)
        assert root2.size == 8 * CS
        node = store.get(root2)
        assert isinstance(node, InnerNode)
        # The untouched left half of the upper part references version 1 data.
        reader = SegmentTreeReader(store, CS)
        frags = reader.lookup(root2, Interval(0, 8 * CS))
        assert {f.key.write_id for f in frags} == {1, 2}
        assert sum(f.length for f in frags) == 8 * CS

    def test_partial_chunk_overwrite_merges_with_base_leaf(self):
        store = make_store()
        history = []
        root1, _ = self.build_version(store, 1, 0, CS, history, CS)
        history.append(WriteRecord(1, 0, CS, CS))
        # Overwrite bytes [4, 12) of the single chunk.
        builder = SegmentTreeBuilder(store, CS)
        root2 = builder.build(
            blob_id=1,
            version=2,
            write_interval=Interval(4, 12),
            new_fragments=[fragment(2, 4, 8)],
            history=history,
            new_size=CS,
        )
        reader = SegmentTreeReader(store, CS)
        frags = reader.lookup(root2, Interval(0, CS))
        spans = [(f.blob_offset, f.length, f.key.write_id) for f in frags]
        assert spans == [(0, 4, 1), (4, 8, 2), (12, 4, 1)]
        assert builder.base_leaves_fetched == 1

    def test_build_rejects_empty_write(self):
        store = make_store()
        builder = SegmentTreeBuilder(store, CS)
        with pytest.raises(ValueError):
            builder.build(1, 1, Interval(0, 0), [], [], 0)

    def test_build_noop_exposes_base_content(self):
        store = make_store()
        history = []
        self.build_version(store, 1, 0, 64, history, 64)
        history.append(WriteRecord(1, 0, 64, 64))
        builder = SegmentTreeBuilder(store, CS)
        # Version 2 "failed": repair exposes version 1's content unchanged.
        root2 = builder.build_noop(
            blob_id=1,
            version=2,
            write_interval=Interval(0, 64),
            history=history,
            new_size=64,
        )
        reader = SegmentTreeReader(store, CS)
        frags = reader.lookup(root2, Interval(0, 64))
        assert all(f.key.write_id == 1 for f in frags)
        assert sum(f.length for f in frags) == 64


class TestMetadataOverheadScaling:
    """The builder must stay O(chunks_written + log(span)) — the property the
    decentralised design relies on to keep metadata overhead low."""

    def test_node_count_linear_in_write_size(self):
        small = nodes_created_by_write(0, 4 * CS, 1024 * CS, CS)
        large = nodes_created_by_write(0, 8 * CS, 1024 * CS, CS)
        assert large <= 2 * small + 2

    def test_node_count_logarithmic_in_blob_size_for_fixed_write(self):
        costs = [
            nodes_created_by_write(0, CS, (2 ** k) * CS, CS) for k in range(1, 12)
        ]
        deltas = [b - a for a, b in zip(costs, costs[1:])]
        assert all(delta <= 1 for delta in deltas)  # one extra level per doubling

    def test_leaf_building_clips_only_overlapping_fragments(self, monkeypatch):
        """Leaves clip only the fragments they overlap, not every fragment
        of the write: at most leaves + fragments clips per build."""
        calls = []
        real_clip = Fragment.clip

        def counting_clip(self, target):
            calls.append(target)
            return real_clip(self, target)

        monkeypatch.setattr(Fragment, "clip", counting_clip)
        offset, size = 5, 64 * CS + 3
        fragments = fragments_for(1, offset, size)
        SegmentTreeBuilder(make_store(), CS).build(
            blob_id=1,
            version=1,
            write_interval=Interval.of(offset, size),
            new_fragments=fragments,
            history=[],
            new_size=offset + size,
        )
        leaves = (offset + size - 1) // CS + 1
        assert len(calls) <= leaves + len(fragments)

    @given(
        offset_chunks=st.integers(min_value=0, max_value=20),
        size_chunks=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_node_count_bound(self, offset_chunks, size_chunks):
        offset = offset_chunks * CS
        size = size_chunks * CS
        new_size = offset + size
        count = nodes_created_by_write(offset, size, new_size, CS)
        span_chunks = span_bytes(new_size, CS) // CS
        depth = span_chunks.bit_length()
        assert count <= 2 * size_chunks + 2 * depth
