"""Versioned distributed segment tree: geometry, write-side builder, reader.

This module is the heart of BlobSeer's metadata scheme (Section I.B.3,
"Metadata decentralization" + "Versioning-based concurrency control"):

* :func:`span_bytes` / :func:`node_ranges` define the tree geometry — every
  node covers a power-of-two number of chunks, the root covers the smallest
  power-of-two span that includes the whole snapshot.
* :class:`SegmentTreeBuilder` produces the metadata of a **new** snapshot:
  it creates a node for every tree range that intersects the written
  interval and *borrows* (references without copying) the nodes of older
  snapshots for every untouched half.  Nothing is ever modified, so
  concurrent writers only ever add new keys to the DHT and readers of older
  snapshots are never disturbed.
* :class:`SegmentTreeReader` walks a snapshot's tree top-down and returns
  the fragments covering a requested byte range.  The walk is a **frontier
  BFS**: the reader keeps the set of node keys of one tree level (the
  frontier), fetches the whole level in a single vectored ``get_many``
  round against the metadata DHT, then derives the next frontier from the
  children that overlap the target — so a lookup costs O(depth) metadata
  round trips instead of O(nodes) sequential RPCs.  Within a round the DHT
  groups the keys by owning provider and issues one bulk request per
  provider, so a level's fan-out is bounded by the slowest provider, not by
  the level's node count.

The builder is vectored symmetrically: it materialises every node of the
new tree and stores them all in **one** ``put_many`` round, in no order, as
the paper's writer does.  No order is needed: readers reach a version's
nodes only through its root after it is published, which follows the
acknowledged put, and later writers read only its leaves.  Base-leaf
lookups for partial-chunk merges are batched the same way, one
``get_many`` for all the leaves a build borrows.

Which older node a borrowed reference points to is computed *locally* from
the blob's write history (the list of ``(version, offset, size)`` of all
writes up to the base snapshot): the node of range ``H`` in the base
snapshot carries the version of the most recent write whose interval
intersects ``H``.  This is what lets concurrent writers build their trees
without reading each other's (possibly not yet written) metadata.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..chunking import chunk_count
from ..errors import MetadataNotFoundError
from ..interval import Interval, next_power_of_two
from ..types import BlobId, NodeKey, Version
from .tree_node import Fragment, InnerNode, LeafNode, TreeNode, merge_fragments


@dataclass(frozen=True, slots=True)
class WriteRecord:
    """One entry of a blob's write history, as tracked by the version manager."""

    version: Version
    offset: int
    size: int
    #: Snapshot size exposed once this write is published.
    new_size: int

    @property
    def interval(self) -> Interval:
        return Interval.of(self.offset, self.size)


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------


def span_bytes(snapshot_size: int, chunk_size: int) -> int:
    """Byte span covered by the segment tree of a snapshot of ``snapshot_size``.

    The span is the smallest power-of-two number of chunks that covers the
    snapshot; an empty snapshot still spans one chunk so the tree always has
    a well-defined root range.
    """
    chunks = max(1, chunk_count(snapshot_size, chunk_size))
    return next_power_of_two(chunks) * chunk_size


def root_key(blob_id: BlobId, version: Version, snapshot_size: int, chunk_size: int) -> NodeKey:
    """Key of the root node of snapshot ``version``."""
    return NodeKey(blob_id, version, 0, span_bytes(snapshot_size, chunk_size))


def halves(offset: int, size: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """Split a node range into its two half ranges ``(offset, size)`` pairs."""
    half = size // 2
    return (offset, half), (offset + half, half)


def node_ranges(span: int, chunk_size: int) -> Iterable[Tuple[int, int]]:
    """Enumerate every (offset, size) node range of a tree with ``span`` bytes."""
    size = span
    while size >= chunk_size:
        for offset in range(0, span, size):
            yield (offset, size)
        size //= 2


def latest_version_touching(
    history: Sequence[WriteRecord], node_range: Interval, upto_version: Version
) -> Optional[Version]:
    """Most recent version <= ``upto_version`` whose write intersects ``node_range``.

    This is the borrowed-reference rule described in the module docstring.
    Returns ``None`` when no write up to the base snapshot touched the
    range (the range is a hole there).

    ``history`` is in version order, so the scan walks it newest first and
    stops at the first overlap.  Snapshot sizes never shrink, so the newest
    record at or below ``upto_version`` carries the base snapshot's size:
    a range starting at or past it is a hole without further scanning.
    """
    base_size: Optional[int] = None
    for record in reversed(history):
        if record.version > upto_version:
            continue
        if base_size is None:
            base_size = record.new_size
            if node_range.start >= base_size:
                return None
        if record.interval.overlaps(node_range):
            return record.version
    return None


# ---------------------------------------------------------------------------
# Builder (write path)
# ---------------------------------------------------------------------------


class SegmentTreeBuilder:
    """Builds the metadata tree of one new snapshot.

    Every new node is materialised in memory, then stored in one
    ``put_many`` round.

    Parameters
    ----------
    metadata_store:
        Object with ``get_many``/``put_many`` — in practice the
        :class:`~repro.dht.DistributedKeyValueStore` or the client's
        write-through cache wrapping it.
    chunk_size:
        The blob's chunk size.
    """

    #: Bounded poll for a base leaf still being woven by a concurrent writer.
    BASE_LEAF_RETRIES = 100
    BASE_LEAF_RETRY_SLEEP = 0.002

    def __init__(self, metadata_store, chunk_size: int) -> None:
        self._store = metadata_store
        self._chunk_size = chunk_size
        #: Number of tree nodes written by the last ``build`` call.
        self.nodes_written = 0
        #: Number of base-tree leaves fetched for partial-chunk merges.
        self.base_leaves_fetched = 0
        #: Number of ``put_many`` rounds the last build flushed (always 1).
        self.put_rounds = 0
        #: Base-leaf refetch rounds after the first (the bounded poll for a
        #: concurrent writer's leaf) in the last build.
        self.base_leaf_polls = 0

    def _level_offsets(self, write_interval: Interval, size: int):
        """Aligned node offsets of one level that overlap ``write_interval``.

        The written interval is contiguous, so the overlapping nodes of a
        level form one contiguous aligned run — enumerated directly instead
        of scanning the whole span.
        """
        first = (write_interval.start // size) * size
        last = ((write_interval.end - 1) // size) * size
        return range(first, last + size, size)

    def build(
        self,
        blob_id: BlobId,
        version: Version,
        write_interval: Interval,
        new_fragments: Sequence[Fragment],
        history: Sequence[WriteRecord],
        new_size: int,
    ) -> NodeKey:
        """Write all metadata nodes of snapshot ``version`` and return its root key.

        ``new_fragments`` describe the chunks stored by this write (they must
        exactly tile ``write_interval``); ``history`` contains the write
        records of every version up to ``version - 1`` (published or not).
        """
        if write_interval.empty:
            raise ValueError("cannot build metadata for an empty write")
        cs = self._chunk_size
        span = span_bytes(new_size, cs)
        base_version = version - 1
        fragments = sorted(new_fragments, key=lambda f: f.blob_offset)
        starts = [f.blob_offset for f in fragments]

        # Only partially written leaves need base-snapshot content.
        base_leaves = self._base_leaves(
            blob_id, write_interval, history, base_version, partial_only=True
        )

        def make_leaf(key: NodeKey) -> LeafNode:
            node_iv = Interval.of(key.offset, key.size)
            written_part = node_iv.intersection(write_interval)
            pieces: List[Fragment] = []
            # The fragments tile the write in offset order: clip only the
            # run from the last one starting at or before this leaf's part.
            index = max(0, bisect_right(starts, written_part.start) - 1)
            while index < len(fragments) and starts[index] < written_part.end:
                clipped = fragments[index].clip(written_part)
                if clipped is not None:
                    pieces.append(clipped)
                index += 1
            # Parts of the leaf range not covered by this write keep whatever
            # the base snapshot exposed there (metadata-only merge, no data
            # copied).
            base_leaf = base_leaves.get(key.offset)
            if base_leaf is not None:
                for part in node_iv.subtract(write_interval):
                    pieces.extend(base_leaf.fragments_in(part))
            return LeafNode(key=key, fragments=merge_fragments(pieces))

        return self._flush_levels(
            blob_id, version, write_interval, history, span, base_version, make_leaf
        )

    def build_noop(
        self,
        blob_id: BlobId,
        version: Version,
        write_interval: Interval,
        history: Sequence[WriteRecord],
        new_size: int,
    ) -> NodeKey:
        """Build *no-op* metadata for a failed write (crash recovery).

        Later writers may already reference nodes ``(version, H)`` for every
        range ``H`` intersecting the failed write's interval, so those nodes
        must exist; a repair creates them with the **base snapshot's
        content**, making the failed write an observable no-op (any extension
        of the blob it announced reads back as zeros).
        """
        if write_interval.empty:
            raise ValueError("cannot repair an empty write")
        cs = self._chunk_size
        span = span_bytes(new_size, cs)
        base_version = version - 1
        base_leaves = self._base_leaves(
            blob_id, write_interval, history, base_version, partial_only=False
        )

        def make_leaf(key: NodeKey) -> LeafNode:
            base_leaf = base_leaves.get(key.offset)
            fragments = base_leaf.fragments if base_leaf is not None else ()
            return LeafNode(key=key, fragments=fragments)

        return self._flush_levels(
            blob_id, version, write_interval, history, span, base_version, make_leaf
        )

    # -- level construction ---------------------------------------------------
    def _flush_levels(
        self,
        blob_id: BlobId,
        version: Version,
        write_interval: Interval,
        history: Sequence[WriteRecord],
        span: int,
        base_version: Version,
        make_leaf: Callable[[NodeKey], LeafNode],
    ) -> NodeKey:
        """Materialise every node of the new tree, then store them in one round."""
        cs = self._chunk_size
        items: List[Tuple[NodeKey, TreeNode]] = [
            (key, make_leaf(key))
            for offset in self._level_offsets(write_interval, cs)
            for key in (NodeKey(blob_id, version, offset, cs),)
        ]
        size = cs * 2
        while size <= span:
            for offset in self._level_offsets(write_interval, size):
                key = NodeKey(blob_id, version, offset, size)
                children: List[Optional[NodeKey]] = []
                for child_offset, child_size in halves(offset, size):
                    child_iv = Interval.of(child_offset, child_size)
                    if child_iv.overlaps(write_interval):
                        children.append(
                            NodeKey(blob_id, version, child_offset, child_size)
                        )
                    else:
                        # Untouched half: borrow the most recent older node
                        # covering it (this includes the "tree grew, left
                        # half is the old root span" case).
                        borrowed = latest_version_touching(
                            history, child_iv, base_version
                        )
                        children.append(
                            NodeKey(blob_id, borrowed, child_offset, child_size)
                            if borrowed is not None
                            else None
                        )
                items.append(
                    (key, InnerNode(key=key, left=children[0], right=children[1]))
                )
            size *= 2
        self._store.put_many(items)
        self.nodes_written = len(items)
        self.put_rounds = 1
        return NodeKey(blob_id, version, 0, span)

    def _base_leaves(
        self,
        blob_id: BlobId,
        write_interval: Interval,
        history: Sequence[WriteRecord],
        base_version: Version,
        partial_only: bool,
    ) -> Dict[int, LeafNode]:
        """Base-snapshot leaves under the written range, keyed by offset.

        ``partial_only`` skips the leaves the write covers entirely, whose
        base content it overwrites.  Holes in the base have no entry.
        """
        cs = self._chunk_size
        self.base_leaves_fetched = self.base_leaf_polls = 0
        base_key_of: Dict[int, NodeKey] = {}
        for offset in self._level_offsets(write_interval, cs):
            node_iv = Interval.of(offset, cs)
            if partial_only and not node_iv.subtract(write_interval):
                continue
            borrowed = latest_version_touching(history, node_iv, base_version)
            if borrowed is not None:
                base_key_of[offset] = NodeKey(blob_id, borrowed, offset, cs)
        found = self._fetch_base_leaves_bulk(list(base_key_of.values()))
        return {offset: found[key] for offset, key in base_key_of.items()}

    def _fetch_base_leaves_bulk(
        self, base_keys: Sequence[NodeKey]
    ) -> Dict[NodeKey, LeafNode]:
        """Fetch all borrowed base leaves of one build in bulk rounds.

        A borrowed leaf may belong to a writer holding an earlier version
        ticket that has pushed its chunks but not finished weaving: the node
        is guaranteed to appear (its writer publishes, or the repair
        protocol installs it).  Writers never wait for each other *except*
        on exactly this metadata-only dependency, so missing leaves are
        polled briefly before the metadata is declared lost.  Only the
        still-missing subset is refetched each round, so a single slow
        concurrent weaver delays, not multiplies, the traffic.
        """
        unique = list(dict.fromkeys(base_keys))
        if not unique:
            return {}
        self.base_leaves_fetched += len(unique)
        found: Dict[NodeKey, TreeNode] = {}
        missing: Sequence[NodeKey] = unique
        for attempt in range(self.BASE_LEAF_RETRIES):
            found.update(self._store.get_many(missing))
            missing = [key for key in missing if key not in found]
            if not missing:
                break
            if attempt == self.BASE_LEAF_RETRIES - 1:
                raise MetadataNotFoundError(missing[0])
            self.base_leaf_polls += 1
            time.sleep(self.BASE_LEAF_RETRY_SLEEP)
        for key, node in found.items():
            if not isinstance(node, LeafNode):  # pragma: no cover - defensive
                raise MetadataNotFoundError(key)
        return found


# ---------------------------------------------------------------------------
# Reader (read path)
# ---------------------------------------------------------------------------


class SegmentTreeReader:
    """Reads fragment descriptors for a byte range of one snapshot.

    The traversal is a frontier BFS: the node keys of each tree level are
    fetched in a single ``get_many`` round, so a lookup costs O(depth)
    metadata round trips.
    """

    def __init__(self, metadata_store, chunk_size: int) -> None:
        self._store = metadata_store
        self._chunk_size = chunk_size
        #: Number of tree nodes fetched by the last ``lookup`` call.
        self.nodes_fetched = 0
        #: Number of ``get_many`` rounds the last ``lookup`` cost (== tree
        #: levels traversed).
        self.levels_fetched = 0

    def lookup(self, root: Optional[NodeKey], target: Interval) -> List[Fragment]:
        """Return the fragments covering ``target`` in the snapshot under ``root``.

        Holes (never-written sub-ranges) simply have no fragment; callers
        zero-fill them.  Fragments are returned sorted by blob offset.
        """
        self.nodes_fetched = 0
        self.levels_fetched = 0
        if root is None or target.empty:
            return []
        fragments: List[Fragment] = []
        frontier: List[NodeKey] = (
            [root] if Interval.of(root.offset, root.size).overlaps(target) else []
        )
        while frontier:
            found = self._store.get_many(frontier)
            self.levels_fetched += 1
            self.nodes_fetched += len(frontier)
            next_frontier: List[NodeKey] = []
            for key in frontier:
                node = found.get(key)
                if node is None:
                    raise MetadataNotFoundError(key)
                if isinstance(node, LeafNode):
                    fragments.extend(node.fragments_in(target))
                else:
                    next_frontier.extend(node.children_overlapping(target))
            frontier = next_frontier
        fragments.sort(key=lambda f: f.blob_offset)
        return fragments


# ---------------------------------------------------------------------------
# Analysis helpers
# ---------------------------------------------------------------------------


def nodes_created_by_write(
    offset: int, size: int, new_size: int, chunk_size: int
) -> int:
    """Count the tree nodes a write of ``(offset, size)`` creates (no I/O).

    Mirrors the builder's creation rule; tests use it to assert the
    builder's O(size/chunk + log span) behaviour without weaving a tree.
    """
    if size <= 0:
        return 0
    span = span_bytes(new_size, chunk_size)
    write_iv = Interval.of(offset, size)

    def count(node_offset: int, node_size: int) -> int:
        node_iv = Interval.of(node_offset, node_size)
        if not node_iv.overlaps(write_iv):
            return 0
        if node_size == chunk_size:
            return 1
        total = 1
        for child_offset, child_size in halves(node_offset, node_size):
            total += count(child_offset, child_size)
        return total

    return count(0, span)
