"""Half-open byte-interval arithmetic.

The metadata layer reasons about byte ranges ``[offset, offset + size)`` all
the time: which part of a read intersects which tree node, which chunks a
write touches, which part of an old snapshot is still visible after a new
write.  Centralising the (easy to get subtly wrong) interval algebra here
keeps the segment-tree code readable and lets property-based tests hammer
the primitives in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple


@dataclass(frozen=True, slots=True, order=True)
class Interval:
    """A half-open byte interval ``[start, end)``.

    Empty intervals (``start == end``) are allowed and behave as the
    identity for union-like operations; they never overlap anything.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"interval start must be >= 0, got {self.start}")
        if self.end < self.start:
            raise ValueError(f"interval end {self.end} precedes start {self.start}")

    # -- constructors -------------------------------------------------------
    @staticmethod
    def of(offset: int, size: int) -> "Interval":
        """Build an interval from an (offset, size) pair."""
        return Interval(offset, offset + size)

    # -- basic properties ----------------------------------------------------
    @property
    def size(self) -> int:
        return self.end - self.start

    @property
    def empty(self) -> bool:
        return self.end == self.start

    def __contains__(self, point: int) -> bool:
        return self.start <= point < self.end

    # -- relations -----------------------------------------------------------
    def overlaps(self, other: "Interval") -> bool:
        """True if the two intervals share at least one byte.

        Empty intervals contain no bytes, so they never overlap anything.
        """
        if self.empty or other.empty:
            return False
        return self.start < other.end and other.start < self.end

    def contains(self, other: "Interval") -> bool:
        """True if ``other`` is entirely inside ``self`` (empty is contained
        anywhere its start lies within self, or if it is degenerate at the
        boundary)."""
        if other.empty:
            return self.start <= other.start <= self.end
        return self.start <= other.start and other.end <= self.end

    def touches(self, other: "Interval") -> bool:
        """True if the intervals overlap or are adjacent."""
        return self.start <= other.end and other.start <= self.end

    # -- algebra -------------------------------------------------------------
    def intersection(self, other: "Interval") -> "Interval":
        """Return the overlapping part (possibly empty, anchored sensibly)."""
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if end < start:
            return Interval(start, start)
        return Interval(start, end)

    def subtract(self, other: "Interval") -> Tuple["Interval", ...]:
        """Return the parts of ``self`` not covered by ``other`` (0, 1 or 2)."""
        if not self.overlaps(other):
            return (self,) if not self.empty else ()
        pieces: List[Interval] = []
        if self.start < other.start:
            pieces.append(Interval(self.start, other.start))
        if other.end < self.end:
            pieces.append(Interval(other.end, self.end))
        return tuple(pieces)

    def shift(self, delta: int) -> "Interval":
        return Interval(self.start + delta, self.end + delta)

    def split_at(self, boundaries: Sequence[int]) -> Tuple["Interval", ...]:
        """Split the interval at every boundary falling strictly inside it."""
        cuts = sorted({b for b in boundaries if self.start < b < self.end})
        points = [self.start, *cuts, self.end]
        return tuple(
            Interval(a, b) for a, b in zip(points, points[1:]) if a < b
        )


# ---------------------------------------------------------------------------
# Operations over collections of intervals
# ---------------------------------------------------------------------------


def normalize(intervals: Iterable[Interval]) -> List[Interval]:
    """Sort and merge overlapping / adjacent intervals, dropping empties."""
    items = sorted(iv for iv in intervals if not iv.empty)
    merged: List[Interval] = []
    for iv in items:
        if merged and iv.start <= merged[-1].end:
            merged[-1] = Interval(merged[-1].start, max(merged[-1].end, iv.end))
        else:
            merged.append(iv)
    return merged


def total_size(intervals: Iterable[Interval]) -> int:
    """Number of distinct bytes covered by the intervals."""
    return sum(iv.size for iv in normalize(intervals))


def covers(cover: Iterable[Interval], target: Interval) -> bool:
    """True if the union of ``cover`` includes every byte of ``target``."""
    if target.empty:
        return True
    remaining = target
    for iv in normalize(cover):
        if iv.start > remaining.start:
            return False
        if iv.end >= remaining.end:
            return True
        if iv.end > remaining.start:
            remaining = Interval(iv.end, remaining.end)
    return remaining.empty


def iter_chunks(interval: Interval, chunk_size: int) -> Iterator[Interval]:
    """Yield the chunk-aligned sub-intervals that tile ``interval``.

    The first and last pieces may be partial chunks when the interval is not
    aligned; every interior piece is exactly ``chunk_size`` bytes.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    if interval.empty:
        return
    cursor = interval.start
    while cursor < interval.end:
        boundary = ((cursor // chunk_size) + 1) * chunk_size
        end = min(boundary, interval.end)
        yield Interval(cursor, end)
        cursor = end


def next_power_of_two(value: int) -> int:
    """Smallest power of two >= value (>= 1)."""
    if value <= 1:
        return 1
    return 1 << (value - 1).bit_length()
