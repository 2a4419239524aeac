"""Unit and property tests for the half-open interval algebra."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interval import (
    Interval,
    covers,
    iter_chunks,
    next_power_of_two,
    normalize,
    total_size,
)


def ivals(max_value: int = 10_000):
    return st.tuples(
        st.integers(min_value=0, max_value=max_value),
        st.integers(min_value=0, max_value=1_000),
    ).map(lambda pair: Interval.of(pair[0], pair[1]))


class TestConstruction:
    def test_of_builds_half_open_interval(self):
        iv = Interval.of(10, 5)
        assert iv.start == 10 and iv.end == 15 and iv.size == 5

    def test_empty_interval(self):
        assert Interval.of(3, 0).empty

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Interval(-1, 4)

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            Interval(5, 4)

    def test_contains_point(self):
        iv = Interval(2, 5)
        assert 2 in iv and 4 in iv
        assert 5 not in iv and 1 not in iv


class TestRelations:
    def test_overlap_and_disjoint(self):
        assert Interval(0, 10).overlaps(Interval(5, 15))
        assert not Interval(0, 10).overlaps(Interval(10, 20))  # touching, half-open
        assert not Interval(0, 5).overlaps(Interval(6, 8))

    def test_empty_never_overlaps(self):
        assert not Interval(5, 5).overlaps(Interval(0, 10))

    def test_contains_interval(self):
        assert Interval(0, 10).contains(Interval(3, 7))
        assert not Interval(0, 10).contains(Interval(3, 11))

    def test_touches_adjacent(self):
        assert Interval(0, 5).touches(Interval(5, 8))


class TestAlgebra:
    def test_intersection(self):
        assert Interval(0, 10).intersection(Interval(5, 20)) == Interval(5, 10)

    def test_intersection_disjoint_is_empty(self):
        assert Interval(0, 3).intersection(Interval(7, 9)).empty

    def test_subtract_middle_gives_two_pieces(self):
        pieces = Interval(0, 10).subtract(Interval(3, 6))
        assert pieces == (Interval(0, 3), Interval(6, 10))

    def test_subtract_covering_gives_nothing(self):
        assert Interval(3, 6).subtract(Interval(0, 10)) == ()

    def test_subtract_disjoint_returns_self(self):
        assert Interval(0, 3).subtract(Interval(5, 9)) == (Interval(0, 3),)

    def test_shift(self):
        assert Interval(2, 5).shift(10) == Interval(12, 15)

    def test_split_at(self):
        assert Interval(0, 10).split_at([3, 7, 15]) == (
            Interval(0, 3),
            Interval(3, 7),
            Interval(7, 10),
        )

    @given(ivals(), ivals())
    def test_intersection_commutes(self, a, b):
        assert a.intersection(b).size == b.intersection(a).size

    @given(ivals(), ivals())
    def test_subtract_plus_intersection_preserves_size(self, a, b):
        pieces = a.subtract(b)
        assert sum(p.size for p in pieces) + a.intersection(b).size == a.size

    @given(ivals(), ivals())
    def test_subtract_pieces_never_overlap_subtrahend(self, a, b):
        for piece in a.subtract(b):
            assert not piece.overlaps(b)


class TestCollections:
    def test_normalize_merges_overlaps_and_adjacent(self):
        merged = normalize([Interval(0, 5), Interval(4, 8), Interval(8, 10), Interval(20, 25)])
        assert merged == [Interval(0, 10), Interval(20, 25)]

    def test_total_size_counts_distinct_bytes(self):
        assert total_size([Interval(0, 10), Interval(5, 15)]) == 15

    def test_covers_true_and_false(self):
        assert covers([Interval(0, 5), Interval(5, 12)], Interval(2, 10))
        assert not covers([Interval(0, 5), Interval(6, 12)], Interval(2, 10))


class TestChunkHelpers:
    def test_iter_chunks_unaligned(self):
        parts = list(iter_chunks(Interval(5, 22), 8))
        assert parts == [Interval(5, 8), Interval(8, 16), Interval(16, 22)]

    def test_iter_chunks_exact(self):
        assert list(iter_chunks(Interval(8, 24), 8)) == [Interval(8, 16), Interval(16, 24)]

    @given(ivals(), st.integers(min_value=1, max_value=64))
    def test_iter_chunks_tiles_exactly(self, iv, chunk):
        parts = list(iter_chunks(iv, chunk))
        assert sum(p.size for p in parts) == iv.size
        # pieces are contiguous and interior pieces are chunk-aligned
        for a, b in zip(parts, parts[1:]):
            assert a.end == b.start
            assert b.start % chunk == 0

    @pytest.mark.parametrize(
        "value,expected", [(0, 1), (1, 1), (2, 2), (3, 4), (4, 4), (1000, 1024)]
    )
    def test_next_power_of_two(self, value, expected):
        assert next_power_of_two(value) == expected
