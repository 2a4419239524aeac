"""Tests for payload chunking and range reassembly."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.chunking import (
    chunk_count,
    reassemble,
    split_payload,
)
from repro.core.interval import Interval


class TestSplitPayload:
    def test_aligned_write_splits_into_full_chunks(self):
        pieces = split_payload(0, b"a" * 32, 8)
        assert [p.blob_offset for p in pieces] == [0, 8, 16, 24]
        assert all(p.size == 8 for p in pieces)

    def test_unaligned_write_has_partial_head_and_tail(self):
        pieces = split_payload(5, b"x" * 20, 8)
        assert [(p.blob_offset, p.size) for p in pieces] == [(5, 3), (8, 8), (16, 8), (24, 1)]

    def test_pieces_concatenate_to_payload(self):
        payload = bytes(range(100))
        pieces = split_payload(13, payload, 16)
        assert b"".join(p.data for p in pieces) == payload

    def test_chunk_index_matches_offset(self):
        for piece in split_payload(100, b"z" * 50, 32):
            assert piece.chunk_index == piece.blob_offset // 32

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            split_payload(-1, b"x", 8)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            split_payload(0, b"x", 0)

    @given(
        offset=st.integers(min_value=0, max_value=1000),
        payload=st.binary(min_size=0, max_size=500),
        chunk=st.integers(min_value=1, max_value=64),
    )
    def test_split_is_lossless_and_chunk_confined(self, offset, payload, chunk):
        pieces = split_payload(offset, payload, chunk)
        assert b"".join(p.data for p in pieces) == payload
        for piece in pieces:
            start_chunk = piece.blob_offset // chunk
            end_chunk = (piece.end - 1) // chunk if piece.size else start_chunk
            assert start_chunk == end_chunk  # never crosses a chunk boundary


class TestReassemble:
    def test_full_coverage(self):
        target = Interval.of(10, 10)
        data = reassemble(target, [(10, b"abcde"), (15, b"fghij")])
        assert data == b"abcdefghij"

    def test_out_of_order_fragments(self):
        target = Interval.of(0, 6)
        assert reassemble(target, [(3, b"def"), (0, b"abc")]) == b"abcdef"

    def test_holes_are_zero_filled(self):
        target = Interval.of(0, 8)
        assert reassemble(target, [(2, b"xy")]) == b"\x00\x00xy\x00\x00\x00\x00"

    def test_fragments_clipped_to_target(self):
        target = Interval.of(5, 4)
        assert reassemble(target, [(0, b"0123456789")]) == b"5678"

    def test_empty_target(self):
        assert reassemble(Interval.of(5, 0), [(0, b"abc")]) == b""

    @given(
        payload=st.binary(min_size=1, max_size=300),
        offset=st.integers(min_value=0, max_value=100),
        chunk=st.integers(min_value=1, max_value=32),
    )
    def test_split_then_reassemble_roundtrip(self, payload, offset, chunk):
        pieces = split_payload(offset, payload, chunk)
        fragments = [(p.blob_offset, p.data) for p in pieces]
        assert reassemble(Interval.of(offset, len(payload)), fragments) == payload


class TestCounting:
    @pytest.mark.parametrize(
        "size,chunk,expected",
        [(0, 8, 0), (1, 8, 1), (8, 8, 1), (9, 8, 2), (64, 8, 8), (65, 8, 9)],
    )
    def test_chunk_count(self, size, chunk, expected):
        assert chunk_count(size, chunk) == expected

    def test_chunk_count_rejects_bad_input(self):
        with pytest.raises(ValueError):
            chunk_count(-1, 8)
        with pytest.raises(ValueError):
            chunk_count(10, 0)
