"""Chunking helpers: splitting byte payloads into fixed-size chunks.

BlobSeer stripes every blob into fixed-size chunks (Section I.B.3 of the
paper).  Writes may start and end anywhere, so the first and last chunk of
a write can be *partial*: the chunk stored on the data provider then only
covers the written sub-range, and the metadata leaf records the exact
(offset, size) it covers.  Readers reassemble the requested range from
whichever chunk fragments the per-version segment tree exposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .interval import Interval, iter_chunks


@dataclass(frozen=True, slots=True)
class ChunkPiece:
    """One chunk-aligned fragment of a write.

    ``blob_offset`` is the absolute position inside the blob snapshot,
    ``data`` the bytes stored for that fragment.  ``chunk_index`` is the
    index of the fixed-size chunk the fragment falls into.
    """

    chunk_index: int
    blob_offset: int
    data: bytes

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def end(self) -> int:
        return self.blob_offset + len(self.data)


def split_payload(offset: int, payload: bytes, chunk_size: int) -> List[ChunkPiece]:
    """Split ``payload`` written at ``offset`` into chunk-aligned pieces.

    Every returned piece lies entirely inside one chunk of the blob; pieces
    are returned in increasing offset order and concatenate back to the
    original payload.
    """
    if offset < 0:
        raise ValueError("offset must be >= 0")
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    pieces: List[ChunkPiece] = []
    span = Interval.of(offset, len(payload))
    for part in iter_chunks(span, chunk_size):
        rel_start = part.start - offset
        rel_end = part.end - offset
        pieces.append(
            ChunkPiece(
                chunk_index=part.start // chunk_size,
                blob_offset=part.start,
                data=payload[rel_start:rel_end],
            )
        )
    return pieces


def reassemble(
    target: Interval, fragments: Sequence[Tuple[int, bytes]], fill: int = 0
) -> bytes:
    """Reassemble the bytes of ``target`` from (blob_offset, data) fragments.

    Fragments may arrive in any order and may extend beyond the target range
    (they are clipped).  Bytes of the target not covered by any fragment are
    filled with ``fill`` — this models reading a hole (a range never written
    in any ancestor snapshot), which BlobSeer exposes as zero bytes.
    """
    if target.empty:
        return b""
    out = bytearray([fill]) * target.size
    for blob_offset, data in fragments:
        frag = Interval.of(blob_offset, len(data))
        clip = frag.intersection(target)
        if clip.empty:
            continue
        src_start = clip.start - blob_offset
        src_end = src_start + clip.size
        dst_start = clip.start - target.start
        out[dst_start : dst_start + clip.size] = data[src_start:src_end]
    return bytes(out)


def chunk_count(size: int, chunk_size: int) -> int:
    """Number of chunks needed to cover ``size`` bytes."""
    if size < 0:
        raise ValueError("size must be >= 0")
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    return -(-size // chunk_size)
