"""Shared value types used across the BlobSeer reproduction.

These are small, immutable records passed between the client library, the
version manager, the provider manager, the data providers and the metadata
layer.  Keeping them in one module avoids circular imports between the
service implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


#: Type alias for a blob identifier (assigned by the version manager).
BlobId = int

#: Type alias for a snapshot version number (0 is the empty initial snapshot).
Version = int


@dataclass(frozen=True, slots=True)
class ChunkKey:
    """Globally unique identifier of one immutable chunk.

    A chunk is created by exactly one write/append operation and never
    mutated afterwards.  Because BlobSeer clients push their chunks to the
    data providers *before* the version manager assigns the snapshot
    version (this keeps the serialised commit window small), the key cannot
    embed the version; instead it embeds the ``write_id`` handed out by the
    provider manager together with the write plan, plus the blob offset the
    chunk was written at.
    """

    blob_id: BlobId
    write_id: int
    offset: int

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"chunk({self.blob_id}:w{self.write_id}@{self.offset})"


@dataclass(frozen=True, slots=True)
class ChunkDescriptor:
    """Where one chunk lives and which byte range of the blob it covers.

    ``providers`` lists the data providers holding a replica, primary first.
    """

    key: ChunkKey
    offset: int
    size: int
    providers: Tuple[str, ...]

    @property
    def end(self) -> int:
        return self.offset + self.size

    @property
    def primary(self) -> str:
        return self.providers[0]


@dataclass(frozen=True, slots=True)
class NodeKey:
    """Identifier of a metadata segment-tree node.

    Tree nodes are versioned and immutable: ``(blob_id, version, offset,
    size)`` uniquely names the node describing byte range
    ``[offset, offset + size)`` of snapshot ``version``.
    """

    blob_id: BlobId
    version: Version
    offset: int
    size: int

    @property
    def end(self) -> int:
        return self.offset + self.size

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"node({self.blob_id}:v{self.version} [{self.offset},{self.end}))"


@dataclass(frozen=True, slots=True)
class WriteTicket:
    """Ticket handed out by the version manager when a write is registered.

    The assigned version is tentative: the snapshot only becomes visible to
    readers once the client publishes it *and* all earlier tickets have been
    published (the version manager enforces in-order publication, which is
    what makes the whole history linearizable).
    """

    blob_id: BlobId
    version: Version
    offset: int
    size: int
    is_append: bool
    #: Blob size the new snapshot will expose once published.
    new_blob_size: int
    #: Size of the snapshot this write is layered on (version - 1).
    base_blob_size: int


@dataclass(frozen=True, slots=True)
class SnapshotInfo:
    """Public description of one published snapshot."""

    blob_id: BlobId
    version: Version
    size: int
    chunk_size: int
    #: Root node of the metadata tree for this snapshot.
    root: Optional[NodeKey]


@dataclass(frozen=True, slots=True)
class BlobInfo:
    """Static per-blob parameters fixed at creation time."""

    blob_id: BlobId
    chunk_size: int
    replication: int


@dataclass(slots=True)
class ProviderStats:
    """Load statistics reported by (or tracked for) one data provider."""

    provider_id: str
    reads_served: int = 0
    writes_served: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def record_write(self, nbytes: int) -> None:
        self.writes_served += 1
        self.bytes_written += nbytes

    def record_read(self, nbytes: int) -> None:
        self.reads_served += 1
        self.bytes_read += nbytes


@dataclass(frozen=True, slots=True)
class WritePlan:
    """Placement decision of the provider manager for one write/append.

    ``placements`` maps each chunk-aligned offset (relative to the start of
    the written range) to the ordered tuple of provider ids that should
    store that chunk (primary first, then replicas).
    """

    blob_id: BlobId
    chunk_size: int
    placements: Tuple[Tuple[int, Tuple[str, ...]], ...] = field(default=())

    def providers_for(self, relative_offset: int) -> Tuple[str, ...]:
        for off, providers in self.placements:
            if off == relative_offset:
                return providers
        raise KeyError(relative_offset)

    @property
    def num_chunks(self) -> int:
        return len(self.placements)
