"""HDFS-like file system baseline.

Section IV.D of the paper replaces HDFS under Hadoop with BSFS and measures
the gain "especially in the case of concurrent accesses to the same huge
file".  To reproduce that comparison without Hadoop we implement the
architectural constraints that matter, on the same data-provider substrate:

* a single **namenode** owns the whole namespace and every block map;
  every metadata operation takes its global lock;
* files are **write-once / append-only** and have a **single writer**: a
  file opened for append is leased to that writer and other writers block
  (or fail) until the lease is released — concurrent appends to one file
  therefore serialise, which is precisely what the experiment exposes;
* writes at arbitrary offsets of an existing file are not supported at all
  (the HDFS model), so the "concurrent writers to the same file" workload
  cannot even be expressed — the benchmark reports BlobSeer's advantage as
  the ratio against serialised appends;
* reads are not versioned: a reader sees whatever blocks are committed at
  the time of the call.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.config import BlobSeerConfig
from ..core.data_provider import ProviderPool
from ..core.errors import ClientError, InvalidRangeError, ProviderUnavailableError
from ..core.interval import Interval
from ..core.provider_manager import make_strategy
from ..core.types import ChunkKey


class HdfsError(ClientError):
    """Errors specific to the HDFS-like baseline semantics."""


#: Process-wide block id counter — block keys must stay unique even if two
#: file-system instances share one data-provider pool.
_BLOCK_ID_COUNTER = itertools.count(1)


@dataclass
class BlockInfo:
    """One block of a file (HDFS terminology for a chunk)."""

    key: ChunkKey
    providers: Tuple[str, ...]
    length: int


@dataclass
class FileEntry:
    """Namenode record for one file."""

    path: str
    block_size: int
    blocks: List[BlockInfo] = field(default_factory=list)
    size: int = 0
    lease_holder: Optional[str] = None

    @property
    def is_open(self) -> bool:
        return self.lease_holder is not None


class HdfsLikeFileSystem:
    """Write-once, single-writer, centralised-namespace file system."""

    def __init__(self, pool: ProviderPool, config: Optional[BlobSeerConfig] = None) -> None:
        self.config = config or BlobSeerConfig()
        self.pool = pool
        self._lock = threading.Lock()
        self._files: Dict[str, FileEntry] = {}
        self._directories = {"/"}
        self._strategy = make_strategy(self.config.placement_strategy)
        #: Namenode operation counter (the centralisation the paper points at).
        self.namenode_ops = 0

    # -- namespace ------------------------------------------------------------------
    def mkdir(self, path: str) -> None:
        path = _normalize(path)
        with self._lock:
            self.namenode_ops += 1
            parent = _parent(path)
            if parent not in self._directories:
                raise HdfsError(f"parent directory {parent!r} does not exist")
            self._directories.add(path)

    def exists(self, path: str) -> bool:
        path = _normalize(path)
        with self._lock:
            self.namenode_ops += 1
            return path in self._files or path in self._directories

    def list_dir(self, path: str) -> List[str]:
        path = _normalize(path)
        with self._lock:
            self.namenode_ops += 1
            if path not in self._directories:
                raise HdfsError(f"directory {path!r} does not exist")
            prefix = path if path.endswith("/") else path + "/"
            entries = set()
            for candidate in list(self._files) + list(self._directories):
                if candidate != path and candidate.startswith(prefix):
                    remainder = candidate[len(prefix):]
                    entries.add(prefix + remainder.split("/", 1)[0])
            return sorted(entries)

    def delete(self, path: str) -> bool:
        path = _normalize(path)
        with self._lock:
            self.namenode_ops += 1
            entry = self._files.pop(path, None)
            if entry is None:
                return False
        for block in entry.blocks:
            for provider_id in block.providers:
                try:
                    self.pool.get(provider_id).delete_chunk(block.key)
                except ProviderUnavailableError:
                    continue
        return True

    def file_size(self, path: str) -> int:
        return self._entry(path).size

    def file_status(self, path: str) -> Dict[str, object]:
        entry = self._entry(path)
        return {
            "path": entry.path,
            "size": entry.size,
            "block_size": entry.block_size,
            "blocks": len(entry.blocks),
            "open": entry.is_open,
        }

    def block_locations(self, path: str, offset: int, size: int) -> List[Tuple[int, int, Tuple[str, ...]]]:
        """(offset, length, providers) per block overlapping the range."""
        entry = self._entry(path)
        out: List[Tuple[int, int, Tuple[str, ...]]] = []
        target = Interval.of(offset, size)
        cursor = 0
        for block in entry.blocks:
            block_iv = Interval.of(cursor, block.length)
            if block_iv.overlaps(target):
                out.append((cursor, block.length, block.providers))
            cursor += block.length
        return out

    def _entry(self, path: str) -> FileEntry:
        path = _normalize(path)
        with self._lock:
            self.namenode_ops += 1
            entry = self._files.get(path)
            if entry is None:
                raise HdfsError(f"file {path!r} does not exist")
            return entry

    # -- write path (single writer, append only) ---------------------------------------
    def create(self, path: str, writer: str = "client", block_size: Optional[int] = None) -> "HdfsWriter":
        """Create a new file and return its (exclusive) writer."""
        path = _normalize(path)
        with self._lock:
            self.namenode_ops += 1
            if path in self._files:
                raise HdfsError(f"file {path!r} already exists (HDFS files are write-once)")
            parent = _parent(path)
            if parent not in self._directories:
                raise HdfsError(f"parent directory {parent!r} does not exist")
            entry = FileEntry(
                path=path,
                block_size=block_size or self.config.chunk_size,
                lease_holder=writer,
            )
            self._files[path] = entry
        return HdfsWriter(self, entry, writer)

    def append_open(self, path: str, writer: str = "client") -> "HdfsWriter":
        """Re-open an existing file for appending (takes the single lease)."""
        path = _normalize(path)
        with self._lock:
            self.namenode_ops += 1
            entry = self._files.get(path)
            if entry is None:
                raise HdfsError(f"file {path!r} does not exist")
            if entry.lease_holder is not None:
                raise HdfsError(
                    f"file {path!r} is already open by {entry.lease_holder!r}; "
                    f"HDFS allows a single writer at a time"
                )
            entry.lease_holder = writer
        return HdfsWriter(self, entry, writer)

    def _release_lease(self, entry: FileEntry, writer: str) -> None:
        with self._lock:
            self.namenode_ops += 1
            if entry.lease_holder == writer:
                entry.lease_holder = None

    def _allocate_block(self, entry: FileEntry, nbytes: int) -> BlockInfo:
        with self._lock:
            self.namenode_ops += 1
            live = self.pool.live_provider_ids()
            providers = self._strategy.select(live, 1, self.config.replication, {})[0]
            key = ChunkKey(blob_id=0, write_id=next(_BLOCK_ID_COUNTER), offset=0)
            return BlockInfo(key=key, providers=providers, length=nbytes)

    def _commit_block(self, entry: FileEntry, block: BlockInfo) -> None:
        with self._lock:
            self.namenode_ops += 1
            entry.blocks.append(block)
            entry.size += block.length

    # -- read path ------------------------------------------------------------------------
    def read(self, path: str, offset: int = 0, size: Optional[int] = None) -> bytes:
        entry = self._entry(path)
        if offset < 0:
            raise InvalidRangeError("read offset must be >= 0")
        if offset > entry.size:
            raise InvalidRangeError("read offset is beyond the end of the file")
        if size is None:
            size = entry.size - offset
        target = Interval.of(offset, size).intersection(Interval(0, entry.size))
        if target.empty:
            return b""
        out = bytearray()
        cursor = 0
        for block in entry.blocks:
            block_iv = Interval.of(cursor, block.length)
            overlap = block_iv.intersection(target)
            if not overlap.empty:
                payload = self.pool.read_chunk(list(block.providers), block.key)
                start = overlap.start - cursor
                out.extend(payload[start : start + overlap.size])
            cursor += block.length
            if cursor >= target.end:
                break
        return bytes(out)


class HdfsWriter:
    """Streaming writer holding the single lease of one file."""

    def __init__(self, fs: HdfsLikeFileSystem, entry: FileEntry, writer: str) -> None:
        self._fs = fs
        self._entry = entry
        self._writer = writer
        self._buffer = bytearray()
        self._closed = False

    def write(self, data: bytes) -> None:
        """Buffer data, flushing full blocks to the data providers."""
        if self._closed:
            raise HdfsError("writer is closed")
        self._buffer.extend(data)
        block_size = self._entry.block_size
        while len(self._buffer) >= block_size:
            self._flush_block(bytes(self._buffer[:block_size]))
            del self._buffer[:block_size]

    def _flush_block(self, payload: bytes) -> None:
        block = self._fs._allocate_block(self._entry, len(payload))
        self._fs.pool.write_chunk(list(block.providers), block.key, payload)
        self._fs._commit_block(self._entry, block)

    def close(self) -> None:
        if self._closed:
            return
        if self._buffer:
            self._flush_block(bytes(self._buffer))
            self._buffer.clear()
        self._fs._release_lease(self._entry, self._writer)
        self._closed = True

    def __enter__(self) -> "HdfsWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _normalize(path: str) -> str:
    if not path.startswith("/"):
        raise HdfsError(f"paths must be absolute, got {path!r}")
    while "//" in path:
        path = path.replace("//", "/")
    if len(path) > 1 and path.endswith("/"):
        path = path[:-1]
    return path


def _parent(path: str) -> str:
    if path == "/":
        return "/"
    return path.rsplit("/", 1)[0] or "/"
