"""File-backed chunk store with a write-ahead layout.

Section IV.B of the paper introduces persistent data storage "while keeping
our initial RAM-based storage scheme as an underlying caching mechanism".
This module provides the persistent half: chunks are appended to a data log
file on disk and indexed by an in-memory dictionary that is rebuilt from a
compact index file on startup.  The layout is deliberately simple (append-
only log + index), matching BlobSeer's never-overwrite discipline: deleting
a chunk only removes the index entry; space is reclaimed by ``compact()``.
"""

from __future__ import annotations

import json
import os
import struct
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.errors import ChunkNotFoundError
from ..core.types import ChunkKey
from .memory_store import ChunkStore

_HEADER = struct.Struct(">QQQQ")  # blob_id, write_id, offset, payload length


class PersistentChunkStore(ChunkStore):
    """Append-only, file-backed chunk store.

    Parameters
    ----------
    root:
        Directory that will hold ``chunks.log`` (payloads) and
        ``chunks.idx`` (JSON index snapshot written on ``sync()``/``close()``).
    sync_every:
        Persist the index after this many puts (0 disables periodic syncs).
    """

    LOG_NAME = "chunks.log"
    INDEX_NAME = "chunks.idx"

    def __init__(self, root: str | os.PathLike[str], sync_every: int = 64) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._log_path = self._root / self.LOG_NAME
        self._index_path = self._root / self.INDEX_NAME
        self._lock = threading.Lock()
        self._sync_every = sync_every
        self._puts_since_sync = 0
        #: key -> (file offset of payload, payload length)
        self._index: Dict[ChunkKey, Tuple[int, int]] = {}
        self._bytes = 0
        self._log = open(self._log_path, "a+b")
        self._recover()

    # -- recovery ---------------------------------------------------------------
    def _recover(self) -> None:
        """Rebuild the index: trust the index file, then replay the log tail."""
        recovered: Dict[ChunkKey, Tuple[int, int]] = {}
        replay_from = 0
        if self._index_path.exists():
            try:
                snapshot = json.loads(self._index_path.read_text())
                replay_from = int(snapshot.get("log_size", 0))
                for entry in snapshot.get("entries", []):
                    key = ChunkKey(int(entry[0]), int(entry[1]), int(entry[2]))
                    recovered[key] = (int(entry[3]), int(entry[4]))
            except (ValueError, KeyError, json.JSONDecodeError):
                recovered = {}
                replay_from = 0
        log_size = self._log_path.stat().st_size if self._log_path.exists() else 0
        if replay_from > log_size:
            # Index is ahead of a truncated log: distrust it entirely.
            recovered = {}
            replay_from = 0
        recovered.update(self._replay_log(replay_from, log_size))
        self._index = recovered
        self._bytes = sum(length for _, length in self._index.values())

    def _replay_log(self, start: int, end: int) -> Dict[ChunkKey, Tuple[int, int]]:
        entries: Dict[ChunkKey, Tuple[int, int]] = {}
        with open(self._log_path, "rb") as fh:
            fh.seek(start)
            pos = start
            while pos + _HEADER.size <= end:
                header = fh.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    break
                blob_id, write_id, offset, length = _HEADER.unpack(header)
                payload_pos = pos + _HEADER.size
                if payload_pos + length > end:
                    break  # torn write at the tail; ignore it
                fh.seek(length, os.SEEK_CUR)
                entries[ChunkKey(blob_id, write_id, offset)] = (payload_pos, length)
                pos = payload_pos + length
        return entries

    # -- ChunkStore interface ------------------------------------------------------
    def put(self, key: ChunkKey, data: bytes) -> None:
        payload = bytes(data)
        with self._lock:
            existing = self._index.get(key)
            if existing is not None:
                current = self._read_at(*existing)
                if current != payload:
                    raise ValueError(
                        f"chunk {key} is immutable and already stored with "
                        f"different content"
                    )
                return
            self._log.seek(0, os.SEEK_END)
            header = _HEADER.pack(key.blob_id, key.write_id, key.offset, len(payload))
            start = self._log.tell()
            self._log.write(header)
            self._log.write(payload)
            self._log.flush()
            self._index[key] = (start + _HEADER.size, len(payload))
            self._bytes += len(payload)
            self._puts_since_sync += 1
            if self._sync_every and self._puts_since_sync >= self._sync_every:
                self._write_index_locked()

    def _read_at(self, position: int, length: int) -> bytes:
        self._log.flush()
        with open(self._log_path, "rb") as fh:
            fh.seek(position)
            return fh.read(length)

    def get(self, key: ChunkKey) -> bytes:
        with self._lock:
            entry = self._index.get(key)
            if entry is None:
                raise ChunkNotFoundError(str(key))
            return self._read_at(*entry)

    def contains(self, key: ChunkKey) -> bool:
        with self._lock:
            return key in self._index

    def delete(self, key: ChunkKey) -> bool:
        with self._lock:
            entry = self._index.pop(key, None)
            if entry is None:
                return False
            self._bytes -= entry[1]
            return True

    def keys(self) -> List[ChunkKey]:
        with self._lock:
            return list(self._index.keys())

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    @property
    def bytes_stored(self) -> int:
        with self._lock:
            return self._bytes

    # -- durability --------------------------------------------------------------
    def _write_index_locked(self) -> None:
        self._log.flush()
        snapshot = {
            "log_size": self._log_path.stat().st_size,
            "entries": [
                [key.blob_id, key.write_id, key.offset, pos, length]
                for key, (pos, length) in self._index.items()
            ],
        }
        tmp = self._index_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(snapshot))
        tmp.replace(self._index_path)
        self._puts_since_sync = 0

    def sync(self) -> None:
        """Flush the log and persist the index snapshot."""
        with self._lock:
            self._write_index_locked()

    def compact(self) -> int:
        """Rewrite the log keeping only live chunks; return bytes reclaimed."""
        with self._lock:
            old_size = self._log_path.stat().st_size
            tmp_path = self._log_path.with_suffix(".compact")
            new_index: Dict[ChunkKey, Tuple[int, int]] = {}
            with open(tmp_path, "wb") as out:
                for key, (pos, length) in sorted(
                    self._index.items(), key=lambda item: item[1][0]
                ):
                    payload = self._read_at(pos, length)
                    header = _HEADER.pack(
                        key.blob_id, key.write_id, key.offset, length
                    )
                    start = out.tell()
                    out.write(header)
                    out.write(payload)
                    new_index[key] = (start + _HEADER.size, length)
            self._log.close()
            tmp_path.replace(self._log_path)
            self._log = open(self._log_path, "a+b")
            self._index = new_index
            self._write_index_locked()
            return old_size - self._log_path.stat().st_size

    def close(self) -> None:
        with self._lock:
            self._write_index_locked()
            self._log.close()

    def __enter__(self) -> "PersistentChunkStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
