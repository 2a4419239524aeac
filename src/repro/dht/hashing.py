"""Stable hashing utilities for the metadata DHT.

The DHT must place keys deterministically and uniformly regardless of the
Python process (``hash()`` is salted per process, so it is unusable for a
distributed hash table).  We hash the repr of structured keys with
BLAKE2b truncated to 64 bits, which is plenty for ring placement and is
stable across runs — experiments are therefore reproducible.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any

_MASK64 = (1 << 64) - 1


def stable_hash64(key: Any) -> int:
    """Map an arbitrary (repr-able) key to a stable 64-bit integer."""
    payload = _key_bytes(key)
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return struct.unpack(">Q", digest)[0]


def _key_bytes(key: Any) -> bytes:
    """Serialise a key to bytes in a canonical, type-tagged form."""
    if isinstance(key, bytes):
        return b"b:" + key
    if isinstance(key, str):
        return b"s:" + key.encode("utf-8")
    if isinstance(key, bool):
        return b"o:" + (b"1" if key else b"0")
    if isinstance(key, int):
        return b"i:" + str(key).encode("ascii")
    if isinstance(key, float):
        return b"f:" + repr(key).encode("ascii")
    if isinstance(key, (tuple, list)):
        parts = b",".join(_key_bytes(item) for item in key)
        return b"t:(" + parts + b")"
    # Dataclasses and other objects: rely on a deterministic repr.
    return b"r:" + repr(key).encode("utf-8")


def ring_position(key: Any) -> int:
    """Position of a key on the 64-bit hash ring."""
    return stable_hash64(key) & _MASK64


def virtual_node_position(node_id: str, replica_index: int) -> int:
    """Ring position of the ``replica_index``-th virtual node of ``node_id``."""
    return ring_position(("vnode", node_id, replica_index))
