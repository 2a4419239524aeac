"""Value serialisation for the networked protocol.

The in-process services exchange small frozen dataclasses (chunk and node
keys, write tickets, placement plans, metadata tree nodes) plus ``bytes``
payloads and dicts keyed by those dataclasses.  :func:`encode` flattens any
such value into JSON-compatible structures and :func:`decode` rebuilds it,
so the framing layer stays codec-agnostic:

* tagged dataclasses — ``{"__t": "ChunkKey", "f": [...]}`` with positional
  fields, rebuilt through a per-type constructor table (tuple-typed fields
  are restored as tuples, so decoded values compare equal to the
  originals);
* ``bytes`` — ``{"__b": "<base64>"}``;
* dicts — ``{"__t": "map", "v": [[k, v], ...]}`` pair lists, because the
  protocol's dicts are keyed by node keys, not strings;
* exceptions — ``{"__t": "exc", "cls": ..., "args": [...]}``.  The
  registry covers the :mod:`repro.core.errors` hierarchy (and the stdlib
  types the stores raise); unknown classes degrade to a
  :class:`~repro.core.errors.ServiceError` carrying the original text.
  Decoded exceptions are *returned*, not raised — the RPC layer raises the
  ones arriving in a response's ``error`` slot, while exceptions nested
  inside results (bulk registration outcomes) stay values, exactly as the
  in-process API returns them.
"""

from __future__ import annotations

import base64
from typing import Any, Callable, Dict, List, Tuple, Type

from ..core import errors
from ..obs.trace import TraceContext
from ..core.metadata.segment_tree import WriteRecord
from ..core.metadata.tree_node import Fragment, InnerNode, LeafNode
from ..resilience.journal import JournalRecord
from ..core.types import (
    BlobInfo,
    ChunkDescriptor,
    ChunkKey,
    NodeKey,
    SnapshotInfo,
    WritePlan,
    WriteTicket,
)


class WireError(ValueError):
    """A value could not be encoded or decoded."""


# -- dataclass tags ----------------------------------------------------------------
# tag -> (type, field names in positional order, rebuild function)

def _rebuild_write_plan(fields: List[Any]) -> WritePlan:
    blob_id, chunk_size, placements = fields
    return WritePlan(
        blob_id=blob_id,
        chunk_size=chunk_size,
        placements=tuple((off, tuple(providers)) for off, providers in placements),
    )


def _rebuild_fragment(fields: List[Any]) -> Fragment:
    key, providers, blob_offset, length, chunk_offset = fields
    return Fragment(
        key=key,
        providers=tuple(providers),
        blob_offset=blob_offset,
        length=length,
        chunk_offset=chunk_offset,
    )


def _rebuild_leaf(fields: List[Any]) -> LeafNode:
    key, fragments = fields
    return LeafNode(key=key, fragments=tuple(fragments))


_TYPES: Dict[str, Tuple[type, Tuple[str, ...], Callable[[List[Any]], Any]]] = {
    "ChunkKey": (
        ChunkKey,
        ("blob_id", "write_id", "offset"),
        lambda f: ChunkKey(*f),
    ),
    "NodeKey": (
        NodeKey,
        ("blob_id", "version", "offset", "size"),
        lambda f: NodeKey(*f),
    ),
    "WriteTicket": (
        WriteTicket,
        (
            "blob_id",
            "version",
            "offset",
            "size",
            "is_append",
            "new_blob_size",
            "base_blob_size",
        ),
        lambda f: WriteTicket(*f),
    ),
    "SnapshotInfo": (
        SnapshotInfo,
        ("blob_id", "version", "size", "chunk_size", "root"),
        lambda f: SnapshotInfo(*f),
    ),
    "BlobInfo": (
        BlobInfo,
        ("blob_id", "chunk_size", "replication"),
        lambda f: BlobInfo(*f),
    ),
    "ChunkDescriptor": (
        ChunkDescriptor,
        ("key", "offset", "size", "providers"),
        lambda f: ChunkDescriptor(f[0], f[1], f[2], tuple(f[3])),
    ),
    "WritePlan": (
        WritePlan,
        ("blob_id", "chunk_size", "placements"),
        _rebuild_write_plan,
    ),
    "Fragment": (
        Fragment,
        ("key", "providers", "blob_offset", "length", "chunk_offset"),
        _rebuild_fragment,
    ),
    "LeafNode": (LeafNode, ("key", "fragments"), _rebuild_leaf),
    "InnerNode": (
        InnerNode,
        ("key", "left", "right"),
        lambda f: InnerNode(key=f[0], left=f[1], right=f[2]),
    ),
    "WriteRecord": (
        WriteRecord,
        ("version", "offset", "size", "new_size"),
        lambda f: WriteRecord(*f),
    ),
    "JournalRecord": (
        JournalRecord,
        ("lsn", "op", "blob_id", "payload"),
        lambda f: JournalRecord(lsn=f[0], op=f[1], blob_id=f[2], payload=f[3]),
    ),
}

_TAG_OF: Dict[type, str] = {cls: tag for tag, (cls, _, _) in _TYPES.items()}

#: Exceptions rebuilt by class name; anything else degrades to ServiceError.
_EXCEPTIONS: Dict[str, Type[BaseException]] = {
    cls.__name__: cls
    for cls in (
        errors.BlobSeerError,
        errors.ClientError,
        errors.BlobNotFoundError,
        errors.VersionNotFoundError,
        errors.InvalidRangeError,
        errors.InvalidConfigError,
        errors.ServiceError,
        errors.ProviderUnavailableError,
        errors.ChunkNotFoundError,
        errors.MetadataNotFoundError,
        errors.AllocationError,
        errors.CommitError,
        errors.EpochRetryError,
        errors.ReplicationError,
        errors.TimeoutError_,
        ValueError,
        KeyError,
        RuntimeError,
    )
}


def encode(value: Any) -> Any:
    """Flatten ``value`` into JSON-compatible structures."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray, memoryview)):
        return {"__b": base64.b64encode(bytes(value)).decode("ascii")}
    tag = _TAG_OF.get(type(value))
    if tag is not None:
        _, field_names, _ = _TYPES[tag]
        return {"__t": tag, "f": [encode(getattr(value, name)) for name in field_names]}
    if isinstance(value, BaseException):
        args = list(value.args)
        if isinstance(value, errors.EpochRetryError):
            # epoch lives as an attribute, not in args; ship it positionally
            # (the constructor takes it second) so retry loops still see it.
            args = [args[0] if args else str(value), value.epoch]
        return {
            "__t": "exc",
            "cls": type(value).__name__,
            "args": [encode(arg) for arg in args],
            "msg": str(value),
        }
    if isinstance(value, dict):
        return {"__t": "map", "v": [[encode(k), encode(v)] for k, v in value.items()]}
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    raise WireError(f"cannot encode value of type {type(value).__name__}: {value!r}")


def decode(value: Any) -> Any:
    """Rebuild a value flattened by :func:`encode`."""
    if isinstance(value, list):
        return [decode(item) for item in value]
    if not isinstance(value, dict):
        return value
    if "__b" in value:
        return base64.b64decode(value["__b"])
    tag = value.get("__t")
    if tag == "map":
        return {decode(k): decode(v) for k, v in value["v"]}
    if tag == "exc":
        return _decode_exception(value)
    if tag is not None:
        entry = _TYPES.get(tag)
        if entry is None:
            raise WireError(f"unknown wire tag {tag!r}")
        _, _, rebuild = entry
        return rebuild([decode(field) for field in value["f"]])
    raise WireError(f"untagged mapping on the wire: {value!r}")


# -- trace envelopes --------------------------------------------------------------
#
# A trace context rides the *frame envelope* (next to "id"/"method"), not the
# wire-encoded params, as a compact ["trace_id", "span_id"] pair: both codecs
# pass plain string lists through untouched and untraced requests pay nothing.

#: Envelope key carrying the caller's trace context in request messages.
TRACE_KEY = "tr"


def encode_trace(ctx: TraceContext) -> List[str]:
    """Flatten a trace context for a frame envelope."""
    trace_id, span_id = ctx.to_wire()
    return [trace_id, span_id]


def decode_trace(value: Any) -> "TraceContext | None":
    """Rebuild an envelope trace context; malformed values decode to None."""
    if value is None:
        return None
    return TraceContext.from_wire(value)


def _decode_exception(value: Dict[str, Any]) -> BaseException:
    cls = _EXCEPTIONS.get(value.get("cls", ""))
    args = [decode(arg) for arg in value.get("args", [])]
    if cls is not None:
        try:
            return cls(*args)
        except TypeError:
            pass  # constructor signature drifted; fall through to the text
    return errors.ServiceError(f"{value.get('cls', 'RemoteError')}: {value.get('msg', '')}")
