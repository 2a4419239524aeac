"""Length-prefixed message framing for the networked service mode.

A frame on the wire is::

    4 bytes   frame length N, big endian (everything below)
    1 byte    codec tag: b"J" (JSON) or b"M" (msgpack)
    4 bytes   header length H, big endian
    H bytes   header: the codec-encoded message
    N-5-H     raw payload segments, back to back

Messages are plain dicts — requests ``{"id", "method", "params"}`` and
responses ``{"id", "result"}`` / ``{"id", "error"}`` — pre-flattened by
:mod:`repro.net.wire` to JSON-compatible values plus ``bytes``.  On JSON,
:func:`encode_frame` detaches every ``bytes``/``bytearray``/``memoryview``
into a raw segment, leaving a ``{"__s": [offset, length]}`` placeholder
in the header, and :class:`FrameDecoder` puts the bytes back; msgpack
carries bytes natively (``bin``), so its frames have no segments.  The
request id is what buys pipelining: responses may return out of order on
one connection and the id matches them up.

msgpack is optional (not vendored): frames default to JSON.
:class:`FrameDecoder` is incremental — feed it whatever the socket
returned, frames torn anywhere included, and it yields each message
exactly once when its last byte arrives.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List

try:  # pragma: no cover - exercised only where msgpack is installed
    import msgpack  # type: ignore

    HAVE_MSGPACK = True
except ImportError:  # pragma: no cover - the common case in this tree
    msgpack = None
    HAVE_MSGPACK = False

#: Codec tags (the first byte after the length prefix).
CODEC_JSON = b"J"
CODEC_MSGPACK = b"M"

#: Refuse frames above this size — a corrupted length prefix must not make
#: the decoder try to buffer gigabytes (any chunk the tests and benchmarks
#: move fits, its bytes carried raw).
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Header key of a segment placeholder; ``wire`` tags use ``__t``.
SEGMENT_TAG = "__s"
#: How every JSON placeholder starts: frames without it skip the resolver.
_PLACEHOLDER = '{"%s":' % SEGMENT_TAG

#: The length prefix alone, and the whole fixed head (length, tag, header length).
_LENGTH = struct.Struct(">I")
_HEAD = struct.Struct(">IcI")


class FrameError(ValueError):
    """A frame violated the protocol (bad tag or length, a stray segment)."""


def encode_frame(message: Dict[str, Any], codec: str = "json") -> bytes:
    """Serialise one message dict into a length-prefixed frame."""
    segments: List[memoryview] = []
    size = 0
    if codec == "json":
        def detach(value: Any) -> Dict[str, List[int]]:
            nonlocal size
            if not isinstance(value, (bytes, bytearray, memoryview)):
                raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
            segment = memoryview(value)
            segments.append(segment)
            size += segment.nbytes
            return {SEGMENT_TAG: [size - segment.nbytes, segment.nbytes]}

        tag = CODEC_JSON
        header = json.dumps(message, separators=(",", ":"), default=detach).encode("utf-8")
    elif codec == "msgpack":
        if not HAVE_MSGPACK:
            raise FrameError("msgpack codec requested but msgpack is not installed")
        tag, header = CODEC_MSGPACK, msgpack.packb(message, use_bin_type=True)
    else:
        raise FrameError(f"unknown frame codec {codec!r}")
    head = _HEAD.pack(_HEAD.size - _LENGTH.size + len(header) + size, tag, len(header))
    return b"".join([head, header, *segments])


def _decode(buffer: bytearray, start: int, end: int) -> Dict[str, Any]:
    """Decode the frame ``buffer[start:end]``, putting its segments back."""
    _, tag, header_size = _HEAD.unpack_from(buffer, start)
    segments_start = start + _HEAD.size + header_size
    if segments_start > end:
        raise FrameError("frame header runs past the frame's end")
    header = buffer[start + _HEAD.size : segments_start]
    if tag == CODEC_JSON:
        text = header.decode("utf-8")
        if _PLACEHOLDER in text:
            # This view must die with the call: ``feed`` then trims the
            # buffer, and a bytearray cannot resize while a view exports it.
            area = memoryview(buffer)[segments_start:end]
            return json.loads(text, object_hook=lambda obj: _attach(obj, area))
    if segments_start < end:
        raise FrameError(f"{end - segments_start} segment bytes but no placeholder")
    if tag == CODEC_JSON:
        return json.loads(text)
    if tag == CODEC_MSGPACK:
        if not HAVE_MSGPACK:
            raise FrameError("received a msgpack frame but msgpack is not installed")
        return msgpack.unpackb(bytes(header), raw=False)
    raise FrameError(f"unknown frame codec tag {tag!r}")


def _attach(obj: Dict[str, Any], area: memoryview) -> Any:
    """``object_hook``: swap a segment placeholder for its bytes."""
    ref = obj.get(SEGMENT_TAG)
    if ref is None:
        return obj
    try:
        offset, length = ref
        if offset < 0 or length < 0 or offset + length > len(area):
            raise ValueError
        return area[offset : offset + length].tobytes()
    except (TypeError, ValueError):
        raise FrameError(f"placeholder {ref!r} names no segment in {len(area)} bytes") from None


class FrameDecoder:
    """Incremental frame parser over a byte stream.

    ``feed()`` accepts arbitrary slices of the stream — a read may return
    half a header, three frames and the first byte of a fourth — and
    returns the messages completed by that slice, in stream order.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        buffer = self._buffer
        buffer.extend(data)
        messages: List[Dict[str, Any]] = []
        done = 0
        while len(buffer) - done >= _LENGTH.size:
            (length,) = _LENGTH.unpack_from(buffer, done)
            if not _HEAD.size - _LENGTH.size <= length <= MAX_FRAME_BYTES:
                raise FrameError(f"frame length {length} is out of range")
            end = done + _LENGTH.size + length
            if len(buffer) < end:
                break
            messages.append(_decode(buffer, done, end))
            done = end
        del buffer[:done]
        return messages

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting the rest of their frame."""
        return len(self._buffer)
