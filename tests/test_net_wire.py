"""Wire-format tests for the networked service mode (:mod:`repro.net`).

Frame layer: length-prefixed encode/decode, torn-frame reassembly,
payload bytes carried raw (on every codec installed), the wire size of a
64 KiB chunk frame, protocol violations.  Value layer: every protocol
dataclass round-trips through :func:`repro.net.wire.encode` / ``decode`` compare-equal, bytes
and non-string-keyed dicts survive, and exceptions are rebuilt by class
(unknown classes degrade to ``ServiceError`` without losing the text).
"""

from __future__ import annotations

import os
import struct

import pytest

from repro.core import BlobSeerConfig, errors
from repro.core.metadata.segment_tree import WriteRecord
from repro.core.metadata.tree_node import Fragment, InnerNode, LeafNode
from repro.core.types import (
    BlobInfo,
    ChunkDescriptor,
    ChunkKey,
    NodeKey,
    SnapshotInfo,
    WritePlan,
    WriteTicket,
)
from repro.net.frames import (
    HAVE_MSGPACK,
    MAX_FRAME_BYTES,
    FrameDecoder,
    FrameError,
    encode_frame,
)
from repro.net import wire
from repro.net.server import RpcServer, provider_handlers
from repro.obs.trace import TraceContext

CODECS = ["json"] + (["msgpack"] if HAVE_MSGPACK else [])
CHUNK = 64 * 1024


def json_frame(header: bytes, segments: bytes = b"") -> bytes:
    """A hand-built JSON frame: length, codec tag, header length, header, segments."""
    body = b"J" + struct.pack(">I", len(header)) + header + segments
    return struct.pack(">I", len(body)) + body


class TestFrames:
    def test_round_trip_one_frame(self):
        message = {"id": 7, "method": "ping", "params": {}}
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(message)) == [message]
        assert decoder.pending_bytes == 0

    def test_torn_frames_fed_byte_by_byte(self):
        messages = [{"id": i, "result": "x" * i} for i in range(5)]
        stream = b"".join(encode_frame(m) for m in messages)
        decoder = FrameDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i : i + 1]))
        assert out == messages
        assert decoder.pending_bytes == 0

    def test_many_frames_in_one_feed(self):
        messages = [{"id": i} for i in range(10)]
        stream = b"".join(encode_frame(m) for m in messages)
        # Tail of the stream is a torn frame: withhold its last byte.
        decoder = FrameDecoder()
        assert decoder.feed(stream[:-1]) == messages[:-1]
        assert decoder.pending_bytes > 0
        assert decoder.feed(stream[-1:]) == messages[-1:]

    def test_oversized_length_prefix_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(FrameError):
            decoder.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))

    def test_unknown_codec_tag_rejected(self):
        body = b"X" + struct.pack(">I", 2) + b"{}"
        with pytest.raises(FrameError):
            FrameDecoder().feed(struct.pack(">I", len(body)) + body)

    def test_length_shorter_than_the_frame_head_rejected(self):
        body = b"J" + b"{}"
        with pytest.raises(FrameError):
            FrameDecoder().feed(struct.pack(">I", len(body)) + body)

    def test_unknown_codec_name_rejected(self):
        with pytest.raises(FrameError):
            encode_frame({}, codec="pickle")

    def test_msgpack_gated_when_absent(self):
        if HAVE_MSGPACK:
            message = {"id": 1, "params": {"k": [1, 2, 3]}}
            assert FrameDecoder().feed(encode_frame(message, codec="msgpack")) == [
                message
            ]
        else:
            with pytest.raises(FrameError):
                encode_frame({}, codec="msgpack")


class TestPayloadSegments:
    @pytest.mark.parametrize("codec", CODECS)
    def test_two_segments_torn_mid_segment_fed_byte_by_byte(self, codec):
        first, second = os.urandom(300), bytes(range(256)) * 2
        message = {"id": 3, "params": wire.encode({"a": first, "b": [1, second]})}
        stream = encode_frame(message, codec=codec) + encode_frame({"id": 4}, codec=codec)
        decoder = FrameDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i : i + 1]))
        assert out == [message, {"id": 4}]
        assert wire.decode(out[0]["params"]) == {"a": first, "b": [1, second]}
        assert decoder.pending_bytes == 0

    @pytest.mark.parametrize("codec", CODECS)
    def test_empty_bytes_value(self, codec):
        message = {"id": 1, "result": b""}
        assert FrameDecoder().feed(encode_frame(message, codec=codec)) == [message]

    @pytest.mark.parametrize("codec", CODECS)
    def test_bytes_nested_in_a_map_keyed_by_node_key(self, codec):
        mapping = {
            NodeKey(blob_id=1, version=1, offset=0, size=64): b"\x00" * 64,
            NodeKey(blob_id=1, version=2, offset=64, size=64): bytearray(b"\xff" * 64),
            NodeKey(blob_id=1, version=3, offset=128, size=64): memoryview(b"abc"),
        }
        frame = encode_frame({"id": 2, "result": wire.encode(mapping)}, codec=codec)
        [message] = FrameDecoder().feed(frame)
        decoded = wire.decode(message["result"])
        assert decoded == {key: bytes(value) for key, value in mapping.items()}
        assert all(type(value) is bytes for value in decoded.values())

    @pytest.mark.parametrize("codec", CODECS)
    def test_64k_chunk_frames_carry_the_payload_raw(self, codec):
        # Built exactly as RpcClient.submit and RpcServer._handle build them,
        # trace envelope included; the server is the real provider role.
        server = RpcServer(provider_handlers(0, BlobSeerConfig()), codec=codec)
        key, data = ChunkKey(blob_id=1, write_id=1, offset=0), os.urandom(CHUNK)
        trace = list(TraceContext.root().to_wire())
        put = encode_frame(
            {
                "id": 1,
                "method": "put_chunk",
                "params": wire.encode({"key": key, "data": data}),
                wire.TRACE_KEY: trace,
            },
            codec=codec,
        )
        [request] = FrameDecoder().feed(put)
        assert "error" not in server._handle(request)
        get = {"id": 2, "method": "get_chunk", "params": wire.encode({"key": key})}
        [request] = FrameDecoder().feed(encode_frame(get, codec=codec))
        response = encode_frame(server._handle(request), codec=codec)
        assert len(put) <= CHUNK + 256
        assert len(response) <= CHUNK + 256
        [reply] = FrameDecoder().feed(response)
        assert wire.decode(reply["result"]) == data


class TestMalformedSegments:
    @pytest.mark.parametrize(
        "header, segments",
        [
            (b'{"id":1,"result":{"__s":[2,4]}}', b"abcd"),  # past the frame's end
            (b'{"id":1,"result":{"__s":[0,-1]}}', b"abcd"),  # negative length
            (b'{"id":1,"result":{"__s":[-1,2]}}', b"abcd"),  # negative offset
            (b'{"id":1,"result":{"__s":[0,4]}}', b""),  # placeholder, no segment
            (b'{"id":1,"result":{"__s":"abcd"}}', b"abcd"),  # not an (offset, length)
            (b'{"id":1,"result":{"__s":[0]}}', b"abcd"),
            (b'{"id":1,"result":"abcd"}', b"abcd"),  # segment, no placeholder
        ],
    )
    def test_bad_segment_reference_raises(self, header, segments):
        with pytest.raises(FrameError):
            FrameDecoder().feed(json_frame(header, segments))

    def test_header_length_past_the_frame_raises(self):
        body = b"J" + struct.pack(">I", 99) + b"{}"
        with pytest.raises(FrameError):
            FrameDecoder().feed(struct.pack(">I", len(body)) + body)

    def test_well_formed_hand_built_frame_decodes(self):
        frame = json_frame(b'{"id":1,"result":{"__s":[1,2]}}', b"abcd")
        assert FrameDecoder().feed(frame) == [{"id": 1, "result": b"bc"}]


def round_trip(value):
    return wire.decode(wire.encode(value))


class TestWireValues:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            42,
            3.5,
            "text",
            b"\x00\xffbinary",
            [1, "two", b"three"],
            ChunkKey(blob_id=1, write_id=2, offset=3),
            NodeKey(blob_id=1, version=2, offset=0, size=4096),
            WriteTicket(
                blob_id=1,
                version=2,
                offset=128,
                size=64,
                is_append=True,
                new_blob_size=192,
                base_blob_size=128,
            ),
            SnapshotInfo(
                blob_id=1,
                version=2,
                size=256,
                chunk_size=64,
                root=NodeKey(blob_id=1, version=2, offset=0, size=256),
            ),
            BlobInfo(blob_id=9, chunk_size=64, replication=2),
            WritePlan(
                blob_id=1,
                chunk_size=64,
                placements=((0, ("provider-000", "provider-001")), (64, ("provider-002",))),
            ),
            WriteRecord(version=3, offset=0, size=64, new_size=128),
        ],
    )
    def test_value_round_trips_equal(self, value):
        assert round_trip(value) == value

    def test_tuples_come_back_as_lists_at_top_level(self):
        # Sequence identity is not preserved (JSON has one list type), but
        # tuple-typed *fields* of rebuilt dataclasses are re-tupled.
        assert round_trip((1, 2)) == [1, 2]
        plan = WritePlan(blob_id=1, chunk_size=64, placements=((0, ("p",)),))
        rebuilt = round_trip(plan)
        assert isinstance(rebuilt.placements, tuple)
        assert isinstance(rebuilt.placements[0][1], tuple)

    def test_metadata_tree_nodes_round_trip(self):
        key = NodeKey(blob_id=1, version=1, offset=0, size=128)
        leaf = LeafNode(
            key=key,
            fragments=(
                Fragment(
                    key=ChunkKey(blob_id=1, write_id=7, offset=0),
                    providers=("provider-000",),
                    blob_offset=0,
                    length=64,
                    chunk_offset=0,
                ),
            ),
        )
        inner = InnerNode(
            key=NodeKey(blob_id=1, version=1, offset=0, size=256),
            left=key,
            right=NodeKey(blob_id=1, version=1, offset=128, size=128),
        )
        assert round_trip(leaf) == leaf
        assert round_trip(inner) == inner

    def test_dicts_keyed_by_dataclasses_round_trip(self):
        key = NodeKey(blob_id=1, version=1, offset=0, size=64)
        mapping = {key: b"payload", 3: "value"}
        assert round_trip(mapping) == mapping

    def test_unencodable_value_raises(self):
        with pytest.raises(wire.WireError):
            wire.encode(object())

    def test_untagged_mapping_raises(self):
        with pytest.raises(wire.WireError):
            wire.decode({"no": "tag"})

    def test_unknown_tag_raises(self):
        with pytest.raises(wire.WireError):
            wire.decode({"__t": "Mystery", "f": []})


class TestWireExceptions:
    def test_registered_exception_rebuilt_by_class(self):
        rebuilt = round_trip(errors.BlobNotFoundError("blob 7 does not exist"))
        assert isinstance(rebuilt, errors.BlobNotFoundError)
        assert "blob 7" in str(rebuilt)

    def test_decoded_exception_is_returned_not_raised(self):
        value = round_trip([1, errors.ServiceError("nested"), 3])
        assert value[0] == 1 and value[2] == 3
        assert isinstance(value[1], errors.ServiceError)

    def test_epoch_retry_error_keeps_epoch(self):
        rebuilt = round_trip(errors.EpochRetryError("re-route", epoch=17))
        assert isinstance(rebuilt, errors.EpochRetryError)
        assert rebuilt.epoch == 17

    def test_unknown_exception_degrades_to_service_error(self):
        class Exotic(Exception):
            pass

        rebuilt = round_trip(Exotic("server-side detail"))
        assert isinstance(rebuilt, errors.ServiceError)
        assert "Exotic" in str(rebuilt)
        assert "server-side detail" in str(rebuilt)

    def test_stdlib_exceptions_round_trip(self):
        assert isinstance(round_trip(ValueError("bad")), ValueError)
        assert isinstance(round_trip(KeyError("missing")), KeyError)
