"""Wire-protocol framing: encode/decode, resync, version discipline."""

import json
import struct

import pytest

from repro.service.protocol import (
    FatalProtocolError,
    Frame,
    FrameDecoder,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    T_ACK,
    T_BYE,
    T_HEARTBEAT,
    T_HELLO,
    encode_frame,
)


def decode_all(payload: bytes):
    return FrameDecoder().feed(payload)


class TestEncoding:
    def test_roundtrip(self):
        raw = encode_frame(T_HELLO, client="glue")
        (frame,) = decode_all(raw)
        assert isinstance(frame, Frame)
        assert frame.type == T_HELLO
        assert frame.data == {"client": "glue"}
        assert frame.version == PROTOCOL_VERSION

    def test_length_prefix_is_payload_length(self):
        raw = encode_frame(T_ACK, ok=True)
        (length,) = struct.unpack("!I", raw[:4])
        assert length == len(raw) - 4

    def test_version_stamped_into_payload(self):
        raw = encode_frame(T_ACK, ok=True)
        payload = json.loads(raw[4:])
        assert payload["v"] == PROTOCOL_VERSION
        assert payload["type"] == T_ACK

    def test_oversized_frame_rejected_at_encode(self):
        with pytest.raises(ProtocolError):
            encode_frame(T_HEARTBEAT, blob="x" * (MAX_FRAME_BYTES + 1))


class TestDecoder:
    def test_multiple_frames_one_chunk(self):
        raw = encode_frame(T_HELLO, client="a") + encode_frame(T_ACK, ok=True)
        frames = decode_all(raw)
        assert [f.type for f in frames] == [T_HELLO, T_ACK]

    def test_byte_by_byte_feeding(self):
        raw = encode_frame(T_HEARTBEAT, name="p", batch=[["r", 1, None]])
        decoder = FrameDecoder()
        collected = []
        for i in range(len(raw)):
            collected.extend(decoder.feed(raw[i:i + 1]))
        assert len(collected) == 1
        assert collected[0].data["batch"] == [["r", 1, None]]
        assert decoder.pending_bytes() == 0

    def test_partial_frame_stays_pending(self):
        raw = encode_frame(T_HELLO, client="a")
        decoder = FrameDecoder()
        assert decoder.feed(raw[:-1]) == []
        assert decoder.pending_bytes() == len(raw) - 1
        (frame,) = decoder.feed(raw[-1:])
        assert frame.type == T_HELLO

    def _frame_with_body(self, body: bytes) -> bytes:
        return struct.pack("!I", len(body)) + body

    def test_malformed_json_rejected_without_killing_stream(self):
        bad = self._frame_with_body(b"{not json")
        good = encode_frame(T_ACK, ok=True)
        items = decode_all(bad + good)
        assert isinstance(items[0], ProtocolError)
        assert isinstance(items[1], Frame) and items[1].type == T_ACK

    def test_non_object_payload_rejected(self):
        bad = self._frame_with_body(b"[1, 2]")
        (item,) = decode_all(bad)
        assert isinstance(item, ProtocolError)
        assert "object" in str(item)

    def test_unknown_type_rejected(self):
        body = json.dumps({"v": PROTOCOL_VERSION, "type": "NOPE"}).encode()
        (item,) = decode_all(self._frame_with_body(body))
        assert isinstance(item, ProtocolError)
        assert "NOPE" in str(item)

    def test_wrong_version_rejected(self):
        body = json.dumps({"v": 99, "type": T_HELLO}).encode()
        (item,) = decode_all(self._frame_with_body(body))
        assert isinstance(item, ProtocolError)
        assert "version" in str(item)

    def test_missing_version_rejected(self):
        body = json.dumps({"type": T_HELLO}).encode()
        (item,) = decode_all(self._frame_with_body(body))
        assert isinstance(item, ProtocolError)

    def test_rejection_counters(self):
        decoder = FrameDecoder()
        decoder.feed(self._frame_with_body(b"?") + encode_frame(T_ACK, ok=True))
        assert decoder.frames_rejected == 1
        assert decoder.frames_decoded == 1

    def test_corrupt_length_header_is_fatal(self):
        decoder = FrameDecoder()
        with pytest.raises(FatalProtocolError):
            decoder.feed(struct.pack("!I", MAX_FRAME_BYTES + 1) + b"xxxx")

    def test_frames_before_corrupt_header_are_delivered(self):
        """A corrupt header must not swallow the well-framed frames that
        preceded it in the same chunk (a BYE there is a real goodbye)."""
        decoder = FrameDecoder()
        raw = (encode_frame(T_HELLO, client="a") + encode_frame(T_BYE)
               + struct.pack("!I", MAX_FRAME_BYTES + 1) + b"xxxx")
        with pytest.raises(FatalProtocolError) as info:
            decoder.feed(raw)
        assert [f.type for f in info.value.frames] == [T_HELLO, T_BYE]
        assert decoder.frames_decoded == 2

    def test_fatal_error_without_preceding_frames_carries_none(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame(T_HELLO, client="a"))
        with pytest.raises(FatalProtocolError) as info:
            decoder.feed(struct.pack("!I", MAX_FRAME_BYTES + 1))
        assert info.value.frames == []

    def test_custom_frame_limit(self):
        decoder = FrameDecoder(max_frame_bytes=8)
        with pytest.raises(FatalProtocolError):
            decoder.feed(encode_frame(T_HELLO, client="long-name-here"))

    def test_unicode_payload_roundtrip(self):
        raw = encode_frame(T_HELLO, client="prüfstand-β")
        (frame,) = decode_all(raw)
        assert frame.data["client"] == "prüfstand-β"
