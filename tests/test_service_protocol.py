"""Wire-protocol framing: encode/decode, resync, version discipline."""

import json
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.service.protocol import (
    FatalProtocolError,
    Frame,
    FrameDecoder,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    REQUEST_TYPES,
    SERVER_TYPES,
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
        assert len(decoder._buffer) == 0

    def test_partial_frame_stays_pending(self):
        raw = encode_frame(T_HELLO, client="a")
        decoder = FrameDecoder()
        assert decoder.feed(raw[:-1]) == []
        assert len(decoder._buffer) == len(raw) - 1
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


# --- decoder fuzz ------------------------------------------------------

HEADER = struct.Struct("!I")

#: JSON values a frame field may carry.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)

frames = st.builds(
    Frame,
    type=st.sampled_from(REQUEST_TYPES + SERVER_TYPES),
    data=st.dictionaries(
        st.text(max_size=6).filter(lambda key: key not in ("v", "type")),
        json_values, max_size=4))


def framed(body: bytes) -> bytes:
    return HEADER.pack(len(body)) + body


def body_of(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


#: The body of one frame the decoder must reject, recoverably.
malformed_bodies = st.one_of(
    # corrupt: not UTF-8, not JSON, a JSON text cut short
    st.binary(min_size=1, max_size=16).map(lambda raw: b"\xff" + raw),
    st.text(max_size=16).map(lambda text: b"{" + text.encode("utf-8")),
    frames.map(lambda f: encode_frame(f.type, **f.data)[4:-1]),
    # ill-typed: not an object, or a bad version or type field
    json_values.filter(lambda value: not isinstance(value, dict))
    .map(body_of),
    st.sampled_from([None, True, 1.0, "1", 2, [1], {"v": 1}]).map(
        lambda v: body_of({"v": v, "type": T_HELLO})),
    st.sampled_from([None, 1, "PING", [T_HELLO], {"t": 1}]).map(
        lambda t: body_of({"v": PROTOCOL_VERSION, "type": t})),
    # nested past the parser's recursion limit, under MAX_FRAME_BYTES
    st.integers(2_000, 60_000).flatmap(lambda depth: st.sampled_from(
        [b"[" * depth, b'{"a":' * depth,
         b'{"v":1,"type":"HELLO","x":' + b"[" * depth])),
)


def feed_split(decoder, stream, cuts):
    """Feed ``stream`` in chunks cut at ``cuts``; every item, in order.
    The buffer never holds more than one header and one frame."""
    items = []
    bounds = sorted({0, len(stream), *(c % (len(stream) + 1) for c in cuts)})
    for start, end in zip(bounds, bounds[1:]):
        items.extend(decoder.feed(stream[start:end]))
        assert len(decoder._buffer) <= HEADER.size + MAX_FRAME_BYTES
    return items


class TestDecoderFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(frames, max_size=6),
           st.lists(st.integers(0, 1 << 16), max_size=12))
    def test_any_chunk_split_decodes_the_same_frames(self, sent, cuts):
        stream = b"".join(encode_frame(f.type, **f.data) for f in sent)
        decoder = FrameDecoder()
        assert feed_split(decoder, stream, cuts) == sent
        assert len(decoder._buffer) == 0

    @settings(max_examples=150, deadline=None)
    @given(st.lists(malformed_bodies, min_size=1, max_size=3), frames,
           st.lists(st.integers(0, 1 << 18), max_size=8))
    @example([b"[" * 50_000], Frame(T_HELLO, {"client": "after"}), [])
    def test_each_malformed_body_is_one_recoverable_error(self, bodies,
                                                          after, cuts):
        stream = b"".join(framed(body) for body in bodies)
        stream += encode_frame(after.type, **after.data)
        decoder = FrameDecoder()
        items = feed_split(decoder, stream, cuts)
        assert len(items) == len(bodies) + 1
        assert all(type(item) is ProtocolError for item in items[:-1])
        assert items[-1] == after
        assert decoder.frames_rejected == len(bodies)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(frames, max_size=3),
           st.integers(MAX_FRAME_BYTES + 1, (1 << 32) - 1),
           st.binary(max_size=8))
    def test_only_an_oversized_header_is_fatal(self, before, length, tail):
        stream = b"".join(encode_frame(f.type, **f.data) for f in before)
        with pytest.raises(FatalProtocolError) as raised:
            FrameDecoder().feed(stream + HEADER.pack(length) + tail)
        assert raised.value.frames == before
