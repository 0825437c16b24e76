"""Tests for frames, signals and the catalogue."""

import pytest

from repro.network import FrameCatalog, FrameError, FrameSpec, Message, SignalSpec


class TestSignalSpec:
    def test_encode_decode_roundtrip(self):
        sig = SignalSpec("speed", 0, 16, scale=0.01)
        raw = sig.encode(123.45)
        assert sig.decode(raw) == pytest.approx(123.45, abs=0.01)

    def test_offset(self):
        sig = SignalSpec("temp", 0, 8, scale=1.0, offset=-40.0)
        assert sig.decode(sig.encode(25.0)) == pytest.approx(25.0)

    def test_clamping_high(self):
        sig = SignalSpec("v", 0, 8, scale=1.0)
        assert sig.encode(10_000) == 255

    def test_clamping_low(self):
        sig = SignalSpec("v", 0, 8, scale=1.0)
        assert sig.encode(-5) == 0

    def test_explicit_min_max(self):
        sig = SignalSpec("v", 0, 16, scale=0.1, minimum=0.0, maximum=100.0)
        assert sig.decode(sig.encode(500.0)) == pytest.approx(100.0)

    def test_invalid_bit_length(self):
        with pytest.raises(FrameError):
            SignalSpec("v", 0, 0)
        with pytest.raises(FrameError):
            SignalSpec("v", 0, 65)

    def test_zero_scale_rejected(self):
        with pytest.raises(FrameError):
            SignalSpec("v", 0, 8, scale=0.0)


class TestFrameSpec:
    def test_pack_unpack_roundtrip(self):
        frame = FrameSpec("F", 0x100)
        frame.add_signal(SignalSpec("a", 0, 16, scale=0.01))
        frame.add_signal(SignalSpec("b", 16, 8, scale=1.0, offset=-40))
        payload = frame.pack({"a": 55.5, "b": 21.0})
        values = frame.unpack(payload)
        assert values["a"] == pytest.approx(55.5, abs=0.01)
        assert values["b"] == pytest.approx(21.0)

    def test_missing_signal_defaults_to_offset(self):
        frame = FrameSpec("F", 1)
        frame.add_signal(SignalSpec("x", 0, 8, scale=1.0, offset=-40))
        values = frame.unpack(frame.pack({}))
        assert values["x"] == pytest.approx(-40.0)

    def test_overlap_rejected(self):
        frame = FrameSpec("F", 1)
        frame.add_signal(SignalSpec("a", 0, 16))
        with pytest.raises(FrameError):
            frame.add_signal(SignalSpec("b", 8, 16))

    def test_overflow_rejected(self):
        frame = FrameSpec("F", 1, length_bytes=2)
        with pytest.raises(FrameError):
            frame.add_signal(SignalSpec("a", 8, 16))

    def test_duplicate_signal_rejected(self):
        frame = FrameSpec("F", 1)
        frame.add_signal(SignalSpec("a", 0, 8))
        with pytest.raises(FrameError):
            frame.add_signal(SignalSpec("a", 8, 8))

    def test_wrong_payload_length(self):
        frame = FrameSpec("F", 1)
        with pytest.raises(FrameError):
            frame.unpack(b"\x00")

    def test_adjacent_signals_do_not_interfere(self):
        frame = FrameSpec("F", 1)
        frame.add_signal(SignalSpec("a", 0, 4))
        frame.add_signal(SignalSpec("b", 4, 4))
        values = frame.unpack(frame.pack({"a": 15, "b": 1}))
        assert values["a"] == 15 and values["b"] == 1


class TestMessage:
    def test_values_and_value(self):
        frame = FrameSpec("F", 1)
        frame.add_signal(SignalSpec("a", 0, 8))
        msg = Message(spec=frame, payload=frame.pack({"a": 7}), timestamp=5)
        assert msg.values()["a"] == 7
        assert msg.frame_id == 1


class TestCatalog:
    def test_define_and_lookup(self):
        catalog = FrameCatalog()
        catalog.define("F", 0x10, [("a", 0, 8, 1.0, 0.0)])
        assert catalog.by_name("F").frame_id == 0x10

    def test_duplicate_name_rejected(self):
        catalog = FrameCatalog()
        catalog.define("F", 1, [])
        with pytest.raises(FrameError):
            catalog.define("F", 2, [])

    def test_duplicate_id_rejected(self):
        catalog = FrameCatalog()
        catalog.define("F", 1, [])
        with pytest.raises(FrameError):
            catalog.define("G", 1, [])

    def test_unknown_lookups(self):
        catalog = FrameCatalog()
        with pytest.raises(FrameError):
            catalog.by_name("F")
