"""Tests for structured telemetry events and sinks."""

import json

import pytest

from repro.telemetry import (
    EVENT_SCHEMA_VERSION,
    InMemorySink,
    JsonlFileSink,
    KIND_DETECTION,
    KIND_TASK_FAULT,
    NULL_SINK,
    NullSink,
    TelemetryEvent,
    read_jsonl,
)


def make_event(time=100, kind=KIND_DETECTION, subject="R",
               data=None):
    return TelemetryEvent(time=time, kind=kind, subject=subject,
                          data=data or {"error_type": "aliveness"})


class TestTelemetryEvent:
    def test_schema_version_stamped(self):
        assert make_event().schema == EVENT_SCHEMA_VERSION

    def test_jsonl_round_trip(self):
        event = make_event(data={"a": 1, "nested": {"b": [1, 2]}})
        line = event.to_jsonl()
        assert "\n" not in line
        assert TelemetryEvent.from_jsonl(line) == event

    def test_jsonl_is_key_sorted(self):
        payload = json.loads(make_event().to_jsonl())
        assert list(payload) == sorted(payload)

    def test_from_dict_defaults(self):
        event = TelemetryEvent.from_dict(
            {"time": 5, "kind": "custom", "subject": "x"}
        )
        assert event.data == {}
        assert event.schema == EVENT_SCHEMA_VERSION

    def test_from_dict_preserves_foreign_schema(self):
        event = TelemetryEvent.from_dict(
            {"time": 5, "kind": "custom", "subject": "x", "schema": 99}
        )
        assert event.schema == 99


class TestNullSink:
    def test_disabled_and_silent(self):
        sink = NullSink()
        assert sink.enabled is False
        sink.emit(make_event())  # swallowed, no error
        assert NULL_SINK.enabled is False


class TestInMemorySink:
    def test_collects_in_order(self):
        sink = InMemorySink()
        assert sink.enabled is True
        first = make_event(time=1)
        second = make_event(time=2, kind=KIND_TASK_FAULT, subject="T")
        sink.emit(first)
        sink.emit(second)
        assert sink.events == [first, second]

    def test_filter_by_kind_and_subject(self):
        sink = InMemorySink()
        sink.emit(make_event(subject="A"))
        sink.emit(make_event(subject="B"))
        sink.emit(make_event(kind=KIND_TASK_FAULT, subject="A"))
        assert len(sink.filter(kind=KIND_DETECTION)) == 2
        assert len(sink.filter(subject="A")) == 2
        assert len(sink.filter(kind=KIND_DETECTION, subject="A")) == 1


class TestJsonlFileSink:
    def test_writes_one_line_per_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = [make_event(time=t) for t in (1, 2, 3)]
        sink = JsonlFileSink(str(path))
        for event in events:
            sink.emit(event)
        assert sink.emitted == 3
        sink.close()
        assert read_jsonl(path.read_text().splitlines()) == events

    def test_append_mode_extends_stream(self, tmp_path):
        path = tmp_path / "events.jsonl"
        for time, mode in ((1, "w"), (2, "a")):
            sink = JsonlFileSink(str(path), mode=mode)
            sink.emit(make_event(time=time))
            sink.close()
        times = [e.time for e in read_jsonl(path.read_text().splitlines())]
        assert times == [1, 2]

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlFileSink(str(tmp_path / "e.jsonl"))
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(ValueError):
            sink.emit(make_event())

    def test_invalid_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlFileSink(str(tmp_path / "e.jsonl"), mode="r")

    def test_flush_every_makes_lines_durable(self, tmp_path):
        # With flush_every=2 the file must contain flushed lines while
        # the sink is still open (a killed daemon loses at most the
        # unflushed tail).
        path = tmp_path / "e.jsonl"
        sink = JsonlFileSink(str(path), flush_every=2)
        sink.emit(make_event(time=1))
        sink.emit(make_event(time=2))
        on_disk = path.read_text().splitlines()
        assert len(on_disk) == 2
        sink.emit(make_event(time=3))  # buffered, below the next flush
        sink.close()
        assert len(path.read_text().splitlines()) == 3

    def test_explicit_flush(self, tmp_path):
        path = tmp_path / "e.jsonl"
        sink = JsonlFileSink(str(path))  # default: no periodic flushing
        sink.emit(make_event(time=1))
        sink.flush()
        assert len(path.read_text().splitlines()) == 1
        sink.close()
        sink.flush()  # no-op once closed

    def test_flush_every_validated(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlFileSink(str(tmp_path / "e.jsonl"), flush_every=0)


class TestReadJsonl:
    def test_blank_lines_skipped(self):
        line = make_event().to_jsonl()
        parsed = read_jsonl(["", line, "   ", line, ""])
        assert len(parsed) == 2

    def test_trailing_partial_line_tolerated(self):
        # A crash-truncated stream: the last line was cut mid-write.
        lines = [make_event(time=t).to_jsonl() for t in (1, 2)]
        truncated = make_event(time=3).to_jsonl()[:17]
        parsed = read_jsonl(lines + [truncated])
        assert [e.time for e in parsed] == [1, 2]

    def test_trailing_blank_after_partial_still_tolerated(self):
        lines = [make_event(time=1).to_jsonl(), '{"tru', "", "   "]
        assert [e.time for e in read_jsonl(lines)] == [1]

    def test_mid_stream_corruption_still_raises(self):
        # A malformed line *followed by more records* is corruption,
        # not truncation.
        good = make_event().to_jsonl()
        with pytest.raises(json.JSONDecodeError):
            read_jsonl([good, "not json", good])

    def test_strict_raises_on_trailing_partial(self):
        good = make_event().to_jsonl()
        with pytest.raises(json.JSONDecodeError):
            read_jsonl([good, "not json"], strict=True)

    def test_missing_field_counts_as_partial(self):
        # Truncation can also cut inside the JSON object, leaving
        # valid JSON that is not a valid event record.
        assert read_jsonl(['{"schema": 1, "time": 3}']) == []
        with pytest.raises(KeyError):
            read_jsonl(['{"schema": 1, "time": 3}'], strict=True)
