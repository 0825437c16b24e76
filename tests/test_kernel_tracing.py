"""Tests for the tracing subsystem."""

from repro.kernel import Trace, TraceKind, TraceRecord


def rec(time, kind=TraceKind.CUSTOM, subject="s", **info):
    return TraceRecord(time=time, kind=kind, subject=subject, info=info)


class TestTraceBasics:
    def test_emit_and_len(self):
        trace = Trace()
        trace.emit(rec(1))
        trace.emit(rec(2))
        assert len(trace) == 2

    def test_record_convenience(self):
        trace = Trace()
        trace.record(5, TraceKind.HEARTBEAT, "R1", task="T")
        assert trace[0].time == 5
        assert trace[0].info["task"] == "T"

    def test_iteration_order(self):
        trace = Trace()
        for t in (1, 2, 3):
            trace.emit(rec(t))
        assert [r.time for r in trace] == [1, 2, 3]

    def test_clear(self):
        trace = Trace()
        trace.emit(rec(1))
        trace.clear()
        assert len(trace) == 0

    def test_str_rendering(self):
        record = rec(42, TraceKind.HEARTBEAT, "R1", task="T")
        text = str(record)
        assert "heartbeat" in text and "R1" in text and "task=T" in text


class TestCapacity:
    def test_ring_capacity_drops_oldest(self):
        trace = Trace(capacity=3)
        for t in range(5):
            trace.emit(rec(t))
        assert len(trace) == 3
        assert [r.time for r in trace] == [2, 3, 4]
        assert trace.dropped == 2


class TestQueries:
    def build(self):
        trace = Trace()
        trace.emit(rec(10, TraceKind.TASK_ACTIVATE, "A"))
        trace.emit(rec(20, TraceKind.TASK_TERMINATE, "A"))
        trace.emit(rec(30, TraceKind.TASK_ACTIVATE, "B"))
        trace.emit(rec(40, TraceKind.TASK_ACTIVATE, "A"))
        return trace

    def test_filter_by_kind(self):
        trace = self.build()
        assert len(trace.filter(kind=TraceKind.TASK_ACTIVATE)) == 3

    def test_filter_by_subject(self):
        trace = self.build()
        assert len(trace.filter(subject="A")) == 3

    def test_filter_by_window(self):
        trace = self.build()
        assert len(trace.filter(start=15, end=40)) == 2

    def test_count(self):
        trace = self.build()
        assert trace.count(TraceKind.TASK_ACTIVATE, "A") == 2

    def test_first_and_last(self):
        trace = self.build()
        assert trace.first(TraceKind.TASK_ACTIVATE, "A").time == 10
        assert trace.last(TraceKind.TASK_ACTIVATE, "A").time == 40
        assert trace.first(TraceKind.ECU_RESET) is None

    def test_subjects(self):
        trace = self.build()
        assert trace.subjects(TraceKind.TASK_ACTIVATE) == ["A", "B"]

    def test_dump_limit(self):
        trace = self.build()
        assert len(trace.dump(limit=2).splitlines()) == 2


class TestListeners:
    def test_subscribe_receives_live_records(self):
        trace = Trace()
        seen = []
        trace.subscribe(seen.append)
        trace.emit(rec(1))
        assert len(seen) == 1
