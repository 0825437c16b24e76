"""Tests for the tracing subsystem."""

from repro.kernel import Trace, TraceKind, TraceRecord


def rec(time, kind=TraceKind.CUSTOM, subject="s", **info):
    return TraceRecord(time=time, kind=kind, subject=subject, info=info)


class TestTraceBasics:
    def test_emit_and_len(self):
        trace = Trace()
        trace.emit(rec(1))
        trace.emit(rec(2))
        assert len(trace.filter()) == 2

    def test_record_convenience(self):
        trace = Trace()
        trace.record(5, TraceKind.HEARTBEAT, "R1", task="T")
        [record] = trace.filter()
        assert record.time == 5
        assert record.info["task"] == "T"

    def test_iteration_order(self):
        trace = Trace()
        for t in (1, 2, 3):
            trace.emit(rec(t))
        assert [r.time for r in trace.filter()] == [1, 2, 3]


class TestCapacity:
    def test_ring_capacity_drops_oldest(self):
        trace = Trace(capacity=3)
        for t in range(5):
            trace.emit(rec(t))
        assert [r.time for r in trace.filter()] == [2, 3, 4]
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


class TestListeners:
    def test_subscribe_receives_live_records(self):
        trace = Trace()
        seen = []
        trace.subscribe(seen.append)
        trace.emit(rec(1))
        assert len(seen) == 1
