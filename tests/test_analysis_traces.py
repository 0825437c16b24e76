"""Tests for trace post-processing."""

import json

from repro.analysis import (
    activation_times,
    heartbeat_gaps,
    heartbeat_times,
    response_times,
)
from repro.kernel import Trace, TraceKind, TraceRecord

from testutil import observed_periods, trace_to_jsonl


def build_trace(records):
    trace = Trace()
    for time, kind, subject, info in records:
        trace.emit(TraceRecord(time=time, kind=kind, subject=subject, info=info))
    return trace


class TestActivationAnalysis:
    def test_activation_times_and_periods(self):
        trace = build_trace([
            (10, TraceKind.TASK_ACTIVATE, "T", {}),
            (20, TraceKind.TASK_ACTIVATE, "T", {}),
            (35, TraceKind.TASK_ACTIVATE, "T", {}),
        ])
        assert activation_times(trace, "T") == [10, 20, 35]
        assert observed_periods(trace, "T") == [10, 15]

    def test_response_times_matched_in_order(self):
        trace = build_trace([
            (10, TraceKind.TASK_ACTIVATE, "T", {}),
            (14, TraceKind.TASK_TERMINATE, "T", {}),
            (20, TraceKind.TASK_ACTIVATE, "T", {}),
            (29, TraceKind.TASK_TERMINATE, "T", {}),
        ])
        assert response_times(trace, "T") == [4, 9]

    def test_unterminated_activation_dropped(self):
        trace = build_trace([
            (10, TraceKind.TASK_ACTIVATE, "T", {}),
            (14, TraceKind.TASK_TERMINATE, "T", {}),
            (20, TraceKind.TASK_ACTIVATE, "T", {}),  # hangs
        ])
        assert response_times(trace, "T") == [4]

class TestHeartbeatAnalysis:
    def test_heartbeat_times_and_gaps(self):
        trace = build_trace([
            (10, TraceKind.HEARTBEAT, "R", {}),
            (20, TraceKind.HEARTBEAT, "R", {}),
            (45, TraceKind.HEARTBEAT, "R", {}),
        ])
        assert heartbeat_times(trace, "R") == [10, 20, 45]
        assert heartbeat_gaps(trace, "R") == [10, 25]


class TestJsonlRoundTrip:
    def sample_trace(self):
        return build_trace([
            (10, TraceKind.HEARTBEAT, "R", {"task": "T"}),
            (20, TraceKind.TASK_ACTIVATE, "T", {}),
            (30, TraceKind.FAULT_INJECTED, "blocked:R", {"kind": "blocked"}),
        ])

    def test_one_sorted_json_document_per_line(self):
        lines = trace_to_jsonl(self.sample_trace()).splitlines()
        assert len(lines) == 3
        for line in lines:
            payload = json.loads(line)
            assert list(payload) == sorted(payload)
            assert set(payload) == {"time", "kind", "subject", "info"}

    def test_kind_serialized_as_stable_string(self):
        first = json.loads(trace_to_jsonl(self.sample_trace()).splitlines()[0])
        assert first["kind"] == TraceKind.HEARTBEAT.value

    def test_empty_trace_round_trips(self):
        assert trace_to_jsonl(Trace()) == ""
