"""Span self-time accounting and trace summaries on synthetic spans."""

import threading

import pytest

import spans
from spans import COUNT, SELF, TOTAL, SpanRecorder


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def traced():
    """outer (2 s own work, waits 3 s on a worker thread's span)
    → middle (0.75 s own) → leaf ×2 (1 s each, aggregated only)."""
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    leaf = recorder.wrap(lambda: clock.advance(1.0), "leaf", aggregate=True)
    worker_span = recorder.wrap(lambda: clock.advance(3.0), "worker")

    def middle_body():
        clock.advance(0.5)
        leaf()
        leaf()
        clock.advance(0.25)

    middle = recorder.wrap(middle_body, "middle")

    def outer_body():
        clock.advance(2.0)
        middle()
        thread = threading.Thread(target=worker_span, name="snapshot-writer")
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive()

    recorder.wrap(outer_body, "outer")()
    return recorder


def test_self_time_subtracts_children_on_the_same_thread_only(traced):
    dump = traced.take()
    by_name = {r[0]: r for r in dump["records"]}
    assert set(by_name) == {"outer", "middle", "worker"}
    name, start, end, own, parent, thread = by_name["middle"]
    assert (end - start, own, parent) == (2.75, 0.75, "outer")
    # The worker's span is no child of the span that waited for it ...
    assert by_name["worker"][4] is None
    assert by_name["worker"][5] == "snapshot-writer"
    assert by_name["worker"][3] == 3.0
    # ... so the wait stays in outer's own time.
    assert by_name["outer"][3] == 2.0 + 3.0
    assert dump["aggregates"]["leaf"] == [2, 2.0, 2.0]


def test_aggregated_names_keep_no_records_but_count_in_coverage(traced):
    dump = traced.take()
    assert "leaf" not in {r[0] for r in dump["records"]}
    # 5 (outer) + 0.75 (middle) + 3 (worker) + 2 (leaves) = wall time
    # of outer plus the worker's own span.
    assert spans.total_self(dump) == pytest.approx(10.75)
    assert spans.coverage(dump, cpu_s=21.5) == pytest.approx(0.5)


def test_take_resets_and_merge_sums(traced):
    first = traced.take()
    empty = traced.take()
    assert empty["records"] == []
    assert empty["aggregates"]["leaf"] == [0, 0.0, 0.0]
    merged = spans.merge([first, first])
    assert merged["aggregates"]["leaf"][COUNT] == 4
    leaf = merged["aggregates"]["leaf"]
    assert leaf[TOTAL] == leaf[SELF] == 4.0
    assert len(spans.durations(merged, "middle")) == 2
    assert spans.self_times(merged, "middle") == [0.75, 0.75]


def test_overhead_on_a_tiny_fake_run():
    # Traced daemon paid 5 µs per indication, untraced 4 µs.
    assert spans.overhead(5.0, 4.0) == pytest.approx(0.25)
    assert spans.overhead(4.0, 4.0) == 0.0


def test_tally_counts_calls():
    recorder = SpanRecorder()
    counted = recorder.tally(lambda x: x + 1, "inc")
    assert [counted(i) for i in range(3)] == [1, 2, 3]
    assert recorder.take()["tallies"] == {"inc": 3}
