"""Unit tests for the timed event queue."""

import pytest

from repro.kernel import EventQueue


def due_events(queue, now):
    """Every event due at ``now``, popped one at a time as the kernel does."""
    due = []
    while (event := queue.pop_next(now)) is not None:
        due.append(event)
    return due


class TestScheduling:
    def test_empty_queue(self):
        queue = EventQueue()
        assert queue.next_time() is None
        assert due_events(queue, 1_000_000) == []

    def test_schedule_and_pop(self):
        queue = EventQueue()
        fired = []
        queue.schedule(10, lambda: fired.append("a"))
        assert queue.next_time() == 10
        due = due_events(queue, 10)
        assert len(due) == 1
        due[0].callback()
        assert fired == ["a"]

    def test_negative_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.schedule(-1, lambda: None)

    def test_pop_due_respects_time(self):
        queue = EventQueue()
        queue.schedule(10, lambda: None)
        queue.schedule(20, lambda: None)
        assert len(due_events(queue, 15)) == 1
        assert queue.next_time() == 20

    def test_fifo_order_at_same_instant(self):
        queue = EventQueue()
        order = []
        for tag in ("first", "second", "third"):
            queue.schedule(5, lambda tag=tag: order.append(tag))
        for event in due_events(queue, 5):
            event.callback()
        assert order == ["first", "second", "third"]

    def test_time_ordering(self):
        queue = EventQueue()
        queue.schedule(30, lambda: None, label="late")
        queue.schedule(10, lambda: None, label="early")
        due = due_events(queue, 100)
        assert [e.label for e in due] == ["early", "late"]


class TestCancellation:
    def test_cancelled_event_not_returned(self):
        queue = EventQueue()
        event = queue.schedule(10, lambda: None)
        event.cancel()
        assert due_events(queue, 100) == []

    def test_cancel_is_idempotent(self):
        queue = EventQueue()
        event = queue.schedule(10, lambda: None)
        event.cancel()
        event.cancel()
        assert due_events(queue, 100) == []

    def test_next_time_skips_cancelled(self):
        queue = EventQueue()
        early = queue.schedule(10, lambda: None)
        queue.schedule(20, lambda: None)
        early.cancel()
        assert queue.next_time() == 20


class TestPopNext:
    def test_pop_next_single(self):
        queue = EventQueue()
        queue.schedule(5, lambda: None, label="a")
        queue.schedule(5, lambda: None, label="b")
        first = queue.pop_next(5)
        assert first.label == "a"
        assert [e.label for e in due_events(queue, 5)] == ["b"]

    def test_pop_next_none_when_future(self):
        queue = EventQueue()
        queue.schedule(50, lambda: None)
        assert queue.pop_next(10) is None
        assert queue.next_time() == 50

    def test_pop_next_allows_mid_dispatch_cancellation(self):
        """The reset-inside-a-callback property: events popped one at a
        time can be cancelled by an earlier callback at the same time."""
        queue = EventQueue()
        fired = []
        second = queue.schedule(5, lambda: fired.append("second"))
        # first event scheduled later in FIFO but cancels `second`... the
        # first-scheduled event fires first, so schedule canceller first.
        queue = EventQueue()
        fired = []

        def canceller():
            fired.append("canceller")
            second.cancel()

        e1 = queue.schedule(5, canceller)
        second = queue.schedule(5, lambda: fired.append("second"))
        while True:
            event = queue.pop_next(5)
            if event is None:
                break
            event.callback()
        assert fired == ["canceller"]
