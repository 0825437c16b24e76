"""Timed event queue for the discrete-event kernel.

The queue is a classic binary-heap agenda.  Entries carry a monotonically
increasing sequence number so that events scheduled for the same instant
fire in FIFO order — important for reproducibility of preemption traces.
Cancellation is implemented by tombstoning, so ``cancel`` is O(1) and the
heap is compacted lazily.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple


class ScheduledEvent:
    """Handle for a scheduled callback; allows cancellation.

    ``persistent`` marks events that belong to the *world outside the
    ECU* — bus traffic in flight, plant-model ticks, externally injected
    faults, external monitors.  An ECU software reset clears only the
    ECU's own (non-persistent) events; the world keeps running.
    """

    __slots__ = ("when", "seq", "callback", "label", "cancelled", "persistent")

    def __init__(
        self,
        when: int,
        seq: int,
        callback: Callable[[], Any],
        label: str,
        persistent: bool = False,
    ):
        self.when = when
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False
        self.persistent = persistent

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        self.cancelled = True


class EventQueue:
    """Priority queue of :class:`ScheduledEvent`, ordered by (time, seq)."""

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, ScheduledEvent]] = []
        self._counter = itertools.count()

    def schedule(
        self,
        when: int,
        callback: Callable[[], Any],
        label: str = "",
        *,
        persistent: bool = False,
    ) -> ScheduledEvent:
        """Schedule ``callback`` to run at absolute tick ``when``.

        ``persistent`` events survive :meth:`clear_transient` (an ECU
        software reset); use it for everything that models the world
        outside the resetting ECU.
        """
        if when < 0:
            raise ValueError(f"cannot schedule event in negative time: {when}")
        event = ScheduledEvent(
            when, next(self._counter), callback, label, persistent
        )
        heapq.heappush(self._heap, (when, event.seq, event))
        return event

    def next_time(self) -> Optional[int]:
        """Time of the earliest pending (non-cancelled) event, or ``None``."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop_next(self, now: int) -> Optional[ScheduledEvent]:
        """Remove and return the single earliest pending event with
        ``when <= now``, or ``None``.

        Dispatching events one at a time matters for correctness of an
        ECU software reset: a reset performed inside one callback must be
        able to cancel every event that has not fired yet, including
        events due at the very same instant.
        """
        while self._heap:
            when, _seq, event = self._heap[0]
            if event.cancelled:
                heapq.heappop(self._heap)
                continue
            if when > now:
                return None
            heapq.heappop(self._heap)
            return event
        return None

    def clear_transient(self) -> None:
        """Drop non-persistent events only (ECU software reset): the
        ECU's own timers die, the outside world keeps running."""
        for _when, _seq, event in self._heap:
            if not event.persistent and not event.cancelled:
                event.cancel()
        self._drop_cancelled()

    def _drop_cancelled(self) -> None:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
