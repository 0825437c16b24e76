"""OSEKtime-style deadline monitoring baseline (task granularity).

"Deadline monitoring of the OSEKtime operating system ... introduce[s]
the time monitoring of tasks, but the granularity of fault detection on
the layer of tasks is not fine enough for runnables" (§2).

The monitor observes the kernel trace live: every ``TASK_ACTIVATE`` of a
monitored task arms a deadline; the matching ``TASK_TERMINATE`` disarms
it.  A deadline that fires before termination is a violation.  What this
catches: a hung or overrunning *task*.  What it structurally cannot
catch: a single skipped runnable inside a task that still terminates on
time, a wrong execution order, or an arrival-rate fault of an individual
runnable — the blind spots the Software Watchdog addresses.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..kernel.scheduler import Kernel
from ..kernel.tracing import TraceKind, TraceRecord


class DeadlineMonitor:
    """Per-task activation deadline supervision."""

    def __init__(self, kernel: Kernel, *, name: str = "DeadlineMonitor") -> None:
        self.kernel = kernel
        self.name = name
        #: task → relative deadline (ticks from activation).
        self.deadlines: Dict[str, int] = {}
        self.violation_times: List[int] = []
        self.violations_by_task: Dict[str, int] = {}
        self._armed: Dict[str, object] = {}
        kernel.trace.subscribe(self._on_record)

    # ------------------------------------------------------------------
    def monitor(self, task: str, deadline: int) -> None:
        """Supervise a task with the given relative deadline."""
        if deadline <= 0:
            raise ValueError("deadline must be > 0")
        self.deadlines[task] = deadline

    # ------------------------------------------------------------------
    def _on_record(self, record: TraceRecord) -> None:
        if record.subject not in self.deadlines:
            return
        if record.kind is TraceKind.TASK_ACTIVATE:
            self._arm(record.subject)
        elif record.kind is TraceKind.TASK_TERMINATE:
            self._disarm(record.subject)

    def _arm(self, task: str) -> None:
        if task in self._armed:
            return  # already supervising the outstanding activation
        deadline = self.deadlines[task]
        event = self.kernel.queue.schedule(
            self.kernel.clock.now + deadline,
            lambda: self._expire(task),
            label=f"deadline:{task}",
            persistent=True,
        )
        self._armed[task] = event

    def _disarm(self, task: str) -> None:
        event = self._armed.pop(task, None)
        if event is not None:
            event.cancel()

    def _expire(self, task: str) -> None:
        self._armed.pop(task, None)
        now = self.kernel.clock.now
        self.violation_times.append(now)
        self.violations_by_task[task] = self.violations_by_task.get(task, 0) + 1
        self.kernel.trace.record(
            now, TraceKind.CUSTOM, self.name, event="deadline_miss", task=task
        )

    # ------------------------------------------------------------------
    def first_detection_after(self, time: int) -> Optional[int]:
        """Campaign detector interface."""
        for t in self.violation_times:
            if t >= time:
                return t
        return None
