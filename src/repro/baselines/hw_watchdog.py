"""ECU hardware watchdog baseline.

"A hardware watchdog treats the embedded software as a whole" (§2): a
free-running down-counter is kicked ("served") by some designated point
in the software — classically the lowest-priority background task, so a
kick proves only that *something* still schedules.  If no kick arrives
within the timeout, the hardware fires a reset.

The baseline demonstrates the granularity argument of the paper: a
single blocked runnable, an excessive-dispatch fault or a corrupted
execution sequence leaves the kick path perfectly healthy, so the
hardware watchdog stays silent; only whole-CPU starvation (e.g. an
interrupt storm or a runaway highest-priority task) trips it.

A *windowed* mode is included (modern automotive watchdogs, e.g. the
S12XF the paper's outlook targets, support windows): kicks arriving too
*early* also count as failures, catching runaway fast loops.
"""

from __future__ import annotations

from typing import List, Optional

from ..kernel.scheduler import Kernel
from ..kernel.task import Segment, Task
from ..kernel.tracing import TraceKind


class HardwareWatchdog:
    """Free-running timeout (optionally windowed) kicked from software."""

    def __init__(
        self,
        kernel: Kernel,
        *,
        timeout: int,
        window_open: int = 0,
        name: str = "HardwareWatchdog",
    ) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be > 0")
        if not 0 <= window_open < timeout:
            raise ValueError("window_open must lie within [0, timeout)")
        self.kernel = kernel
        self.timeout = timeout
        self.window_open = window_open
        self.name = name
        self.kick_count = 0
        self.expiry_times: List[int] = []
        self.early_kick_times: List[int] = []
        self._last_kick = kernel.clock.now
        self._armed = False
        self._deadline_event = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the watchdog (idempotent)."""
        if self._armed:
            return
        self._armed = True
        self._last_kick = self.kernel.clock.now
        self._schedule_deadline()

    def kick(self) -> None:
        """Service the watchdog.

        In windowed mode a kick before ``window_open`` ticks have passed
        since the previous kick is itself a failure (recorded, watchdog
        fires as real hardware would).
        """
        now = self.kernel.clock.now
        elapsed = now - self._last_kick
        if self._armed and self.window_open > 0 and elapsed < self.window_open:
            self.early_kick_times.append(now)
            self._fire(now, reason="early_kick")
        self.kick_count += 1
        self._last_kick = now
        if self._armed:
            self._schedule_deadline()

    # ------------------------------------------------------------------
    @property
    def expired(self) -> bool:
        return bool(self.expiry_times)

    def first_detection_after(self, time: int) -> Optional[int]:
        """Campaign detector interface."""
        for t in self.expiry_times + self.early_kick_times:
            if t >= time:
                return t
        return None

    # ------------------------------------------------------------------
    def _schedule_deadline(self) -> None:
        if self._deadline_event is not None:
            self._deadline_event.cancel()
        self._deadline_event = self.kernel.queue.schedule(
            self._last_kick + self.timeout, self._check,
            label=f"hwwd:{self.name}", persistent=True,
        )

    def _check(self) -> None:
        now = self.kernel.clock.now
        if now - self._last_kick >= self.timeout:
            self._fire(now, reason="timeout")
            # Real hardware resets; the baseline keeps observing so that
            # campaigns can record repeated expiries.
            self._last_kick = now
        self._schedule_deadline()

    def _fire(self, now: int, reason: str) -> None:
        self.expiry_times.append(now)
        self.kernel.trace.record(
            now, TraceKind.CUSTOM, self.name, event="hw_watchdog_fired", reason=reason
        )


def attach_kick_task(
    kernel: Kernel,
    watchdog: HardwareWatchdog,
    *,
    priority: int = 0,
    period_hint: str = "activate externally",
) -> Task:
    """Create the classic background kick task (lowest priority).

    The caller activates it periodically (usually via an alarm); each
    activation costs one tick and kicks the watchdog — the conventional
    arrangement whose blind spots the Software Watchdog closes.
    """

    def body(task: Task):
        yield Segment(1, on_end=watchdog.kick, label="hw_kick")

    task = Task(f"{watchdog.name}KickTask", priority, body)
    kernel.add_task(task)
    return task
