"""AUTOSAR-OS-style schedule tables.

OSEK alarms activate one task per expiry; AUTOSAR OS (which the paper's
related work cites for execution-time monitoring) generalises this to
*schedule tables*: a cyclic series of expiry points, each with a fixed
offset within the table period and a list of task activations.  Offsets
stagger task releases deterministically, which eliminates the
simultaneous-release contention of same-period alarms — the classic
jitter-reduction mechanism for runnable pipelines like SafeSpeed's
(sample at +0, compute at +2 ms, actuate at +4 ms on *separate* tasks).

The table schedules its expiry points arithmetically on the kernel's
event queue (no counter-tick flood), mirroring the alarm implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

from .errors import KernelConfigError, StatusType
from .scheduler import Kernel
from .tracing import TraceKind


@dataclass
class ExpiryPoint:
    """One expiry point: an offset within the table plus its actions."""

    offset: int
    actions: List[Callable[[], None]] = field(default_factory=list)
    labels: List[str] = field(default_factory=list)


class ScheduleTable:
    """A cyclic table of expiry points."""

    def __init__(self, name: str, kernel: Kernel, *, period: int) -> None:
        if period <= 0:
            raise KernelConfigError(f"schedule table {name!r}: period must be > 0")
        self.name = name
        self.kernel = kernel
        self.period = period
        self.points: List[ExpiryPoint] = []
        self.running = False
        self.iteration_count = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _point_at(self, offset: int) -> ExpiryPoint:
        if not 0 <= offset < self.period:
            raise KernelConfigError(
                f"schedule table {self.name!r}: offset {offset} outside period"
            )
        for point in self.points:
            if point.offset == offset:
                return point
        point = ExpiryPoint(offset)
        self.points.append(point)
        self.points.sort(key=lambda p: p.offset)
        return point

    def add_task_activation(self, offset: int, task_name: str) -> "ScheduleTable":
        """Activate ``task_name`` at ``offset`` within every period."""
        point = self._point_at(offset)
        point.actions.append(lambda: self.kernel.activate_task(task_name))
        point.labels.append(f"ActivateTask({task_name})")
        return self

    # ------------------------------------------------------------------
    # control (AUTOSAR StartScheduleTableRel)
    # ------------------------------------------------------------------
    def start_rel(self, offset: int = 0) -> StatusType:
        """Start the table ``offset`` ticks from now."""
        if self.running:
            return StatusType.E_OS_STATE
        if not self.points:
            return StatusType.E_OS_NOFUNC
        if offset < 0:
            return StatusType.E_OS_VALUE
        self.running = True
        self._schedule_iteration(self.kernel.clock.now + offset)
        return StatusType.E_OK

    # ------------------------------------------------------------------
    def _schedule_iteration(self, table_start: int) -> None:
        for point in self.points:
            self.kernel.queue.schedule(
                table_start + point.offset,
                lambda p=point: self._expire(p),
                label=f"schedtable:{self.name}@{point.offset}",
            )
        self.kernel.queue.schedule(
            table_start + self.period,
            lambda: self._next_iteration(table_start + self.period),
            label=f"schedtable:{self.name}:wrap",
        )

    def _next_iteration(self, table_start: int) -> None:
        self.iteration_count += 1
        self._schedule_iteration(table_start)

    def _expire(self, point: ExpiryPoint) -> None:
        self.kernel.trace.record(
            self.kernel.clock.now,
            TraceKind.ALARM_EXPIRE,
            f"{self.name}@{point.offset}",
            action="; ".join(point.labels),
        )
        for action in point.actions:
            action()
