"""OSEK counters and alarms.

An OSEK *counter* is a tick source (here derived from simulated time);
an *alarm* is attached to a counter and, on expiry, performs the OSEK
alarm action the simulated systems use: activate a task.  Alarms may be
one-shot or cyclic; cyclic alarms are the canonical way to release
periodic tasks, which is how every periodic runnable in the reproduced
system (application runnables, the Software Watchdog check task, bus
communication tasks) is driven.

Rather than simulating discrete counter-hardware ticks (which would
flood the event queue), expiries are computed arithmetically and placed
directly on the kernel's timed event queue.  This is behaviourally
identical for any observer.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .errors import KernelConfigError, ServiceError, StatusType
from .events import ScheduledEvent
from .scheduler import Kernel
from .tracing import TraceKind


class OsCounter:
    """An OSEK counter: converts simulated ticks to counter increments."""

    def __init__(self, name: str, ticks_per_increment: int = 1) -> None:
        if ticks_per_increment < 1:
            raise KernelConfigError(
                f"counter {name!r}: ticks_per_increment must be >= 1"
            )
        self.name = name
        self.ticks_per_increment = ticks_per_increment

    def to_ticks(self, increments: int) -> int:
        """Convert counter increments to simulated ticks."""
        return increments * self.ticks_per_increment


class Alarm:
    """An OSEK alarm attached to a counter."""

    def __init__(
        self,
        name: str,
        kernel: Kernel,
        counter: OsCounter,
        action: Callable[[], None],
        action_label: str = "",
    ) -> None:
        self.name = name
        self.kernel = kernel
        self.counter = counter
        self.action = action
        self.action_label = action_label
        self.cycle = 0  # in counter increments; 0 means one-shot
        self.armed = False
        self.expiry_count = 0
        self._event: Optional[ScheduledEvent] = None

    # ------------------------------------------------------------------
    def set_rel(self, offset: int, cycle: int = 0) -> StatusType:
        """OSEK SetRelAlarm: expire ``offset`` counter increments from now."""
        if self.armed:
            return self._error(StatusType.E_OS_STATE, "alarm already armed")
        if offset <= 0:
            return self._error(StatusType.E_OS_VALUE, f"bad offset {offset}")
        if cycle < 0:
            return self._error(StatusType.E_OS_VALUE, f"bad cycle {cycle}")
        self.cycle = cycle
        self._arm(self.kernel.clock.now + self.counter.to_ticks(offset))
        return StatusType.E_OK

    def cancel(self) -> StatusType:
        """OSEK CancelAlarm."""
        if not self.armed:
            return self._error(StatusType.E_OS_NOFUNC, "alarm not armed")
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self.armed = False
        return StatusType.E_OK

    # ------------------------------------------------------------------
    def _arm(self, when: int) -> None:
        self.armed = True
        self._event = self.kernel.queue.schedule(
            when, self._expire, label=f"alarm:{self.name}"
        )

    def _expire(self) -> None:
        self.expiry_count += 1
        self.kernel.trace.record(
            self.kernel.clock.now,
            TraceKind.ALARM_EXPIRE,
            self.name,
            action=self.action_label,
        )
        if self.cycle > 0:
            self._arm(self.kernel.clock.now + self.counter.to_ticks(self.cycle))
        else:
            self.armed = False
            self._event = None
        self.action()

    def _error(self, status: StatusType, message: str) -> StatusType:
        self.kernel.trace.record(
            self.kernel.clock.now,
            TraceKind.SERVICE_ERROR,
            f"alarm {self.name!r}: {message}",
            status=status.name,
        )
        return status


class AlarmTable:
    """Factory/registry for the alarms of one kernel instance."""

    def __init__(self, kernel: Kernel, system_counter: Optional[OsCounter] = None) -> None:
        self.kernel = kernel
        self.system_counter = system_counter or OsCounter("SystemCounter")
        self.alarms: Dict[str, Alarm] = {}

    def alarm_activate_task(
        self, name: str, task_name: str, counter: Optional[OsCounter] = None
    ) -> Alarm:
        """Create an alarm whose action is ActivateTask(task_name)."""
        if name in self.alarms:
            raise KernelConfigError(f"duplicate alarm name {name!r}")
        alarm = Alarm(
            name,
            self.kernel,
            counter or self.system_counter,
            lambda: self.kernel.activate_task(task_name),
            f"ActivateTask({task_name})",
        )
        self.alarms[name] = alarm
        return alarm

    def get(self, name: str) -> Alarm:
        alarm = self.alarms.get(name)
        if alarm is None:
            raise ServiceError(StatusType.E_OS_ID, f"alarm {name!r}")
        return alarm

    def rearm_after_reset(self) -> None:
        """Re-arm every cyclic alarm after an ECU software reset.

        The kernel's event queue was cleared by the reset, so each
        alarm's pending expiry event is gone; cyclic alarms (the autosar-
        style schedule table of the ECU) are re-armed at their cycle,
        one-shot alarms stay disarmed (their single expiry is lost, as it
        would be on real hardware).
        """
        for alarm in self.alarms.values():
            alarm.armed = False
            alarm._event = None
            if alarm.cycle > 0:
                alarm.set_rel(alarm.cycle, alarm.cycle)
