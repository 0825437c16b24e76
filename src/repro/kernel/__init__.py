"""Discrete-event OSEK-conforming kernel simulation.

This package is the operating-system substrate the paper's Software
Watchdog is integrated with.  It models the OSEK/VDX subset the watchdog
observes: basic tasks under fixed-priority mixed preemption, runnables,
counters/alarms, schedule tables, ISRs, hooks, and full execution
tracing — all driven by a deterministic discrete-event simulation of
CPU time.
"""

from .alarms import Alarm, AlarmTable, OsCounter
from .clock import SimClock, ms, seconds, to_ms, to_s, us
from .errors import (
    KernelConfigError,
    KernelError,
    SchedulingError,
    ServiceError,
    StatusType,
)
from .events import EventQueue, ScheduledEvent
from .runnable import Runnable, SequenceChart, runnable_sequence_body
from .schedtable import ExpiryPoint, ScheduleTable
from .scheduler import Hooks, Kernel
from .task import Segment, Task, TaskState
from .tracing import Trace, TraceKind, TraceRecord

__all__ = [
    "Alarm",
    "AlarmTable",
    "EventQueue",
    "Hooks",
    "Kernel",
    "KernelConfigError",
    "KernelError",
    "OsCounter",
    "ExpiryPoint",
    "Runnable",
    "ScheduledEvent",
    "SchedulingError",
    "ScheduleTable",
    "Segment",
    "SequenceChart",
    "ServiceError",
    "SimClock",
    "StatusType",
    "Task",
    "TaskState",
    "Trace",
    "TraceKind",
    "TraceRecord",
    "ms",
    "runnable_sequence_body",
    "seconds",
    "to_ms",
    "to_s",
    "us",
]
