"""Execution tracing for the simulated kernel.

Every observable kernel occurrence (task activation, dispatch, preemption,
termination, runnable start/end, heartbeat indication, alarm expiry,
hook invocation, error) is appended to a :class:`Trace`.
The Software Watchdog never reads the trace — it only sees heartbeats,
exactly like on the real platform — but the analysis layer and the
test-suite use traces as ground truth for coverage and latency metrics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


class TraceKind(enum.Enum):
    """Categories of trace records."""

    TASK_ACTIVATE = "task_activate"
    TASK_START = "task_start"
    TASK_PREEMPT = "task_preempt"
    TASK_RESUME = "task_resume"
    TASK_TERMINATE = "task_terminate"
    RUNNABLE_START = "runnable_start"
    RUNNABLE_END = "runnable_end"
    HEARTBEAT = "heartbeat"
    ALARM_EXPIRE = "alarm_expire"
    HOOK = "hook"
    SERVICE_ERROR = "service_error"
    ECU_RESET = "ecu_reset"
    WATCHDOG_CHECK = "watchdog_check"
    FAULT_INJECTED = "fault_injected"
    FAULT_REPORT = "fault_report"
    CUSTOM = "custom"


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped kernel occurrence."""

    time: int
    kind: TraceKind
    subject: str
    info: Dict[str, Any] = field(default_factory=dict)


class Trace:
    """Append-only record of a simulation run with query helpers."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._records: List[TraceRecord] = []
        self._capacity = capacity
        self._listeners: List[Callable[[TraceRecord], None]] = []
        self.dropped = 0

    # ------------------------------------------------------------------
    def emit(self, record: TraceRecord) -> None:
        """Append a record, honouring the optional ring capacity."""
        if self._capacity is not None and len(self._records) >= self._capacity:
            self._records.pop(0)
            self.dropped += 1
        self._records.append(record)
        for listener in self._listeners:
            listener(record)

    def record(self, time: int, kind: TraceKind, subject: str, **info: Any) -> None:
        """Convenience constructor + emit."""
        self.emit(TraceRecord(time=time, kind=kind, subject=subject, info=info))

    def subscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        """Register a live listener invoked for every new record."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    def filter(
        self,
        kind: Optional[TraceKind] = None,
        subject: Optional[str] = None,
        start: Optional[int] = None,
        end: Optional[int] = None,
    ) -> List[TraceRecord]:
        """Records matching all the given constraints."""
        out = []
        for rec in self._records:
            if kind is not None and rec.kind is not kind:
                continue
            if subject is not None and rec.subject != subject:
                continue
            if start is not None and rec.time < start:
                continue
            if end is not None and rec.time >= end:
                continue
            out.append(rec)
        return out
