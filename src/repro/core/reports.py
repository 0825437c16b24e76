"""Error and state report types shared by the watchdog units.

Terminology follows the paper:

* a **runnable error** is one detection event produced by the heartbeat
  monitoring unit (aliveness / arrival-rate) or the program flow checking
  unit (program flow),
* **task / application / ECU states** are the roll-ups the TSI unit
  derives and hands to the Fault Management Framework.
"""

from __future__ import annotations

import enum
from typing import Any, Collection, Dict, Optional


class ErrorType(enum.Enum):
    """The three fault classes the Software Watchdog detects (§3.2)."""

    ALIVENESS = "aliveness"
    ARRIVAL_RATE = "arrival_rate"
    PROGRAM_FLOW = "program_flow"


class MonitorState(enum.Enum):
    """Health of a monitored entity as judged by the watchdog."""

    OK = "ok"
    SUSPICIOUS = "suspicious"  # errors recorded, below threshold
    FAULTY = "faulty"  # threshold reached


#: The severity order of :class:`MonitorState`, OK < SUSPICIOUS < FAULTY,
#: which is also a state's numeric code in gauges and supervision frames.
MONITOR_STATE_RANK: Dict[MonitorState, int] = {
    MonitorState.OK: 0,
    MonitorState.SUSPICIOUS: 1,
    MonitorState.FAULTY: 2,
}
_MOST_SEVERE_FIRST = tuple(
    sorted(MONITOR_STATE_RANK, key=MONITOR_STATE_RANK.get, reverse=True))


def worst_state(states: Collection[MonitorState]) -> MonitorState:
    """The most severe of ``states`` (OK when there are none): the
    roll-up rule of every level, task to application to ECU to fleet."""
    for state in _MOST_SEVERE_FIRST:
        if state in states:
            return state
    return MonitorState.OK


class RunnableError:
    """One detection event for one runnable.

    Two errors are equal when every field is.
    """

    __slots__ = ("time", "runnable", "task", "error_type", "details")

    def __init__(self, time: int, runnable: str, task: Optional[str],
                 error_type: ErrorType,
                 details: Optional[Dict[str, Any]] = None) -> None:
        self.time = time
        self.runnable = runnable
        self.task = task
        self.error_type = error_type
        self.details = {} if details is None else details

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.time == other.time and self.runnable == other.runnable
                and self.task == other.task
                and self.error_type is other.error_type
                and self.details == other.details)


#: Counts per runnable and error type (error vectors, detection tallies).
ErrorCounts = Dict[str, Dict[ErrorType, int]]


def error_counts_to_json(counts: ErrorCounts) -> Dict[str, Dict[str, int]]:
    """JSON-compatible :data:`ErrorCounts` (error types by value)."""
    return {
        runnable: {et.value: n for et, n in per_type.items()}
        for runnable, per_type in counts.items()
    }


def error_counts_from_json(data: Dict[str, Dict[str, int]]) -> ErrorCounts:
    """The :data:`ErrorCounts` map :func:`error_counts_to_json` rendered."""
    return {
        runnable: {ErrorType(et): n for et, n in per_type.items()}
        for runnable, per_type in data.items()
    }


class TaskFaultEvent:
    """Emitted when a task's error indication vector crosses a threshold."""

    __slots__ = ("time", "task", "trigger_runnable", "trigger_error_type",
                 "error_vector")

    def __init__(self, time: int, task: str, trigger_runnable: str,
                 trigger_error_type: ErrorType,
                 error_vector: ErrorCounts) -> None:
        self.time = time
        self.task = task
        self.trigger_runnable = trigger_runnable
        self.trigger_error_type = trigger_error_type
        self.error_vector = error_vector

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible rendering (daemon state snapshots)."""
        return {
            "time": self.time,
            "task": self.task,
            "trigger_runnable": self.trigger_runnable,
            "trigger_error_type": self.trigger_error_type.value,
            "error_vector": error_counts_to_json(self.error_vector),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TaskFaultEvent":
        return cls(
            time=data["time"],
            task=data["task"],
            trigger_runnable=data["trigger_runnable"],
            trigger_error_type=ErrorType(data["trigger_error_type"]),
            error_vector=error_counts_from_json(data.get("error_vector", {})),
        )


class EcuStateChange:
    """Emitted when the derived global ECU state changes."""

    __slots__ = ("time", "old_state", "new_state", "faulty_tasks")

    def __init__(self, time: int, old_state: MonitorState,
                 new_state: MonitorState, faulty_tasks: tuple) -> None:
        self.time = time
        self.old_state = old_state
        self.new_state = new_state
        self.faulty_tasks = faulty_tasks

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible rendering (daemon state snapshots)."""
        return {
            "time": self.time,
            "old_state": self.old_state.value,
            "new_state": self.new_state.value,
            "faulty_tasks": list(self.faulty_tasks),
        }
