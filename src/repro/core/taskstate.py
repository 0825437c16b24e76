"""Task State Indication (TSI) unit — error aggregation and roll-up.

Per §3.2.3 of the paper, runnable errors detected by the HBM and PFC
units are recorded in a per-task *error indication vector*.  When any
element of the vector reaches its threshold, the whole task is
considered faulty.  Task states roll up — via the application/task
mapping — to application states and a single global ECU state, which the
Fault Management Framework uses to pick a treatment (§3.4):

* global ECU state faulty  → ECU software reset,
* ECU OK, application faulty → restart or terminate the application,
* remaining tasks of terminated applications → restart via OS services.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..telemetry import NULL_REGISTRY
from .hypothesis import ThresholdPolicy
from .reports import (
    EcuStateChange,
    ErrorType,
    MonitorState,
    RunnableError,
    SupervisionReport,
    TaskFaultEvent,
)

TaskFaultListener = Callable[[TaskFaultEvent], None]
EcuStateListener = Callable[[EcuStateChange], None]

#: Numeric encoding of :class:`MonitorState` for state gauges.
MONITOR_STATE_VALUE: Dict[MonitorState, int] = {
    MonitorState.OK: 0,
    MonitorState.SUSPICIOUS: 1,
    MonitorState.FAULTY: 2,
}


class TaskStateIndicationUnit:
    """Error indication vectors, thresholds, and state derivation."""

    __slots__ = (
        "thresholds", "task_of_runnable", "_owns_task_map", "task_of_slot",
        "app_of_task", "error_vectors", "faulty_tasks", "errors_recorded",
        "_task_fault_listeners", "_ecu_state_listeners", "_last_ecu_state",
        "last_error_time", "telemetry", "_tm_enabled", "_tm_errors",
        "_tm_task_faults", "_tm_faulty_tasks", "_tm_faulty_count",
        "_tm_ecu_state", "_tm_task_gauges", "_tm_app_gauges",
    )

    def __init__(
        self,
        thresholds: Optional[ThresholdPolicy] = None,
        *,
        task_of_runnable: Optional[Dict[str, str]] = None,
        app_of_task: Optional[Dict[str, str]] = None,
        task_of_slot: Optional[List[Optional[str]]] = None,
        telemetry=None,
    ) -> None:
        self.thresholds = thresholds or ThresholdPolicy()
        #: runnable → hosting task (completed lazily from incoming errors).
        #: The configured mapping is shared with the other units built
        #: from the same hypothesis, so it is copied before the first
        #: learned entry is added (copy-on-write).
        self.task_of_runnable: Dict[str, str] = (
            task_of_runnable if task_of_runnable is not None else {})
        self._owns_task_map = task_of_runnable is None
        #: interned slot id → hosting task, in the HBM unit's slot order;
        #: lets :meth:`record_error` attribute an error that carries a
        #: ``runnable_id`` without hashing the runnable name (read-only).
        self.task_of_slot: List[Optional[str]] = (
            task_of_slot if task_of_slot is not None else [])
        #: task → application (for application state derivation).
        self.app_of_task: Dict[str, str] = dict(app_of_task or {})
        #: task → runnable → error type → count  (the error indication vectors).
        self.error_vectors: Dict[str, Dict[str, Dict[ErrorType, int]]] = {}
        #: tasks currently declared faulty.
        self.faulty_tasks: Dict[str, TaskFaultEvent] = {}
        self.errors_recorded = 0
        self._task_fault_listeners: List[TaskFaultListener] = []
        self._ecu_state_listeners: List[EcuStateListener] = []
        self._last_ecu_state = MonitorState.OK
        #: Time of the most recently recorded error (the time
        #: :meth:`clear_task` stamps on the ECU state change it causes).
        #: Only counts are kept per error, never the errors themselves:
        #: the chronological stream is
        #: :meth:`SoftwareWatchdog.add_fault_listener`'s to deliver.
        self.last_error_time = 0
        # Telemetry: errors and threshold crossings are rare, so the
        # instruments are updated live (a no-op under the null
        # registry).  State gauges encode OK/SUSPICIOUS/FAULTY as 0/1/2
        # (MONITOR_STATE_VALUE).
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        self._tm_enabled = self.telemetry.enabled
        tm = self.telemetry
        self._tm_errors = tm.counter(
            "wd_tsi_errors_recorded_total",
            "Runnable errors recorded into error indication vectors")
        self._tm_task_faults = tm.counter(
            "wd_tsi_task_faults_total",
            "Task-faulty threshold crossings")
        # Shared by every unit on one registry (a daemon's fleet): each
        # unit adds the change in its own count, so the gauge sums.
        self._tm_faulty_tasks = tm.gauge(
            "wd_tsi_faulty_tasks", "Tasks currently declared faulty")
        self._tm_faulty_count = 0
        self._tm_ecu_state = tm.gauge(
            "wd_tsi_ecu_state",
            "Derived global ECU state (0=ok 1=suspicious 2=faulty)")
        self._tm_task_gauges: Dict[str, object] = {}
        self._tm_app_gauges: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def add_task_fault_listener(self, listener: TaskFaultListener) -> None:
        """Register a sink for task-faulty events (the FMF)."""
        self._task_fault_listeners.append(listener)

    def add_ecu_state_listener(self, listener: EcuStateListener) -> None:
        """Register a sink for global ECU state transitions."""
        self._ecu_state_listeners.append(listener)

    # ------------------------------------------------------------------
    def record_error(self, error: RunnableError, time: Optional[int] = None) -> None:
        """Record one runnable error in its task's error indication vector.

        Fires a :class:`TaskFaultEvent` the moment an element reaches its
        threshold; re-crossing while already faulty does not re-fire.
        """
        when = error.time if time is None else time
        task = error.task
        if task is None:
            slot = error.runnable_id
            if slot is not None and 0 <= slot < len(self.task_of_slot):
                task = self.task_of_slot[slot]
        if task is None:
            task = self.task_of_runnable.get(error.runnable)
        task = task or "<unmapped>"
        if error.runnable not in self.task_of_runnable:
            if not self._owns_task_map:
                self.task_of_runnable = dict(self.task_of_runnable)
                self._owns_task_map = True
            self.task_of_runnable[error.runnable] = task
        vector = self.error_vectors.setdefault(task, {})
        per_type = vector.setdefault(error.runnable, {})
        per_type[error.error_type] = per_type.get(error.error_type, 0) + 1
        self.errors_recorded += 1
        self.last_error_time = error.time
        self._tm_errors.inc()
        threshold = self.thresholds.threshold_for(error.error_type)
        if per_type[error.error_type] >= threshold and task not in self.faulty_tasks:
            event = TaskFaultEvent(
                time=when,
                task=task,
                trigger_runnable=error.runnable,
                trigger_error_type=error.error_type,
                error_vector={r: dict(t) for r, t in vector.items()},
            )
            self.faulty_tasks[task] = event
            self._tm_task_faults.inc()
            for listener in self._task_fault_listeners:
                listener(event)
            self._update_ecu_state(when)
        if self._tm_enabled:
            self._tm_refresh_states(task)

    # ------------------------------------------------------------------
    def error_count(
        self,
        task: Optional[str] = None,
        runnable: Optional[str] = None,
        error_type: Optional[ErrorType] = None,
    ) -> int:
        """Accumulated error count matching the given filters."""
        total = 0
        for t, vector in self.error_vectors.items():
            if task is not None and t != task:
                continue
            for r, per_type in vector.items():
                if runnable is not None and r != runnable:
                    continue
                for et, count in per_type.items():
                    if error_type is not None and et is not error_type:
                        continue
                    total += count
        return total

    def runnable_state(self, runnable: str) -> MonitorState:
        """Derived health of one runnable."""
        counts = self._counts_for(runnable)
        if not counts:
            return MonitorState.OK
        for et, count in counts.items():
            if count >= self.thresholds.threshold_for(et):
                return MonitorState.FAULTY
        return MonitorState.SUSPICIOUS

    def task_state(self, task: str) -> MonitorState:
        """Derived health of one task."""
        if task in self.faulty_tasks:
            return MonitorState.FAULTY
        if self.error_vectors.get(task):
            return MonitorState.SUSPICIOUS
        return MonitorState.OK

    def application_state(self, application: str) -> MonitorState:
        """Derived health of one application: worst of its tasks' states."""
        states = [
            self.task_state(task)
            for task, app in self.app_of_task.items()
            if app == application
        ]
        return _worst(states)

    def ecu_state(self) -> MonitorState:
        """Derived global ECU state: worst of all known task states."""
        states = [self.task_state(task) for task in self._known_tasks()]
        return _worst(states)

    # ------------------------------------------------------------------
    def supervision_reports(self, time: int) -> List[SupervisionReport]:
        """Individual supervision reports on runnables (one per monitored
        runnable that has recorded errors, plus mapped healthy ones)."""
        reports: List[SupervisionReport] = []
        seen = set()
        for task, vector in self.error_vectors.items():
            for runnable, per_type in vector.items():
                seen.add(runnable)
                reports.append(
                    SupervisionReport(
                        time=time,
                        runnable=runnable,
                        task=task,
                        state=self.runnable_state(runnable),
                        error_counts=dict(per_type),
                    )
                )
        for runnable, task in self.task_of_runnable.items():
            if runnable not in seen:
                reports.append(
                    SupervisionReport(
                        time=time,
                        runnable=runnable,
                        task=task,
                        state=MonitorState.OK,
                        error_counts={},
                    )
                )
        return reports

    def clear_task(self, task: str) -> None:
        """Forget a task's errors (after the FMF restarted it)."""
        self.error_vectors.pop(task, None)
        self.faulty_tasks.pop(task, None)
        self._update_ecu_state(time=self.last_error_time)
        if self._tm_enabled:
            self._tm_refresh_states(task)

    def snapshot_state(self) -> Dict[str, object]:
        """JSON-compatible aggregation state (daemon persistence): the
        error indication vectors, declared-faulty tasks, the last error
        time, lazily-learned attribution, and the last derived ECU state.

        The runnable-to-task map is returned by reference while it is
        still the configured one shared with the hypothesis: that map is
        never mutated (:meth:`record_error` copies it before learning an
        entry), so a capture handed to another thread stays consistent.
        """
        return {
            "error_vectors": {
                task: {
                    runnable: {et.value: count for et, count in per_type.items()}
                    for runnable, per_type in vector.items()
                }
                for task, vector in self.error_vectors.items()
            },
            "faulty_tasks": {
                task: event.to_dict()
                for task, event in self.faulty_tasks.items()
            },
            "errors_recorded": self.errors_recorded,
            "last_error_time": self.last_error_time,
            "task_of_runnable": (
                dict(self.task_of_runnable) if self._owns_task_map
                else self.task_of_runnable
            ),
            "last_ecu_state": self._last_ecu_state.value,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Resume from a :meth:`snapshot_state` capture.

        Captures written before ``last_error_time`` existed carry the
        full ``error_log`` instead; its last entry supplies the time.
        """
        self.error_vectors = {
            task: {
                runnable: {ErrorType(et): count for et, count in per_type.items()}
                for runnable, per_type in vector.items()
            }
            for task, vector in state["error_vectors"].items()
        }
        self.faulty_tasks = {
            task: TaskFaultEvent.from_dict(event)
            for task, event in state["faulty_tasks"].items()
        }
        self.errors_recorded = int(state["errors_recorded"])
        if "last_error_time" in state:
            self.last_error_time = int(state["last_error_time"])
        else:
            log = state["error_log"]
            self.last_error_time = int(log[-1]["time"]) if log else 0
        self.task_of_runnable = dict(state["task_of_runnable"])
        self._owns_task_map = True
        self._last_ecu_state = MonitorState(state["last_ecu_state"])
        if self._tm_enabled:
            for task in self._known_tasks():
                self._tm_refresh_states(task)
            self._tm_sync_faulty_count()

    def reset(self) -> None:
        """Full reset (ECU software reset)."""
        self.error_vectors.clear()
        self.faulty_tasks.clear()
        self.errors_recorded = 0
        self.last_error_time = 0
        self._last_ecu_state = MonitorState.OK
        if self._tm_enabled:
            for task in list(self._tm_task_gauges):
                self._tm_refresh_states(task)
            self._tm_sync_faulty_count()
            self._tm_ecu_state.set(0)

    # ------------------------------------------------------------------
    def _counts_for(self, runnable: str) -> Dict[ErrorType, int]:
        for vector in self.error_vectors.values():
            if runnable in vector:
                return vector[runnable]
        return {}

    def _known_tasks(self) -> List[str]:
        seen: Dict[str, None] = {}
        for task in self.app_of_task:
            seen.setdefault(task, None)
        for task in self.task_of_runnable.values():
            seen.setdefault(task, None)
        for task in self.error_vectors:
            seen.setdefault(task, None)
        return list(seen)

    def _tm_refresh_states(self, task: str) -> None:
        """Refresh the state gauges touched by a change to ``task``.

        Only called when the registry is live; gauge objects are cached
        per task/application so repeated refreshes do not re-enter the
        registry's get-or-create path.
        """
        gauge = self._tm_task_gauges.get(task)
        if gauge is None:
            gauge = self.telemetry.gauge(
                "wd_tsi_task_state",
                "Derived task state (0=ok 1=suspicious 2=faulty)",
                task=task,
            )
            self._tm_task_gauges[task] = gauge
        gauge.set(MONITOR_STATE_VALUE[self.task_state(task)])
        app = self.app_of_task.get(task)
        if app is not None:
            app_gauge = self._tm_app_gauges.get(app)
            if app_gauge is None:
                app_gauge = self.telemetry.gauge(
                    "wd_tsi_application_state",
                    "Derived application state (0=ok 1=suspicious 2=faulty)",
                    application=app,
                )
                self._tm_app_gauges[app] = app_gauge
            app_gauge.set(MONITOR_STATE_VALUE[self.application_state(app)])
        self._tm_sync_faulty_count()
        self._tm_ecu_state.set(MONITOR_STATE_VALUE[self.ecu_state()])

    def _tm_sync_faulty_count(self) -> None:
        """Move the shared faulty-task gauge by this unit's change."""
        count = len(self.faulty_tasks)
        self._tm_faulty_tasks.inc(count - self._tm_faulty_count)
        self._tm_faulty_count = count

    def _update_ecu_state(self, time: int) -> None:
        new_state = self.ecu_state()
        if new_state is not self._last_ecu_state:
            change = EcuStateChange(
                time=time,
                old_state=self._last_ecu_state,
                new_state=new_state,
                faulty_tasks=tuple(sorted(self.faulty_tasks)),
            )
            self._last_ecu_state = new_state
            for listener in self._ecu_state_listeners:
                listener(change)


def _worst(states: List[MonitorState]) -> MonitorState:
    """The most severe of a list of states (OK when the list is empty)."""
    if MonitorState.FAULTY in states:
        return MonitorState.FAULTY
    if MonitorState.SUSPICIOUS in states:
        return MonitorState.SUSPICIOUS
    return MonitorState.OK
