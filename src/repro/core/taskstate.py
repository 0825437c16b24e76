"""Task State Indication (TSI) unit — error aggregation and roll-up.

Per §3.2.3 of the paper, runnable errors detected by the HBM and PFC
units are recorded in a per-task *error indication vector*.  When any
element of the vector reaches its threshold, the whole task is
considered faulty.  Task states roll up — via the application/task
mapping — to application states and a single global ECU state, which the
Fault Management Framework uses to pick a treatment (§3.4):

* global ECU state faulty  → ECU software reset,
* ECU OK, application faulty → restart or terminate the application.

The paper also restarts the remaining tasks of a terminated application
via OS services.  Here termination (``Ecu.terminate_application``)
force-terminates each task that only terminated applications own,
cancels its release alarm and switches its runnables' Activation Status
off, so the muted task is neither restarted nor monitored (DESIGN.md §7).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from ..telemetry import NULL_REGISTRY, Sample
from .hypothesis import ThresholdPolicy
from .reports import (
    MONITOR_STATE_RANK,
    EcuStateChange,
    ErrorType,
    MonitorState,
    RunnableError,
    TaskFaultEvent,
    error_counts_from_json,
    error_counts_to_json,
    worst_state,
)

TaskFaultListener = Callable[[TaskFaultEvent], None]
EcuStateListener = Callable[[EcuStateChange], None]

#: The families a unit reports (``_metrics``).  States read 0/1/2 for
#: OK/SUSPICIOUS/FAULTY and carry the owning watchdog's name.
_TM_FAMILIES = (
    ("wd_tsi_errors_recorded_total", "counter",
     "Runnable errors recorded into error indication vectors"),
    ("wd_tsi_faulty_tasks", "gauge", "Tasks currently declared faulty"),
    ("wd_tsi_task_state", "gauge",
     "Derived task state (0=ok 1=suspicious 2=faulty)"),
    ("wd_tsi_application_state", "gauge",
     "Derived application state (0=ok 1=suspicious 2=faulty)"),
    ("wd_tsi_ecu_state", "gauge",
     "Derived global ECU state (0=ok 1=suspicious 2=faulty)"),
)


class TaskStateIndicationUnit:
    """Error indication vectors, thresholds, and state derivation."""

    __slots__ = (
        "thresholds", "task_of_runnable", "_owns_task_map", "app_of_task",
        "error_vectors", "faulty_tasks", "errors_recorded",
        "_task_fault_listeners", "_ecu_state_listeners", "_last_ecu_state",
        "last_error_time", "_tm_task_faults", "_tm_watchdog", "_tm_base",
    )

    def __init__(
        self,
        thresholds: Optional[ThresholdPolicy] = None,
        *,
        task_of_runnable: Optional[Dict[str, str]] = None,
        app_of_task: Optional[Dict[str, str]] = None,
        telemetry=None,
        watchdog: str = "SoftwareWatchdog",
    ) -> None:
        self.thresholds = thresholds or ThresholdPolicy()
        #: runnable → hosting task (completed lazily from incoming errors).
        #: The configured mapping is shared with the other units built
        #: from the same hypothesis, so it is copied before the first
        #: learned entry is added (copy-on-write).
        self.task_of_runnable: Dict[str, str] = (
            task_of_runnable if task_of_runnable is not None else {})
        self._owns_task_map = task_of_runnable is None
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
        # Telemetry: the registry reads the unit (:meth:`_metrics`);
        # only threshold crossings, which no code counts, are pushed.
        tm = telemetry if telemetry is not None else NULL_REGISTRY
        self._tm_task_faults = tm.counter(
            "wd_tsi_task_faults_total",
            "Task-faulty threshold crossings")
        self._tm_watchdog = ("watchdog", watchdog)
        #: Subtracted from ``errors_recorded`` on export (reset, restore).
        self._tm_base = 0
        tm.add_source(_TM_FAMILIES, self._metrics)

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
        Fires an :class:`EcuStateChange` whenever the derived ECU state
        moves (ok → suspicious → faulty).
        """
        when = error.time if time is None else time
        task = error.task
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
        # Any error can move the ECU state (ok → suspicious on the first
        # one); only clear_task/reset can lower it from faulty.
        if self._last_ecu_state is not MonitorState.FAULTY:
            self._update_ecu_state(when)

    # ------------------------------------------------------------------
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
        return worst_state(states)

    def ecu_state(self) -> MonitorState:
        """Derived global ECU state: worst of all known task states."""
        states = [self.task_state(task) for task in self._known_tasks()]
        return worst_state(states)

    def clear_task(self, task: str) -> None:
        """Forget a task's errors (after the FMF restarted it)."""
        self.error_vectors.pop(task, None)
        self.faulty_tasks.pop(task, None)
        self._update_ecu_state(time=self.last_error_time)

    def snapshot_state(self) -> Dict[str, object]:
        """JSON-compatible aggregation state (daemon persistence): the
        error indication vectors, declared-faulty tasks, the last error
        time, lazily-learned attribution, and the last derived ECU state.

        The runnable-to-task map is ``{}`` while it is still the
        configured one shared with the hypothesis (the record's
        hypothesis holds that); once an entry is learned it is the
        unit's own map, copied.
        """
        return {
            "error_vectors": {
                task: error_counts_to_json(vector)
                for task, vector in self.error_vectors.items()
            },
            "faulty_tasks": {
                task: event.to_dict()
                for task, event in self.faulty_tasks.items()
            },
            "errors_recorded": self.errors_recorded,
            "last_error_time": self.last_error_time,
            "task_of_runnable": (
                dict(self.task_of_runnable) if self._owns_task_map else {}),
            "last_ecu_state": self._last_ecu_state.value,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Resume from a :meth:`snapshot_state` capture.

        Captures written before ``last_error_time`` existed carry the
        full ``error_log`` instead; its last entry supplies the time.
        Learned attributions are added to a copy of the configured map;
        older captures' full maps read the same, because
        :meth:`record_error` never overwrites a configured entry.
        """
        before = self.errors_recorded
        self.error_vectors = {
            task: error_counts_from_json(vector)
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
        learned = {runnable: task for runnable, task
                   in state["task_of_runnable"].items()
                   if runnable not in self.task_of_runnable}
        if learned:
            self.task_of_runnable = {**self.task_of_runnable, **learned}
            self._owns_task_map = True
        self._last_ecu_state = MonitorState(state["last_ecu_state"])
        # Exported counters count only this process's work.
        self._tm_base += self.errors_recorded - before

    def reset(self) -> None:
        """Full reset (ECU software reset)."""
        self.error_vectors.clear()
        self.faulty_tasks.clear()
        self._tm_base -= self.errors_recorded  # counters stay monotonic
        self.errors_recorded = 0
        self.last_error_time = 0
        self._last_ecu_state = MonitorState.OK

    # ------------------------------------------------------------------
    def _known_tasks(self) -> List[str]:
        seen: Dict[str, None] = {}
        for task in self.app_of_task:
            seen.setdefault(task, None)
        for task in self.task_of_runnable.values():
            seen.setdefault(task, None)
        for task in self.error_vectors:
            seen.setdefault(task, None)
        return list(seen)

    def _metrics(self) -> Iterator[Sample]:
        """The registry's read of this unit (a telemetry source): one
        state series per known task and application."""
        watchdog = self._tm_watchdog
        yield ("wd_tsi_errors_recorded_total", (),
               self.errors_recorded - self._tm_base)
        yield "wd_tsi_faulty_tasks", (), len(self.faulty_tasks)
        ranks = {task: MONITOR_STATE_RANK[self.task_state(task)]
                 for task in self._known_tasks()}
        for task, rank in ranks.items():
            yield "wd_tsi_task_state", (("task", task), watchdog), rank
        app_ranks: Dict[str, int] = {}
        for task, app in self.app_of_task.items():
            app_ranks[app] = max(app_ranks.get(app, 0), ranks[task])
        for app, rank in app_ranks.items():
            yield ("wd_tsi_application_state",
                   (("application", app), watchdog), rank)
        yield "wd_tsi_ecu_state", (watchdog,), max(ranks.values(), default=0)

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
