"""The Software Watchdog service facade (Figure 2 of the paper).

Wires the three basic units together:

* heartbeats from runnable glue code enter through
  :meth:`SoftwareWatchdog.heartbeat_indication` and feed **both** the
  heartbeat monitoring unit and the program flow checking unit (the
  paper derives the execution-sequence view from the same aliveness
  indication routines),
* both units report runnable errors into the task state indication
  unit, which aggregates, applies thresholds and derives task /
  application / ECU states,
* detected faults and task-fault events are forwarded to registered
  listeners — on the platform this is the Fault Management Framework.

The facade also keeps the cumulative detection counters the paper's
evaluation plots show (``AM Result``, ``ARM Result`` and ``PFC Result``
in Figures 5 and 6) and an optional per-cycle capture of every monitored
runnable's counter set.
"""

from __future__ import annotations

import warnings as _warnings
from typing import Callable, Dict, List, Optional

from ..telemetry import (
    NULL_REGISTRY,
    NULL_SINK,
    KIND_DETECTION,
    KIND_ECU_STATE_CHANGE,
    KIND_LINT_WARNING,
    KIND_TASK_FAULT,
    TelemetryEvent,
)
from .counters import CounterHistory
from .flowcheck import ProgramFlowCheckingUnit
from .heartbeat import HeartbeatMonitoringUnit, _TM_SYNC_INTERVAL
from .hypothesis import FaultHypothesis
from .reports import (
    ErrorType,
    MonitorState,
    RunnableError,
    TaskFaultEvent,
    error_counts_from_json,
    error_counts_to_json,
)
from .taskstate import TaskStateIndicationUnit

FaultListener = Callable[[RunnableError], None]

_ERROR_TYPES = tuple(ErrorType)


class SoftwareWatchdog:
    """The complete dependability software service of the paper.

    The static half of the service — slot interning, the flow table,
    the task attribution — comes from
    :meth:`FaultHypothesis.static_tables` and is shared read-only by
    every watchdog built from the same hypothesis object; what each
    watchdog owns is its run-time state (counters, error vectors).
    """

    __slots__ = (
        "telemetry", "event_sink", "_tm_enabled", "name", "hypothesis",
        "hbm", "pfc", "tsi", "detected", "detected_per_runnable",
        "history", "_fault_listeners",
    )

    def __init__(
        self,
        hypothesis: FaultHypothesis,
        *,
        name: str = "SoftwareWatchdog",
        eager_arrival_detection: bool = False,
        app_of_task: Optional[Dict[str, str]] = None,
        lint: str = "warn",
        telemetry=None,
        event_sink=None,
    ) -> None:
        if lint not in ("error", "warn", "off"):
            raise ValueError(f"unknown lint mode {lint!r} "
                             "(expected 'error', 'warn' or 'off')")
        # Telemetry knobs mirror ``lint=``: optional, default inert.  The
        # registry fans out to the three units; the event sink receives
        # structured JSONL-able records for detections, task faults, ECU
        # state changes and lint warnings.
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        self.event_sink = event_sink if event_sink is not None else NULL_SINK
        self._tm_enabled = self.telemetry.enabled
        hypothesis.validate()
        if lint != "off":
            self._lint_hypothesis(hypothesis, mode=lint, source=name)
        self.name = name
        self.hypothesis = hypothesis
        tables = hypothesis.static_tables()
        self.hbm = HeartbeatMonitoringUnit(
            hypothesis,
            eager_arrival_detection=eager_arrival_detection,
            telemetry=telemetry,
        )
        self.pfc = ProgramFlowCheckingUnit(
            tables.flow_table,
            task_attribution=tables.task_of_runnable,
            telemetry=telemetry,
        )
        self.tsi = TaskStateIndicationUnit(
            hypothesis.thresholds,
            task_of_runnable=tables.task_of_runnable,
            app_of_task=app_of_task,
            task_of_slot=tables.task_of_slot,
            telemetry=telemetry,
        )
        self.hbm.add_listener(self._on_runnable_error)
        self.pfc.add_listener(self._on_runnable_error)
        #: Cumulative detections per error type (the y-values of the
        #: "AM Result" / "PFC Result" plots): :attr:`detected_per_runnable`
        #: summed per type, kept for the readers that poll it per cycle.
        self.detected: Dict[ErrorType, int] = dict.fromkeys(_ERROR_TYPES, 0)
        #: Cumulative detections per (runnable, error type).
        self.detected_per_runnable: Dict[str, Dict[ErrorType, int]] = {}
        self.history: Optional[CounterHistory] = None
        self._fault_listeners: List[FaultListener] = []
        if self._tm_enabled:
            # Create every series up front so exports show zeros.
            for et in _ERROR_TYPES:
                self._detection_counter(et)
        if self.event_sink.enabled:
            self.tsi.add_task_fault_listener(self._emit_task_fault_event)
            self.tsi.add_ecu_state_listener(self._emit_ecu_state_event)

    # ------------------------------------------------------------------
    def _lint_hypothesis(
        self, hypothesis: FaultHypothesis, *, mode: str, source: str
    ) -> None:
        """Construction-time wdlint pass (the ``lint=`` knob).

        ``"error"`` refuses to build a watchdog from a hypothesis with
        error-severity diagnostics; ``"warn"`` (the default) surfaces
        every diagnostic as a :class:`~repro.lint.LintWarning` and
        proceeds.  Configuration-only analyses run here — the WD3xx
        schedule cross-checks need the task mapping, which the service
        facade deliberately does not know (lint deployments against it
        via ``python -m repro lint`` or :func:`repro.lint.lint_hypothesis`).
        """
        from ..lint import LintError, LintWarning, lint_hypothesis

        report = lint_hypothesis(hypothesis, source=source)
        if mode == "error" and not report.ok:
            raise LintError(report)
        for diagnostic in report.diagnostics:
            _warnings.warn(str(diagnostic), LintWarning, stacklevel=3)
            if self.event_sink.enabled:
                self.event_sink.emit(TelemetryEvent(
                    time=0,
                    kind=KIND_LINT_WARNING,
                    subject=source,
                    data={
                        "code": diagnostic.code,
                        "severity": diagnostic.severity.value,
                        "message": diagnostic.message,
                    },
                ))

    # ------------------------------------------------------------------
    # service interfaces (the two main interfaces of §4.4)
    # ------------------------------------------------------------------
    def heartbeat_indication(
        self, runnable: str, time: int, task: Optional[str] = None
    ) -> None:
        """Interface 1: application glue code reports an aliveness
        indication.  Feeds flow checking first (the execution-sequence
        view), then the heartbeat counters.

        One dict lookup interns the runnable name to its slot; the rest
        of the path works on flat slot-indexed storage.  A runnable with
        Activation Status ``False`` is invisible to *both* units: a
        deliberately deactivated runnable (e.g. of a terminated
        application) must neither raise PROGRAM_FLOW errors nor perturb
        its task's stream predecessor.
        """
        hbm = self.hbm
        slot = hbm.slot_of.get(runnable)
        if slot is None:
            # Corrupted identifier: count it, and let the PFC unit see
            # it (unknown runnables are transparent to flow checking).
            hbm.unknown_heartbeats += 1
            self.pfc.observe(runnable, time, task)
            return
        if not hbm.slot_active(slot):
            return
        self.pfc.observe(runnable, time, task)
        hbm.heartbeat_slot(slot, time, task)

    def add_fault_listener(self, listener: FaultListener) -> None:
        """Interface 2: subscribe to detected faults (the FMF hook)."""
        self._fault_listeners.append(listener)

    def add_task_fault_listener(self, listener: Callable[[TaskFaultEvent], None]) -> None:
        """Subscribe to task-faulty threshold events."""
        self.tsi.add_task_fault_listener(listener)

    # ------------------------------------------------------------------
    # periodic check
    # ------------------------------------------------------------------
    @property
    def check_cycle_count(self) -> int:
        """Check cycles since construction or reset (the HBM's count)."""
        return self.hbm.cycle_count

    def check_cycle(self, time: int) -> List[RunnableError]:
        """One watchdog check cycle ("shortly before the next period
        begins"): advance all cycle counters, evaluate bounds, emit
        errors, and capture history if enabled."""
        errors = self.hbm.cycle(time)
        if self._tm_enabled and self.hbm.cycle_count % _TM_SYNC_INTERVAL == 0:
            self.pfc.sync_telemetry()
        if self.history is not None:
            self._capture(time)
        return errors

    def sync_telemetry(self) -> None:
        """Fold every unit's plain-int tallies into the registry.

        :meth:`check_cycle` already does this once per cycle; call it
        explicitly before rendering a snapshot taken mid-cycle."""
        self.hbm.sync_telemetry()
        self.pfc.sync_telemetry()

    def withdraw_telemetry(self) -> None:
        """Take this watchdog's share back out of the gauges every unit
        on its registry sums into; for a watchdog being discarded while
        the registry lives on (a daemon replacing its fleet)."""
        self.hbm.withdraw_telemetry()
        self.tsi.withdraw_telemetry()

    def notify_task_start(self, task: str) -> None:
        """Inform the PFC unit that a task activation began (the stream
        restarts at a legal entry point)."""
        self.pfc.reset_stream(task)

    def set_activation_status(self, runnable: str, active: bool) -> None:
        """Enable/disable monitoring of one runnable (the AS switch)."""
        self.hbm.set_activation_status(runnable, active)

    # ------------------------------------------------------------------
    # state queries
    # ------------------------------------------------------------------
    def runnable_state(self, runnable: str) -> MonitorState:
        return self.tsi.runnable_state(runnable)

    def task_state(self, task: str) -> MonitorState:
        return self.tsi.task_state(task)

    def application_state(self, application: str) -> MonitorState:
        return self.tsi.application_state(application)

    def ecu_state(self) -> MonitorState:
        return self.tsi.ecu_state()

    def supervision_reports(self, time: int):
        """Individual supervision reports on runnables (§3.2.3): one per
        monitored runnable, carrying its derived state and error counts.
        These are what downstream services consume to decide treatments
        "depending on the source, type and severity of the detected
        faults"."""
        return self.tsi.supervision_reports(time)

    def detection_count(
        self, error_type: Optional[ErrorType] = None, runnable: Optional[str] = None
    ) -> int:
        """Cumulative number of detections matching the filters."""
        if runnable is None:
            if error_type is None:
                return sum(self.detected.values())
            return self.detected[error_type]
        per_type = self.detected_per_runnable.get(runnable, {})
        if error_type is None:
            return sum(per_type.values())
        return per_type.get(error_type, 0)

    # ------------------------------------------------------------------
    # capture (ControlDesk-style traces)
    # ------------------------------------------------------------------
    def enable_capture(self) -> CounterHistory:
        """Record, at every check cycle, the counters of every monitored
        runnable plus the cumulative AM/ARM/PFC result curves."""
        self.history = CounterHistory()
        return self.history

    def _capture(self, time: int) -> None:
        assert self.history is not None
        sample: Dict[str, int] = {}
        for name in self.hypothesis.runnables:
            snapshot = self.hbm.snapshot(name)
            for key, value in snapshot.items():
                sample[f"{name}.{key}"] = value
        sample["AM_Result"] = self.detected[ErrorType.ALIVENESS]
        sample["ARM_Result"] = self.detected[ErrorType.ARRIVAL_RATE]
        sample["PFC_Result"] = self.detected[ErrorType.PROGRAM_FLOW]
        for task in self.hypothesis.tasks():
            sample[f"TaskState.{task}"] = int(
                self.tsi.task_state(task) is MonitorState.FAULTY
            )
        self.history.capture(time, sample)

    # ------------------------------------------------------------------
    # persistence (the daemon's snapshot/restore path)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """Full JSON-compatible service state: every unit's monitoring
        state plus the cumulative detections per runnable.

        Restoring this capture onto a watchdog built from the same
        hypothesis (same construction knobs) resumes supervision
        bit-identically — the contract the restartable daemon's
        differential tests pin.  What derives from it is not stored:
        the per-type totals and the check-cycle count (the HBM's).
        """
        return {
            "detected_per_runnable": error_counts_to_json(
                self.detected_per_runnable),
            "hbm": self.hbm.snapshot_state(),
            "pfc": self.pfc.snapshot_state(),
            "tsi": self.tsi.snapshot_state(),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Resume from a :meth:`snapshot_state` capture (older captures'
        derived ``detected`` and ``check_cycle_count`` are ignored)."""
        per_runnable = error_counts_from_json(state["detected_per_runnable"])
        self.detected_per_runnable = per_runnable
        self.detected = {
            et: sum(counts.get(et, 0) for counts in per_runnable.values())
            for et in _ERROR_TYPES}
        self.hbm.restore_state(state["hbm"])
        self.pfc.restore_state(state["pfc"])
        self.tsi.restore_state(state["tsi"])

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Full service reset (ECU software reset)."""
        self.hbm.reset()
        self.pfc.reset_all()
        self.tsi.reset()
        self.detected = dict.fromkeys(_ERROR_TYPES, 0)
        self.detected_per_runnable.clear()

    # ------------------------------------------------------------------
    def _on_runnable_error(self, error: RunnableError) -> None:
        self.detected[error.error_type] += 1
        per_type = self.detected_per_runnable.setdefault(error.runnable, {})
        per_type[error.error_type] = per_type.get(error.error_type, 0) + 1
        if self._tm_enabled:
            self._detection_counter(error.error_type).inc()
        if self.event_sink.enabled:
            self.event_sink.emit(TelemetryEvent(
                time=error.time,
                kind=KIND_DETECTION,
                subject=error.runnable,
                data={
                    "error_type": error.error_type.value,
                    "task": error.task,
                    "details": dict(error.details or {}),
                },
            ))
        self.tsi.record_error(error)
        for listener in self._fault_listeners:
            listener(error)

    def _detection_counter(self, error_type: ErrorType):
        """The registry's detection counter for ``error_type``, looked up
        per detection (rare) rather than held by every watchdog."""
        return self.telemetry.counter(
            "wd_detections_total",
            "Detected runnable errors by error type",
            error_type=error_type._value_,
        )

    def _emit_task_fault_event(self, event: TaskFaultEvent) -> None:
        self.event_sink.emit(TelemetryEvent(
            time=event.time,
            kind=KIND_TASK_FAULT,
            subject=event.task,
            data={
                "trigger_runnable": event.trigger_runnable,
                "trigger_error_type": event.trigger_error_type.value,
                "error_vector": error_counts_to_json(event.error_vector),
            },
        ))

    def _emit_ecu_state_event(self, change) -> None:
        self.event_sink.emit(TelemetryEvent(
            time=change.time,
            kind=KIND_ECU_STATE_CHANGE,
            subject=self.name,
            data={
                "old_state": change.old_state.value,
                "new_state": change.new_state.value,
                "faulty_tasks": list(change.faulty_tasks),
            },
        ))
