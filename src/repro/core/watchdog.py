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
  Listeners are the watchdog's one way out: the telemetry event stream
  is a subscriber too (:class:`repro.telemetry.WatchdogEvents`).

The facade also keeps the cumulative detection counters the paper's
evaluation plots show (``AM Result``, ``ARM Result`` and ``PFC Result``
in Figures 5 and 6).
"""

from __future__ import annotations

import warnings as _warnings
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..telemetry import NULL_REGISTRY, Sample, rebase
from .flowcheck import ProgramFlowCheckingUnit
from .heartbeat import HeartbeatMonitoringUnit
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

_TM_FAMILIES = (
    ("wd_detections_total", "counter",
     "Detected runnable errors by error type"),
)


class SoftwareWatchdog:
    """The complete dependability software service of the paper.

    The static half of the service — slot interning, the flow table,
    the task attribution — comes from
    :meth:`FaultHypothesis.static_tables` and is shared read-only by
    every watchdog built from the same hypothesis object; what each
    watchdog owns is its run-time state (counters, error vectors).
    """

    __slots__ = (
        "telemetry", "lint_report", "name", "hypothesis",
        "hbm", "pfc", "tsi", "detected", "detected_per_runnable",
        "_fault_listeners", "_tm_base",
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
    ) -> None:
        if lint not in ("error", "warn", "off"):
            raise ValueError(f"unknown lint mode {lint!r} "
                             "(expected 'error', 'warn' or 'off')")
        # The telemetry knob mirrors ``lint=``: optional, default inert.
        # The registry reads the facade and its three units at export
        # time.
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        hypothesis.validate()
        #: The construction-time wdlint report (``None`` under
        #: ``lint="off"``); an event subscriber replays its diagnostics.
        self.lint_report = (
            self._lint_hypothesis(hypothesis, mode=lint, source=name)
            if lint != "off" else None)
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
            watchdog=name,
        )
        self.hbm.add_listener(self._on_runnable_error)
        self.pfc.add_listener(self._on_runnable_error)
        #: Cumulative detections per error type (the y-values of the
        #: "AM Result" / "PFC Result" plots): :attr:`detected_per_runnable`
        #: summed per type, kept for the readers that poll it per cycle.
        self.detected: Dict[ErrorType, int] = dict.fromkeys(_ERROR_TYPES, 0)
        #: Cumulative detections per (runnable, error type).
        self.detected_per_runnable: Dict[str, Dict[ErrorType, int]] = {}
        self._fault_listeners: List[FaultListener] = []
        #: Subtracted from :meth:`_tallies` on export (see ``rebase``).
        self._tm_base = (0,) * len(_ERROR_TYPES)
        self.telemetry.add_source(_TM_FAMILIES, self._metrics)

    # ------------------------------------------------------------------
    def _lint_hypothesis(
        self, hypothesis: FaultHypothesis, *, mode: str, source: str
    ):
        """Construction-time wdlint pass (the ``lint=`` knob); returns
        the report.

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
        return report

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
        begins"): advance all cycle counters, evaluate bounds and emit
        errors."""
        return self.hbm.cycle(time)

    def withdraw_telemetry(self) -> None:
        """Stop the registry reading this watchdog and its units; for a
        watchdog discarded while the registry lives on."""
        for unit in (self, self.hbm, self.pfc, self.tsi):
            self.telemetry.remove_source(unit._metrics)

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
    def task_state(self, task: str) -> MonitorState:
        return self.tsi.task_state(task)

    def application_state(self, application: str) -> MonitorState:
        return self.tsi.application_state(application)

    def ecu_state(self) -> MonitorState:
        return self.tsi.ecu_state()

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
        before = self._tallies()
        per_runnable = error_counts_from_json(state["detected_per_runnable"])
        self.detected_per_runnable = per_runnable
        self.detected = {
            et: sum(counts.get(et, 0) for counts in per_runnable.values())
            for et in _ERROR_TYPES}
        # Exported counters count only this process's work.
        self._tm_base = rebase(self._tm_base, before, self._tallies())
        self.hbm.restore_state(state["hbm"])
        self.pfc.restore_state(state["pfc"])
        self.tsi.restore_state(state["tsi"])

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Full service reset (ECU software reset)."""
        self.hbm.reset()
        self.pfc.reset_all()
        self.tsi.reset()
        before = self._tallies()
        self.detected = dict.fromkeys(_ERROR_TYPES, 0)
        self.detected_per_runnable.clear()
        # Exported counters stay monotonic across the reset.
        self._tm_base = rebase(self._tm_base, before, self._tallies())

    def _tallies(self) -> Tuple[int, ...]:
        return tuple(self.detected[et] for et in _ERROR_TYPES)

    def _metrics(self) -> Iterator[Sample]:
        """The registry's read of the detections (a telemetry source)."""
        for et, base in zip(_ERROR_TYPES, self._tm_base):
            yield ("wd_detections_total", (("error_type", et._value_),),
                   self.detected[et] - base)

    # ------------------------------------------------------------------
    def _on_runnable_error(self, error: RunnableError) -> None:
        """Count one detection, report it, then let the TSI aggregate
        it: a listener hears the cause before the task fault or state
        change it leads to."""
        self.detected[error.error_type] += 1
        per_type = self.detected_per_runnable.setdefault(error.runnable, {})
        per_type[error.error_type] = per_type.get(error.error_type, 0) + 1
        for listener in self._fault_listeners:
            listener(error)
        self.tsi.record_error(error)
