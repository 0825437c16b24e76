"""Fault Management Framework (FMF).

"A general fault treatment system that gathers the information on the
detected faults, and informs the applications about the fault
detection" (§4.4).  The Software Watchdog reports detected faults here;
the FMF classifies them and coordinates treatment (§3.4) through an
abstract :class:`EcuActions` interface implemented by the ECU model:

* global ECU state faulty → software reset (if every affected
  application's constraints allow it),
* global ECU state OK → restart or terminate the faulty application
  software components.

The paper's third treatment, restarting the remaining tasks of a
terminated application via OS services, is not ordered: termination
force-terminates and mutes the application's exclusive tasks instead
(DESIGN.md §7).

The policy adds one pragmatic element the paper's outlook anticipates
("fault handling strategies ... dynamic reconfiguration"): repeated
application restarts within a bounded budget escalate to an ECU reset.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Protocol

from ..core.reports import ErrorType, RunnableError, TaskFaultEvent
from ..telemetry import (
    KIND_TREATMENT, NULL_REGISTRY, Sample, TelemetryEvent,
)
from .application import Application


#: The families the FMF reports, counted from its logs at export time.
_TM_FAMILIES = (
    ("fmf_faults_total", "counter", "Faults recorded by the FMF, by category"),
    ("fmf_treatments_total", "counter",
     "Treatments carried out by the FMF, by action"),
)


class Severity(enum.IntEnum):
    """Classification of a reported fault."""

    INFO = 0
    MINOR = 1
    MAJOR = 2
    CRITICAL = 3


class TreatmentAction(enum.Enum):
    """Fault treatments the FMF can order (§3.4)."""

    NONE = "none"
    RESTART_APPLICATION = "restart_application"
    TERMINATE_APPLICATION = "terminate_application"
    ECU_RESET = "ecu_reset"


@dataclass(frozen=True)
class FaultRecord:
    """One fault as recorded by the FMF."""

    time: int
    source: str
    subject: str
    category: str
    severity: Severity
    details: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class TreatmentRecord:
    """One treatment the FMF carried out."""

    time: int
    action: TreatmentAction
    subject: str
    reason: str


class EcuActions(Protocol):
    """Treatment primitives the hosting ECU must provide."""

    def software_reset(self) -> None: ...

    def restart_application(self, application: Application) -> None: ...

    def terminate_application(self, application: Application) -> None: ...

    def applications_on_task(self, task: str) -> List[Application]: ...

    def faulty_task_count(self) -> int: ...

    def current_time(self) -> int: ...


@dataclass
class FmfPolicy:
    """Tunable treatment policy.

    ``ecu_faulty_task_threshold`` defines the "global view": the ECU
    state is considered faulty once at least this many tasks are faulty
    simultaneously.  ``max_app_restarts`` bounds per-application restart
    attempts before escalating to an ECU reset.
    """

    ecu_faulty_task_threshold: int = 2
    max_app_restarts: int = 3
    severity_map: Dict[ErrorType, Severity] = field(
        default_factory=lambda: {
            ErrorType.ALIVENESS: Severity.MAJOR,
            ErrorType.ARRIVAL_RATE: Severity.MAJOR,
            ErrorType.PROGRAM_FLOW: Severity.CRITICAL,
        }
    )


class FaultManagementFramework:
    """The platform's general fault handling service."""

    def __init__(
        self,
        ecu: Optional[EcuActions] = None,
        policy: Optional[FmfPolicy] = None,
        *,
        name: str = "FaultManagementFramework",
        telemetry=None,
        event_sink=None,
    ) -> None:
        self.name = name
        self.ecu = ecu
        self.policy = policy or FmfPolicy()
        self.fault_log: List[FaultRecord] = []
        self.treatment_log: List[TreatmentRecord] = []
        self.app_restart_counts: Dict[str, int] = {}
        self.event_sink = event_sink
        (telemetry or NULL_REGISTRY).add_source(_TM_FAMILIES, self._metrics)

    # ------------------------------------------------------------------
    # fault intake
    # ------------------------------------------------------------------
    def report_fault(self, record: FaultRecord) -> None:
        """Generic fault-report interface (any platform module may call)."""
        self.fault_log.append(record)

    def on_runnable_error(self, error: RunnableError) -> None:
        """Adapter for the watchdog's detected-fault interface."""
        severity = self.policy.severity_map.get(error.error_type, Severity.MAJOR)
        self.report_fault(
            FaultRecord(
                time=error.time,
                source="SoftwareWatchdog",
                subject=error.runnable,
                category=error.error_type.value,
                severity=severity,
                details=dict(error.details, task=error.task),
            )
        )

    # ------------------------------------------------------------------
    # treatment (§3.4)
    # ------------------------------------------------------------------
    def on_task_fault(self, event: TaskFaultEvent) -> None:
        """Coordinated treatment when the TSI declares a task faulty."""
        self.report_fault(
            FaultRecord(
                time=event.time,
                source="SoftwareWatchdog.TSI",
                subject=event.task,
                category="task_faulty",
                severity=Severity.CRITICAL,
                details={
                    "trigger_runnable": event.trigger_runnable,
                    "trigger_error_type": event.trigger_error_type.value,
                },
            )
        )
        if self.ecu is None:
            return
        applications = self.ecu.applications_on_task(event.task)
        if self._ecu_globally_faulty(applications):
            self._treat_ecu_faulty(event, applications)
        else:
            self._treat_ecu_ok(event, applications)

    # ------------------------------------------------------------------
    def _ecu_globally_faulty(self, applications: List[Application]) -> bool:
        assert self.ecu is not None
        if self.ecu.faulty_task_count() >= self.policy.ecu_faulty_task_threshold:
            return True
        for app in applications:
            if self.app_restart_counts.get(app.name, 0) >= self.policy.max_app_restarts:
                return True
        return False

    def _treat_ecu_faulty(
        self, event: TaskFaultEvent, applications: List[Application]
    ) -> None:
        assert self.ecu is not None
        if all(app.ecu_reset_allowed for app in applications) or not applications:
            self._record_treatment(
                TreatmentAction.ECU_RESET, "ECU", "global ECU state faulty"
            )
            self.app_restart_counts.clear()
            self.ecu.software_reset()
            return
        # Reset is vetoed by application constraints: fall back to
        # terminating the applications that do not allow a reset path.
        for app in applications:
            self._record_treatment(
                TreatmentAction.TERMINATE_APPLICATION,
                app.name,
                "ECU faulty but reset vetoed by application constraints",
            )
            self.ecu.terminate_application(app)

    def _treat_ecu_ok(
        self, event: TaskFaultEvent, applications: List[Application]
    ) -> None:
        assert self.ecu is not None
        for app in applications:
            if app.restartable:
                self.app_restart_counts[app.name] = (
                    self.app_restart_counts.get(app.name, 0) + 1
                )
                self._record_treatment(
                    TreatmentAction.RESTART_APPLICATION,
                    app.name,
                    f"task {event.task!r} faulty, application restartable",
                )
                self.ecu.restart_application(app)
            else:
                self._record_treatment(
                    TreatmentAction.TERMINATE_APPLICATION,
                    app.name,
                    f"task {event.task!r} faulty, application not restartable",
                )
                self.ecu.terminate_application(app)

    def _record_treatment(self, action: TreatmentAction, subject: str, reason: str) -> None:
        time = self.ecu.current_time() if self.ecu is not None else 0
        self.treatment_log.append(
            TreatmentRecord(time=time, action=action, subject=subject, reason=reason)
        )
        if self.event_sink is not None:
            self.event_sink.emit(TelemetryEvent(
                time=time,
                kind=KIND_TREATMENT,
                subject=subject,
                data={"action": action.value, "reason": reason},
            ))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def faults_by_category(self) -> Dict[str, int]:
        """Histogram of recorded fault categories."""
        out: Dict[str, int] = {}
        for record in self.fault_log:
            out[record.category] = out.get(record.category, 0) + 1
        return out

    def treatments_by_action(self) -> Dict[TreatmentAction, int]:
        """Histogram of carried-out treatments."""
        out: Dict[TreatmentAction, int] = {}
        for record in self.treatment_log:
            out[record.action] = out.get(record.action, 0) + 1
        return out

    def _metrics(self) -> Iterator[Sample]:
        """The registry's read of the two logs (a telemetry source)."""
        for category, count in self.faults_by_category().items():
            yield "fmf_faults_total", (("category", category),), count
        for action, count in self.treatments_by_action().items():
            yield "fmf_treatments_total", (("action", action.value),), count
