"""The ECU model: one node's complete software platform.

:class:`Ecu` integrates everything one EASIS node runs:

* the simulated OSEK kernel with its alarm table,
* the application system built from a :class:`TaskMapping` (tasks,
  sequence charts, runnables, cyclic release alarms),
* the Software Watchdog (with glue code installed on every runnable and
  the periodic check task bound into the kernel),
* the Fault Management Framework, subscribed by direct listener calls
  to the watchdog's two fault interfaces, and the treatment primitives
  of §3.4 it orders (software reset, application restart and
  termination).

The layered module/interface model of Figure 1 is structural only
(:func:`~repro.platform.layers.build_easis_topology`); no ECU builds it.

This is the object examples and the HIL validator instantiate; it is
the simulated counterpart of the AutoBox central node of §4.2.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..core.integration import WatchdogTaskBinding, install_glue_on_all
from ..core.reports import MonitorState
from ..core.watchdog import SoftwareWatchdog
from ..kernel.alarms import AlarmTable
from ..kernel.clock import ms
from ..kernel.scheduler import Kernel
from ..kernel.tracing import TraceKind
from ..telemetry import WatchdogEvents
from .application import Application, BuiltSystem, SystemBuilder, TaskMapping
from .fmf import FaultManagementFramework, FaultRecord, FmfPolicy, Severity


class Ecu:
    """One simulated ECU hosting applications under watchdog supervision."""

    def __init__(
        self,
        name: str,
        mapping: TaskMapping,
        *,
        watchdog_period: int = ms(10),
        watchdog_priority: Optional[int] = None,
        watchdog_check_cost: int = 0,
        aliveness_margin: float = 1.5,
        arrival_margin: float = 1.5,
        fmf_policy: Optional[FmfPolicy] = None,
        fmf_auto_treatment: bool = True,
        watchdog_name: str = "SoftwareWatchdog",
        eager_arrival_detection: bool = False,
        lint: str = "warn",
        trace_capacity: Optional[int] = None,
        kernel: Optional[Kernel] = None,
        telemetry=None,
        event_sink=None,
    ) -> None:
        self.name = name
        self.mapping = mapping
        # The HIL validator runs several node models on one shared time
        # base, so the central ECU can be given an existing kernel.
        self.kernel = kernel or Kernel(trace_capacity=trace_capacity)
        self.alarms = AlarmTable(self.kernel)
        builder = SystemBuilder(
            mapping,
            watchdog_period=watchdog_period,
            aliveness_margin=aliveness_margin,
            arrival_margin=arrival_margin,
        )
        self.system: BuiltSystem = builder.build(self.kernel, self.alarms)

        app_of_task = {
            task: apps[0].name
            for task in mapping.task_specs
            for apps in [mapping.applications_on_task(task)]
            if apps
        }
        # A distinct watchdog name keeps task names unique when several
        # ECUs share one simulated time base (the multi-ECU validator).
        self.watchdog = SoftwareWatchdog(
            self.system.hypothesis,
            name=watchdog_name,
            eager_arrival_detection=eager_arrival_detection,
            app_of_task=app_of_task,
            lint=lint,
            telemetry=telemetry,
        )
        # The event stream subscribes first, so a detection is recorded
        # before the FMF's treatment of it.
        if event_sink is not None:
            WatchdogEvents(event_sink).attach(self.watchdog)
        install_glue_on_all(self.watchdog, self.system.runnables.values())
        if watchdog_priority is None:
            highest_app = max(
                (spec.priority for spec in mapping.task_specs.values()), default=0
            )
            watchdog_priority = highest_app + 10
        self.binding = WatchdogTaskBinding(
            self.kernel,
            self.alarms,
            self.watchdog,
            period=watchdog_period,
            priority=watchdog_priority,
            check_cost=watchdog_check_cost,
        )

        self.fmf = FaultManagementFramework(
            self, fmf_policy, telemetry=telemetry, event_sink=event_sink
        )
        self.watchdog.add_fault_listener(self.fmf.on_runnable_error)
        if fmf_auto_treatment:
            self.watchdog.add_task_fault_listener(self.fmf.on_task_fault)
        else:
            # Observation mode (used when reproducing the paper's
            # figures): faults are logged but no treatment is driven, so
            # derived task states stay visible in captures.
            self.watchdog.add_task_fault_listener(
                lambda event: self.fmf.report_fault(
                    FaultRecord(
                        time=event.time,
                        source="SoftwareWatchdog.TSI",
                        subject=event.task,
                        category="task_faulty",
                        severity=Severity.CRITICAL,
                    )
                )
            )

        self.terminated_applications: Set[str] = set()
        self.application_restart_counts: Dict[str, int] = {}
        self.task_restart_counts: Dict[str, int] = {}
        self.reset_times: List[int] = []

    # ------------------------------------------------------------------
    # simulation control
    # ------------------------------------------------------------------
    def run_until(self, end_time: int) -> None:
        """Advance the ECU's simulation to ``end_time``."""
        self.kernel.run_until(end_time)

    @property
    def now(self) -> int:
        return self.kernel.clock.now

    # ------------------------------------------------------------------
    # EcuActions interface for the FMF (§3.4 treatment primitives)
    # ------------------------------------------------------------------
    def current_time(self) -> int:
        return self.kernel.clock.now

    def faulty_task_count(self) -> int:
        return len(self.watchdog.tsi.faulty_tasks)

    def applications_on_task(self, task: str) -> List[Application]:
        return self.mapping.applications_on_task(task)

    def software_reset(self) -> None:
        """Full ECU software reset: OS restart, schedule re-armed,
        watchdog state cleared, terminated applications come back.

        The FMF's fault/treatment logs survive (non-volatile memory on a
        real ECU); injected *software* faults also survive — a reset does
        not fix a bug, only transient state.
        """
        self.reset_times.append(self.kernel.clock.now)
        self.kernel.soft_reset()
        self.alarms.rearm_after_reset()
        self.watchdog.reset()
        self.terminated_applications.clear()

    def restart_application(self, application: Application) -> None:
        """Restart every task hosting one of the application's runnables."""
        self.application_restart_counts[application.name] = (
            self.application_restart_counts.get(application.name, 0) + 1
        )
        self.kernel.trace.record(
            self.kernel.clock.now,
            TraceKind.CUSTOM,
            application.name,
            action="restart_application",
        )
        for task in self.mapping.tasks_of_application(application):
            self._restart_task_internal(task)
        self.terminated_applications.discard(application.name)

    def terminate_application(self, application: Application) -> None:
        """Terminate the application: stop releasing its exclusive tasks."""
        self.terminated_applications.add(application.name)
        self.kernel.trace.record(
            self.kernel.clock.now,
            TraceKind.CUSTOM,
            application.name,
            action="terminate_application",
        )
        for task in self.mapping.tasks_of_application(application):
            owners = self.mapping.applications_on_task(task)
            if all(app.name in self.terminated_applications for app in owners):
                alarm = self.alarms.alarms.get(f"{task}Alarm")
                if alarm is not None and alarm.armed:
                    alarm.cancel()
                self.kernel.force_terminate(task)
                self.watchdog.tsi.clear_task(task)
                # Stop monitoring the terminated task's runnables: they
                # are legitimately silent now.
                for runnable in self.mapping.placement.get(task, []):
                    self.watchdog.set_activation_status(runnable, False)

    # ------------------------------------------------------------------
    def _restart_task_internal(self, task: str) -> None:
        self.task_restart_counts[task] = self.task_restart_counts.get(task, 0) + 1
        self.kernel.force_terminate(task)
        self.watchdog.tsi.clear_task(task)
        self.watchdog.notify_task_start(task)
        # Re-arm the task's release alarm in case it was cancelled by an
        # earlier termination.
        alarm = self.alarms.alarms.get(f"{task}Alarm")
        if alarm is not None and not alarm.armed and alarm.cycle > 0:
            alarm.set_rel(alarm.cycle, alarm.cycle)
        for runnable in self.mapping.placement.get(task, []):
            self.watchdog.set_activation_status(runnable, True)

    # ------------------------------------------------------------------
    # state queries
    # ------------------------------------------------------------------
    def ecu_monitor_state(self) -> MonitorState:
        """Global ECU state as derived by the watchdog's TSI unit."""
        return self.watchdog.ecu_state()

    def application_state(self, application: str) -> MonitorState:
        if application in self.terminated_applications:
            return MonitorState.FAULTY
        return self.watchdog.application_state(application)
