"""Application model: software components, runnables, tasks, mappings.

The paper's premise is the AUTOSAR decomposition: application software
components are divided into *runnables*; "runnables from different
applications can be mapped onto the same task, while tasks from
different applications can also be mapped onto the same ECU".  This
module captures that mapping declaratively and *builds* it onto the
simulated kernel:

* :class:`RunnableSpec` / :class:`SoftwareComponent` /
  :class:`Application` — the functional model (Figure 3, step 1),
* :class:`TaskMapping` — runnable → task placement with priorities and
  periods (Figure 3, step 2),
* :class:`SystemBuilder` — generates kernel tasks, sequence charts,
  cyclic alarms, heartbeat glue and the watchdog fault hypothesis from
  the mapping (the "automatically generated glue code" of §3.2.2); this
  is the simulated equivalent of the code-generation step (Figure 3,
  steps 3–4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.hypothesis import FaultHypothesis, RunnableHypothesis, ThresholdPolicy
from ..kernel.alarms import AlarmTable
from ..kernel.runnable import Runnable, SequenceChart
from ..kernel.scheduler import Kernel
from ..kernel.task import Task
from .schedulability import TaskTiming

BehaviourFn = Callable[[Runnable, Task], None]


class MappingError(ValueError):
    """Raised for inconsistent application/task mappings."""


@dataclass
class RunnableSpec:
    """Declarative description of one runnable."""

    name: str
    wcet: int
    behaviour: Optional[BehaviourFn] = None
    #: Marks safety-critical runnables: only these join the program-flow
    #: look-up table ("only the sequence of the safety-critical runnables
    #: will be monitored", §3.2.2).
    safety_critical: bool = True


@dataclass
class SoftwareComponent:
    """An application software component: an ordered set of runnables."""

    name: str
    runnables: List[RunnableSpec] = field(default_factory=list)

    def add(self, spec: RunnableSpec) -> RunnableSpec:
        if any(r.name == spec.name for r in self.runnables):
            raise MappingError(f"SWC {self.name!r}: duplicate runnable {spec.name!r}")
        self.runnables.append(spec)
        return spec


@dataclass
class Application:
    """An ISS application: software components plus fault-treatment
    constraints consulted by the Fault Management Framework (§3.4)."""

    name: str
    components: List[SoftwareComponent] = field(default_factory=list)
    #: May the FMF restart this application after a fault?
    restartable: bool = True
    #: Does this application tolerate a full ECU software reset?
    ecu_reset_allowed: bool = True

    def add_component(self, component: SoftwareComponent) -> SoftwareComponent:
        if any(c.name == component.name for c in self.components):
            raise MappingError(
                f"application {self.name!r}: duplicate SWC {component.name!r}"
            )
        self.components.append(component)
        return component

    def runnable_names(self) -> List[str]:
        return [r.name for c in self.components for r in c.runnables]


@dataclass
class TaskSpec:
    """Placement target: one OSEK task with period and priority."""

    name: str
    priority: int
    period: int
    preemptable: bool = True

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise MappingError(f"task {self.name!r}: period must be > 0")


class TaskMapping:
    """Runnable → task placement for a set of applications."""

    def __init__(self, applications: Sequence[Application]) -> None:
        self.applications = list(applications)
        self.task_specs: Dict[str, TaskSpec] = {}
        #: task name → ordered runnable names (execution sequence).
        self.placement: Dict[str, List[str]] = {}
        self._runnable_index: Dict[str, Tuple[Application, RunnableSpec]] = {}
        for app in self.applications:
            for component in app.components:
                for spec in component.runnables:
                    if spec.name in self._runnable_index:
                        raise MappingError(f"duplicate runnable name {spec.name!r}")
                    self._runnable_index[spec.name] = (app, spec)

    # ------------------------------------------------------------------
    def add_task(self, spec: TaskSpec) -> TaskSpec:
        if spec.name in self.task_specs:
            raise MappingError(f"duplicate task {spec.name!r}")
        self.task_specs[spec.name] = spec
        self.placement[spec.name] = []
        return spec

    def map_runnable(self, runnable: str, task: str) -> None:
        """Append a runnable to a task's execution sequence."""
        if runnable not in self._runnable_index:
            raise MappingError(f"unknown runnable {runnable!r}")
        if task not in self.task_specs:
            raise MappingError(f"unknown task {task!r}")
        for placed in self.placement.values():
            if runnable in placed:
                raise MappingError(f"runnable {runnable!r} already placed")
        self.placement[task].append(runnable)

    def map_sequence(self, task: str, runnables: Sequence[str]) -> None:
        """Place several runnables on a task in order."""
        for name in runnables:
            self.map_runnable(name, task)

    # ------------------------------------------------------------------
    def task_of(self, runnable: str) -> str:
        """Hosting task of a runnable."""
        for task, placed in self.placement.items():
            if runnable in placed:
                return task
        raise MappingError(f"runnable {runnable!r} is not placed")

    def application_of(self, runnable: str) -> Application:
        """Owning application of a runnable."""
        entry = self._runnable_index.get(runnable)
        if entry is None:
            raise MappingError(f"unknown runnable {runnable!r}")
        return entry[0]

    def spec_of(self, runnable: str) -> RunnableSpec:
        """Declarative spec of a runnable."""
        entry = self._runnable_index.get(runnable)
        if entry is None:
            raise MappingError(f"unknown runnable {runnable!r}")
        return entry[1]

    def applications_on_task(self, task: str) -> List[Application]:
        """Applications with at least one runnable on the task."""
        apps: List[Application] = []
        for name in self.placement.get(task, []):
            app = self.application_of(name)
            if app not in apps:
                apps.append(app)
        return apps

    def tasks_of_application(self, app: Application) -> List[str]:
        """Tasks hosting at least one of the application's runnables."""
        names = set(app.runnable_names())
        return [
            task
            for task, placed in self.placement.items()
            if names.intersection(placed)
        ]

    def validate(self) -> None:
        """Every runnable must be placed exactly once."""
        placed = [name for seq in self.placement.values() for name in seq]
        if len(placed) != len(set(placed)):
            raise MappingError("a runnable is placed more than once")
        missing = set(self._runnable_index) - set(placed)
        if missing:
            raise MappingError(f"unplaced runnables: {sorted(missing)}")

    # ------------------------------------------------------------------
    def task_timings(self) -> List[TaskTiming]:
        """Timing descriptors for schedulability analysis (Figure 3,
        step 2): each task's WCET is the sum of its runnables' WCETs."""
        timings = []
        for name, spec in self.task_specs.items():
            wcet = sum(self.spec_of(r).wcet for r in self.placement[name])
            timings.append(
                TaskTiming(
                    name=name, wcet=wcet, period=spec.period, priority=spec.priority
                )
            )
        return timings


@dataclass
class BuiltSystem:
    """Everything :class:`SystemBuilder` produced for one ECU."""

    kernel: Kernel
    alarms: AlarmTable
    mapping: TaskMapping
    runnables: Dict[str, Runnable]
    tasks: Dict[str, Task]
    charts: Dict[str, SequenceChart]
    hypothesis: FaultHypothesis


class SystemBuilder:
    """Generates the executable system from a :class:`TaskMapping`.

    This is the simulated code-generation step: for each task a
    :class:`SequenceChart` triggering its runnables in the mapped order
    (Figure 4), a cyclic alarm releasing the task at its period, and —
    derived from the mapping — the watchdog fault hypothesis:

    * per runnable, the aliveness/arrival periods are the smallest whole
      number of watchdog cycles covering the hosting task's period
      (scaled by the safety margins),
    * the flow table whitelists each task's mapped execution sequence,
      restricted to safety-critical runnables.
    """

    def __init__(
        self,
        mapping: TaskMapping,
        *,
        watchdog_period: int,
        aliveness_margin: float = 1.5,
        arrival_margin: float = 1.5,
        thresholds: Optional[ThresholdPolicy] = None,
    ) -> None:
        if watchdog_period <= 0:
            raise MappingError("watchdog_period must be > 0")
        mapping.validate()
        self.mapping = mapping
        self.watchdog_period = watchdog_period
        self.aliveness_margin = aliveness_margin
        self.arrival_margin = arrival_margin
        self.thresholds = thresholds or ThresholdPolicy()

    # ------------------------------------------------------------------
    def derive_hypothesis(self) -> FaultHypothesis:
        """The configuration half of the code-generation step: derive the
        watchdog fault hypothesis from the mapping alone, without
        instantiating kernel objects.

        This is what design-time tooling consumes — ``python -m repro
        lint`` regenerates the shipped applications' hypotheses through
        this method to analyze them without building a simulator.
        :meth:`build` produces the identical hypothesis.
        """
        hypothesis = FaultHypothesis(thresholds=self.thresholds)
        for task_name, spec in self.mapping.task_specs.items():
            sequence = self.mapping.placement[task_name]
            if not sequence:
                continue
            self._extend_hypothesis(hypothesis, task_name, spec, sequence)
        hypothesis.validate()
        return hypothesis

    # ------------------------------------------------------------------
    def build(self, kernel: Kernel, alarms: Optional[AlarmTable] = None) -> BuiltSystem:
        """Create tasks, runnables, charts, alarms and the hypothesis."""
        alarms = alarms or AlarmTable(kernel)
        runnables: Dict[str, Runnable] = {}
        tasks: Dict[str, Task] = {}
        charts: Dict[str, SequenceChart] = {}
        hypothesis = self.derive_hypothesis()

        for task_name, spec in self.mapping.task_specs.items():
            sequence = self.mapping.placement[task_name]
            if not sequence:
                continue
            task_runnables = []
            for name in sequence:
                rspec = self.mapping.spec_of(name)
                runnable = Runnable(
                    name, kernel, behaviour=rspec.behaviour, wcet=rspec.wcet
                )
                runnables[name] = runnable
                task_runnables.append(runnable)
            chart = SequenceChart(f"{task_name}Chart", task_runnables)
            charts[task_name] = chart
            task = kernel.add_task(
                Task(
                    task_name,
                    spec.priority,
                    chart.body(),
                    preemptable=spec.preemptable,
                )
            )
            tasks[task_name] = task
            alarm = alarms.alarm_activate_task(f"{task_name}Alarm", task_name)
            offset = max(1, spec.period // alarms.system_counter.ticks_per_increment)
            alarm.set_rel(offset, offset)

        return BuiltSystem(
            kernel=kernel,
            alarms=alarms,
            mapping=self.mapping,
            runnables=runnables,
            tasks=tasks,
            charts=charts,
            hypothesis=hypothesis,
        )

    # ------------------------------------------------------------------
    def _extend_hypothesis(
        self,
        hypothesis: FaultHypothesis,
        task_name: str,
        spec: TaskSpec,
        sequence: List[str],
    ) -> None:
        cycles_per_period = spec.period / self.watchdog_period
        aliveness_period = max(1, math.ceil(cycles_per_period * self.aliveness_margin))
        arrival_period = max(1, math.ceil(cycles_per_period))
        # Executions expected within the arrival window, with headroom.
        expected = max(1, math.floor(arrival_period / cycles_per_period))
        max_heartbeats = max(1, math.ceil(expected * self.arrival_margin))
        critical = []
        for name in sequence:
            rspec = self.mapping.spec_of(name)
            hypothesis.add_runnable(
                RunnableHypothesis(
                    runnable=name,
                    task=task_name,
                    aliveness_period=aliveness_period,
                    min_heartbeats=1,
                    arrival_period=arrival_period,
                    max_heartbeats=max_heartbeats,
                )
            )
            if rspec.safety_critical:
                critical.append(name)
        hypothesis.allow_sequence(critical)
