"""Fault models for error injection (§4.5).

"Stateflow is used to manipulate the execution frequency and sequence of
runnables by changing the timing parameter of runnables, manipulation of
loop counters and building invalid execution branches."  Each class here
is one such manipulation, applied to a :class:`FaultTarget` (the handles
into a built system).  ``inject()`` activates the manipulation; a
fault that an experiment also restores (a transient fault) defines
``_revert``, which ``restore()`` calls to remove it.

Catalogue (paper mechanism → class):

* blocked / starved runnable        → :class:`BlockedRunnableFault`
* changed timing parameter (slower) → :class:`TimeScalarFault` (scalar > 1)
* excessive dispatch (faster)       → :class:`TimeScalarFault` (scalar < 1)
* manipulated loop counter          → :class:`LoopCountFault`
* invalid execution branch          → :class:`InvalidBranchFault`,
  :class:`SkipRunnableFault`
* corrupted program counter         → :class:`HeartbeatCorruptionFault`
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..kernel.alarms import Alarm, AlarmTable
from ..kernel.runnable import Runnable, SequenceChart
from ..kernel.scheduler import Kernel
from ..kernel.tracing import TraceKind


@dataclass
class FaultTarget:
    """Handles a fault model needs to manipulate a built system."""

    kernel: Kernel
    runnables: Dict[str, Runnable]
    charts: Dict[str, SequenceChart] = field(default_factory=dict)
    alarms: Optional[AlarmTable] = None

    @classmethod
    def from_ecu(cls, ecu) -> "FaultTarget":
        """Build a target from a :class:`repro.platform.Ecu`."""
        return cls(
            kernel=ecu.kernel,
            runnables=dict(ecu.system.runnables),
            charts=dict(ecu.system.charts),
            alarms=ecu.alarms,
        )


class FaultModel:
    """Base class: a manipulation of the target system.  Subclasses
    define ``_apply(target)``, and ``_revert(target)`` when the fault
    can be restored."""

    #: Which watchdog error type this fault is *expected* to provoke
    #: (ground truth for coverage accounting); subclasses override.
    expected_error = "unspecified"

    def __init__(self, name: str) -> None:
        self.name = name
        self.active = False
        self.injected_at: Optional[int] = None

    def inject(self, target: FaultTarget) -> None:
        """Activate the fault."""
        if self.active:
            return
        self.active = True
        self.injected_at = target.kernel.clock.now
        target.kernel.trace.record(
            target.kernel.clock.now,
            TraceKind.FAULT_INJECTED,
            self.name,
            fault_class=type(self).__name__,
        )
        self._apply(target)

    def restore(self, target: FaultTarget) -> None:
        """Deactivate the fault (transient fault recovery)."""
        if not self.active:
            return
        self.active = False
        self._revert(target)
        target.kernel.trace.record(
            target.kernel.clock.now,
            TraceKind.CUSTOM,
            self.name,
            event="fault_restored",
        )


class BlockedRunnableFault(FaultModel):
    """The runnable hangs: it is never dispatched again ("an object hangs
    as a result of a requested resource being blocked").  Provokes
    aliveness errors, and program-flow errors when the runnable sits
    inside a monitored sequence."""

    expected_error = "aliveness"

    def __init__(self, runnable: str) -> None:
        super().__init__(f"blocked:{runnable}")
        self.runnable = runnable

    def _apply(self, target: FaultTarget) -> None:
        target.runnables[self.runnable].enabled = False

    def _revert(self, target: FaultTarget) -> None:
        target.runnables[self.runnable].enabled = True


class TimeScalarFault(FaultModel):
    """Scales a task's release period ("a time scalar is connected to a
    slider instrument to change the execution frequency", §4.5).

    ``scalar > 1`` slows the task (aliveness errors: too few heartbeats
    per monitoring period); ``scalar < 1`` speeds it up (arrival-rate
    errors: excessive dispatch)."""

    def __init__(self, task: str, scalar: float) -> None:
        super().__init__(f"time_scalar:{task}:{scalar}")
        if scalar <= 0:
            raise ValueError("time scalar must be > 0")
        self.task = task
        self.scalar = scalar
        self.expected_error = "aliveness" if scalar > 1 else "arrival_rate"
        self._original_cycle: Optional[int] = None

    def _alarm(self, target: FaultTarget) -> Alarm:
        if target.alarms is None:
            raise ValueError("target has no alarm table")
        return target.alarms.get(f"{self.task}Alarm")

    def _apply(self, target: FaultTarget) -> None:
        alarm = self._alarm(target)
        self._original_cycle = alarm.cycle
        new_cycle = max(1, int(round(alarm.cycle * self.scalar)))
        if alarm.armed:
            alarm.cancel()
        alarm.set_rel(new_cycle, new_cycle)

    def _revert(self, target: FaultTarget) -> None:
        alarm = self._alarm(target)
        if self._original_cycle is None:
            return
        if alarm.armed:
            alarm.cancel()
        alarm.set_rel(self._original_cycle, self._original_cycle)
        self._original_cycle = None


class LoopCountFault(FaultModel):
    """A corrupted loop counter repeats the runnable ``repeat`` times per
    activation — more heartbeats than hypothesised (arrival rate), and
    self-loop transitions the flow table may not allow."""

    expected_error = "arrival_rate"

    def __init__(self, runnable: str, repeat: int = 3) -> None:
        super().__init__(f"loop_count:{runnable}:{repeat}")
        if repeat < 2:
            raise ValueError("repeat must be >= 2 to be a fault")
        self.runnable = runnable
        self.repeat = repeat

    def _apply(self, target: FaultTarget) -> None:
        target.runnables[self.runnable].repeat = self.repeat

    def _revert(self, target: FaultTarget) -> None:
        target.runnables[self.runnable].repeat = 1


class SkipRunnableFault(FaultModel):
    """Invalid execution branch that jumps *over* one runnable of a
    chart's sequence (predecessor connects directly to the successor).
    Provokes program-flow errors, plus aliveness errors for the skipped
    runnable."""

    expected_error = "program_flow"

    def __init__(self, chart: str, skipped: str) -> None:
        super().__init__(f"skip:{chart}:{skipped}")
        self.chart = chart
        self.skipped = skipped

    def _apply(self, target: FaultTarget) -> None:
        chart = target.charts[self.chart]
        sequence = chart.runnables
        skipped = self.skipped

        def decide(task, step, previous):
            index = 0 if previous is None else sequence.index(previous) + 1
            while index < len(sequence) and sequence[index].name == skipped:
                index += 1
            return sequence[index] if index < len(sequence) else None

        chart.decide = decide

    def _revert(self, target: FaultTarget) -> None:
        target.charts[self.chart].reset_decision()


class InvalidBranchFault(FaultModel):
    """Invalid execution branch: at step ``at_step`` the chart branches
    to ``branch_to`` instead of the nominal runnable ("building invalid
    execution branches", §4.5)."""

    expected_error = "program_flow"

    def __init__(self, chart: str, at_step: int, branch_to: str) -> None:
        super().__init__(f"branch:{chart}:{at_step}->{branch_to}")
        self.chart = chart
        self.at_step = at_step
        self.branch_to = branch_to

    def _apply(self, target: FaultTarget) -> None:
        chart = target.charts[self.chart]
        nominal = chart._nominal_decide
        wrong = chart.by_name[self.branch_to]

        def decide(task, step, previous):
            if step == self.at_step:
                return wrong
            return nominal(task, step, previous)

        chart.decide = decide

    _revert = SkipRunnableFault._revert


class HeartbeatCorruptionFault(FaultModel):
    """Program-counter corruption analogue: the glue code reports a wrong
    runnable identity.  The watchdog sees an impossible execution
    sequence (program-flow error) and misses heartbeats of the real
    runnable (aliveness error)."""

    expected_error = "program_flow"

    def __init__(self, runnable: str, reported_as: str) -> None:
        super().__init__(f"hb_corrupt:{runnable}->{reported_as}")
        self.runnable = runnable
        self.reported_as = reported_as

    def _apply(self, target: FaultTarget) -> None:
        target.runnables[self.runnable].name = self.reported_as
