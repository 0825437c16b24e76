"""Runnable model: AUTOSAR-style code-sequence components.

The paper's unit of monitoring is the *runnable* — "code sequence
components" into which an application is divided, where "runnables from
different software components can be mapped to the same task".  A
:class:`Runnable` couples

* a behaviour function (the functional payload, e.g. reading a sensor),
* a worst-case execution time in simulated ticks (optionally jittered),
* *glue code* hooks — the "aliveness indication routines, which are
  integrated into the runnables as automatically generated glue code"
  through which the Software Watchdog observes execution.

``Runnable.segments(task)`` compiles the runnable into kernel work items
so that a task body is simply a sequence of runnables (plus optional
extra segments).  Fault injection wraps or replaces pieces of this
compilation (see :mod:`repro.faults.injector`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional

from .errors import KernelConfigError
from .scheduler import Kernel
from .task import Segment, Task, TaskBody
from .tracing import TraceKind

#: Glue hook signature: ``hook(runnable, task)``.
GlueHook = Callable[["Runnable", Task], None]


class Runnable:
    """One schedulable code-sequence component.

    Parameters
    ----------
    name:
        Unique identifier; also the subject of trace records and the key
        used by the Software Watchdog's fault hypothesis.
    behaviour:
        Functional payload; called once per execution with this runnable
        and the hosting task.  May be ``None`` for pure-timing models.
    wcet:
        Execution time in simulated ticks consumed per execution.
    execution_time_fn:
        Optional override returning the execution time for each
        individual execution (for jitter or data-dependent run times).
    """

    def __init__(
        self,
        name: str,
        kernel: Kernel,
        *,
        behaviour: Optional[Callable[["Runnable", Task], None]] = None,
        wcet: int = 0,
        execution_time_fn: Optional[Callable[[], int]] = None,
    ) -> None:
        if wcet < 0:
            raise KernelConfigError(f"runnable {name!r}: wcet must be >= 0")
        self.name = name
        self.kernel = kernel
        self.behaviour = behaviour
        self.wcet = wcet
        self.execution_time_fn = execution_time_fn
        self.exit_glue: List[GlueHook] = []
        self.execution_count = 0
        #: Fault-injection switch: when False the runnable's execution is
        #: skipped entirely (models a blocked / never-dispatched runnable).
        self.enabled = True
        #: Fault-injection multiplier on the number of body repetitions
        #: per execution (models corrupted loop counters; 1 is nominal).
        self.repeat = 1

    # ------------------------------------------------------------------
    def add_exit_glue(self, hook: GlueHook) -> None:
        """Attach glue code fired when an execution completes.

        The Software Watchdog's heartbeat indication is registered here:
        a heartbeat means the runnable *ran to completion*, so a blocked
        or starved runnable stops producing heartbeats — which is exactly
        the observable the aliveness monitor needs.
        """
        self.exit_glue.append(hook)

    # ------------------------------------------------------------------
    def execution_time(self) -> int:
        """Ticks this particular execution will consume."""
        if self.execution_time_fn is not None:
            duration = int(self.execution_time_fn())
            if duration < 0:
                raise ValueError(
                    f"runnable {self.name!r}: negative execution time {duration}"
                )
            return duration
        return self.wcet

    def segments(self, task: Task) -> Iterator[Segment]:
        """Compile this runnable into kernel work items for one execution."""
        if not self.enabled:
            return
        repeats = max(0, self.repeat)
        for _ in range(repeats):
            duration = self.execution_time()
            yield Segment(
                duration,
                on_start=self._make_on_start(task),
                on_end=self._make_on_end(task),
                label=self.name,
            )

    # ------------------------------------------------------------------
    def _make_on_start(self, task: Task) -> Callable[[], None]:
        def on_start() -> None:
            self.kernel.trace.record(
                self.kernel.clock.now,
                TraceKind.RUNNABLE_START,
                self.name,
                task=task.name,
            )

        return on_start

    def _make_on_end(self, task: Task) -> Callable[[], None]:
        def on_end() -> None:
            if self.behaviour is not None:
                self.behaviour(self, task)
            self.execution_count += 1
            self.kernel.trace.record(
                self.kernel.clock.now,
                TraceKind.RUNNABLE_END,
                self.name,
                task=task.name,
            )
            for hook in self.exit_glue:
                hook(self, task)

        return on_end


def runnable_sequence_body(runnables: Iterable[Runnable]) -> TaskBody:
    """Task body executing the given runnables in order, every activation.

    This mirrors Figure 4 of the paper: a Stateflow chart triggering
    function-call subsystems (the runnables) in a defined execution
    sequence.  Dynamic sequencing (branches, injected invalid branches)
    is provided by :class:`SequenceChart` instead.
    """
    items = list(runnables)

    def body(task: Task):
        for runnable in items:
            for item in runnable.segments(task):
                yield item

    return body


class SequenceChart:
    """A Stateflow-like sequencer choosing the runnable execution order.

    The chart evaluates ``decide(task, step_index, previous_runnable)``
    before each step; the returned runnable is executed next, ``None``
    terminates the activation.  The default decision function walks the
    nominal order.  Fault injection replaces the decision function to
    create *invalid execution branches* — the mechanism the paper uses
    (via Stateflow manipulation) to provoke program-flow errors.
    """

    def __init__(self, name: str, runnables: List[Runnable]) -> None:
        if not runnables:
            raise KernelConfigError(f"chart {name!r}: needs at least one runnable")
        self.name = name
        self.runnables = list(runnables)
        self.by_name = {r.name: r for r in self.runnables}
        if len(self.by_name) != len(self.runnables):
            raise KernelConfigError(f"chart {name!r}: duplicate runnable names")
        self.decide: Callable[[Task, int, Optional[Runnable]], Optional[Runnable]] = (
            self._nominal_decide
        )

    def _nominal_decide(
        self, task: Task, step: int, previous: Optional[Runnable]
    ) -> Optional[Runnable]:
        if step < len(self.runnables):
            return self.runnables[step]
        return None

    def reset_decision(self) -> None:
        """Restore the nominal execution order."""
        self.decide = self._nominal_decide

    def body(self) -> TaskBody:
        """Task body driven by this chart."""

        def task_body(task: Task):
            step = 0
            previous: Optional[Runnable] = None
            while True:
                runnable = self.decide(task, step, previous)
                if runnable is None:
                    return
                for item in runnable.segments(task):
                    yield item
                previous = runnable
                step += 1

        return task_body
