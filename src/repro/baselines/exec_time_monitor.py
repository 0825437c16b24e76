"""AUTOSAR-OS execution time monitoring baseline (task granularity).

"Execution time monitoring of AUTOSAR OS introduce[s] the time
monitoring of tasks" (§2): each task has an execution-time *budget* per
activation; exceeding it is a protection error.

The monitor samples the kernel's per-task CPU accounting at every
dispatch boundary (via the pre/post task hooks and a periodic probe for
in-flight overruns), so it detects a task that *burns* too much CPU —
including one stuck in a loop that never terminates.  It remains blind
to a task doing too little (a skipped runnable) or running in the wrong
internal order, which is the granularity gap the paper's service fills.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..kernel.clock import ms
from ..kernel.scheduler import Kernel
from ..kernel.task import Task
from ..kernel.tracing import TraceKind


class ExecutionTimeMonitor:
    """Per-activation CPU budget supervision."""

    def __init__(
        self,
        kernel: Kernel,
        *,
        probe_period: int = ms(1),
        name: str = "ExecTimeMonitor",
    ) -> None:
        if probe_period <= 0:
            raise ValueError("probe_period must be > 0")
        self.kernel = kernel
        self.name = name
        self.probe_period = probe_period
        #: task → budget ticks per activation.
        self.budgets: Dict[str, int] = {}
        #: task → CPU ticks at activation start.
        self._baseline: Dict[str, int] = {}
        #: task → already flagged for the current activation.
        self._flagged: Dict[str, bool] = {}
        self.violation_times: List[int] = []
        self.violations_by_task: Dict[str, int] = {}
        kernel.hooks.pre_task.append(self._on_task_start)
        kernel.hooks.post_task.append(self._on_task_end)
        self._probing = False

    # ------------------------------------------------------------------
    def monitor(self, task: str, budget: int) -> None:
        """Supervise a task with the given per-activation CPU budget."""
        if budget <= 0:
            raise ValueError("budget must be > 0")
        self.budgets[task] = budget
        if not self._probing:
            self._probing = True
            self._schedule_probe()

    # ------------------------------------------------------------------
    def _on_task_start(self, kernel: Kernel, task: Task) -> None:
        if task.name in self.budgets:
            self._baseline[task.name] = kernel.task_cpu_ticks[task.name]
            self._flagged[task.name] = False

    def _on_task_end(self, kernel: Kernel, task: Task) -> None:
        if task.name in self.budgets:
            self._check(task.name)
            self._baseline.pop(task.name, None)

    def _schedule_probe(self) -> None:
        self.kernel.queue.schedule(
            self.kernel.clock.now + self.probe_period,
            self._probe,
            label=f"etm:{self.name}",
            persistent=True,
        )

    def _probe(self) -> None:
        """Catch in-flight overruns of activations that never terminate."""
        for task in list(self._baseline):
            self._check(task)
        self._schedule_probe()

    def _check(self, task: str) -> None:
        baseline = self._baseline.get(task)
        if baseline is None or self._flagged.get(task):
            return
        used = self.kernel.task_cpu_ticks[task] - baseline
        if used > self.budgets[task]:
            self._flagged[task] = True
            now = self.kernel.clock.now
            self.violation_times.append(now)
            self.violations_by_task[task] = self.violations_by_task.get(task, 0) + 1
            self.kernel.trace.record(
                now,
                TraceKind.CUSTOM,
                self.name,
                event="budget_exceeded",
                task=task,
                used=used,
            )

    # ------------------------------------------------------------------
    def first_detection_after(self, time: int) -> Optional[int]:
        """Campaign detector interface."""
        for t in self.violation_times:
            if t >= time:
                return t
        return None
