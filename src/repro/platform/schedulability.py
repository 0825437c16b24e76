"""Fixed-priority schedulability analysis for the mapping tool chain.

Step 2 of the paper's development process (Figure 3) maps the functional
model onto the system architecture: runnables become tasks with
priorities and periods.  Before a mapping is loaded onto the target, it
must be schedulable.  This module provides the two standard checks used
for OSEK-style fixed-priority preemptive systems:

* the Liu & Layland utilisation bound (sufficient, rate-monotonic),
* exact response-time analysis (RTA, necessary and sufficient for
  synchronous periodic tasks with deadlines ≤ periods).

Both operate on simple :class:`TaskTiming` descriptors, so they can also
be applied to hypothetical mappings during design-space exploration
(benchmark F3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional


class AnalysisError(ValueError):
    """Raised for invalid timing parameters."""


@dataclass(frozen=True)
class TaskTiming:
    """Timing parameters of one periodic task.

    ``wcet`` and ``period`` are in ticks; ``deadline`` defaults to the
    period (implicit deadlines).  Higher ``priority`` preempts lower.
    """

    name: str
    wcet: int
    period: int
    priority: int
    deadline: Optional[int] = None

    def __post_init__(self) -> None:
        if self.wcet < 0:
            raise AnalysisError(f"{self.name}: wcet must be >= 0")
        if self.period <= 0:
            raise AnalysisError(f"{self.name}: period must be > 0")
        if self.deadline is not None and self.deadline <= 0:
            raise AnalysisError(f"{self.name}: deadline must be > 0")

    @property
    def effective_deadline(self) -> int:
        return self.period if self.deadline is None else self.deadline

    @property
    def utilization(self) -> float:
        return self.wcet / self.period


def total_utilization(tasks: List[TaskTiming]) -> float:
    """Sum of per-task utilisations."""
    return sum(t.utilization for t in tasks)


def response_time(task: TaskTiming, all_tasks: List[TaskTiming], *, max_iterations: int = 1000) -> Optional[int]:
    """Worst-case response time of ``task`` under the given task set.

    Classic RTA fixed-point: R = C + Σ_{hp} ceil(R / T_j) · C_j.
    Returns ``None`` when the recurrence diverges past the deadline
    (the task is unschedulable).
    """
    higher = [t for t in all_tasks if t.priority > task.priority and t is not task]
    response = task.wcet
    for _ in range(max_iterations):
        interference = sum(
            math.ceil(response / t.period) * t.wcet for t in higher
        )
        new_response = task.wcet + interference
        if new_response > task.effective_deadline:
            # Deadline exceeded — whether diverging or converged (e.g. a
            # single task whose WCET alone exceeds its deadline).
            return None
        if new_response == response:
            return response
        response = new_response
    return None


def response_time_analysis(tasks: List[TaskTiming]) -> Dict[str, Optional[int]]:
    """Worst-case response time for every task (None = unschedulable)."""
    return {t.name: response_time(t, tasks) for t in tasks}


def is_schedulable(tasks: List[TaskTiming]) -> bool:
    """Exact test: every task meets its deadline per RTA."""
    for task in tasks:
        r = response_time(task, tasks)
        if r is None or r > task.effective_deadline:
            return False
    return True


def assign_rate_monotonic_priorities(tasks: List[TaskTiming]) -> List[TaskTiming]:
    """Return a copy of the task set with rate-monotonic priorities
    (shorter period → higher priority; ties broken by name)."""
    ordered = sorted(tasks, key=lambda t: (t.period, t.name))
    out: List[TaskTiming] = []
    priority = len(ordered)
    for task in ordered:
        out.append(
            TaskTiming(
                name=task.name,
                wcet=task.wcet,
                period=task.period,
                priority=priority,
                deadline=task.deadline,
            )
        )
        priority -= 1
    return out
