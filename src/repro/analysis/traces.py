"""Trace post-processing: ground truth for the evaluation metrics.

The kernel trace records what *actually* happened (activations,
terminations, heartbeats, injections); these helpers turn it into the
quantities the experiments report: task response times and heartbeat
gaps.
"""

from __future__ import annotations

from typing import List

from ..kernel.tracing import Trace, TraceKind


def activation_times(trace: Trace, task: str) -> List[int]:
    """Timestamps of every activation of a task."""
    return [r.time for r in trace.filter(kind=TraceKind.TASK_ACTIVATE, subject=task)]


def response_times(trace: Trace, task: str) -> List[int]:
    """Activation→termination spans, matched in order.

    Activations whose termination never occurred (task hung or the run
    ended) are dropped.
    """
    activations = activation_times(trace, task)
    terminations = [
        r.time for r in trace.filter(kind=TraceKind.TASK_TERMINATE, subject=task)
    ]
    out: List[int] = []
    t_index = 0
    for start in activations:
        while t_index < len(terminations) and terminations[t_index] < start:
            t_index += 1
        if t_index >= len(terminations):
            break
        out.append(terminations[t_index] - start)
        t_index += 1
    return out


def heartbeat_times(trace: Trace, runnable: str) -> List[int]:
    """Timestamps of a runnable's heartbeats."""
    return [r.time for r in trace.filter(kind=TraceKind.HEARTBEAT, subject=runnable)]


def heartbeat_gaps(trace: Trace, runnable: str) -> List[int]:
    """Inter-heartbeat gaps of a runnable."""
    times = heartbeat_times(trace, runnable)
    return [b - a for a, b in zip(times, times[1:])]
