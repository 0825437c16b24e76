"""OSEK task model for the simulated kernel.

Tasks are OSEK/VDX *basic* tasks: ``SUSPENDED`` → ``READY`` →
``RUNNING``, with no waiting state.  A task's behaviour is a generator
that yields :class:`Segment` work items, each consuming a fixed amount
of CPU time, with optional callbacks at the start and end of the
segment.  Runnables compile to segments (see
:mod:`repro.kernel.runnable`).

Using a generator keeps the task's control flow in ordinary Python while
letting the kernel interleave tasks deterministically: the kernel pulls
one work item at a time and accounts simulated CPU time for it, so
preemption can split a segment at any tick boundary.
"""

from __future__ import annotations

import enum
from typing import Callable, Generator, Optional

from .errors import KernelConfigError


class TaskState(enum.Enum):
    """OSEK basic-task states (OSEK OS 2.2.3, ch. 4.2)."""

    SUSPENDED = "suspended"
    READY = "ready"
    RUNNING = "running"


class Segment:
    """A contiguous slice of CPU work executed by a task.

    ``on_start`` fires when the kernel first dispatches the segment;
    ``on_end`` fires when its full ``duration`` has been consumed.  A
    preempted segment resumes without re-firing ``on_start``.
    """

    __slots__ = ("duration", "on_start", "on_end", "label")

    def __init__(
        self,
        duration: int,
        on_start: Optional[Callable[[], None]] = None,
        on_end: Optional[Callable[[], None]] = None,
        label: str = "",
    ) -> None:
        if duration < 0:
            raise ValueError(f"segment duration must be >= 0, got {duration}")
        self.duration = duration
        self.on_start = on_start
        self.on_end = on_end
        self.label = label

TaskBody = Callable[["Task"], Generator[Segment, None, None]]


class Task:
    """A configured OSEK basic task.

    Static configuration (name, priority, preemptability, activation
    limit) is fixed at construction; runtime state is
    managed exclusively by the kernel.
    """

    def __init__(
        self,
        name: str,
        priority: int,
        body: TaskBody,
        *,
        preemptable: bool = True,
        max_activations: int = 1,
        autostart: bool = False,
    ) -> None:
        if priority < 0:
            raise KernelConfigError(f"task {name!r}: priority must be >= 0")
        if max_activations < 1:
            raise KernelConfigError(f"task {name!r}: max_activations must be >= 1")
        self.name = name
        self.priority = priority
        self.body = body
        self.preemptable = preemptable
        self.max_activations = max_activations
        self.autostart = autostart

        # --- runtime state (kernel-owned) ---
        self.state = TaskState.SUSPENDED
        self.pending_activations = 0
        self.generator: Optional[Generator[Segment, None, None]] = None
        self.current_segment: Optional[Segment] = None
        self.segment_remaining = 0
        self.segment_started = False
        self.ready_since = 0  # activation order tiebreaker (seq number)
        self.activation_count = 0  # lifetime statistics
        self.preemption_count = 0

    # ------------------------------------------------------------------
    def reset_runtime_state(self) -> None:
        """Return the task to its pristine SUSPENDED configuration.

        Used on kernel start and on ECU software reset.  Lifetime
        statistics are cleared as well — a reset ECU starts from scratch.
        """
        self.state = TaskState.SUSPENDED
        self.pending_activations = 0
        self.generator = None
        self.current_segment = None
        self.segment_remaining = 0
        self.segment_started = False
        self.ready_since = 0
        self.activation_count = 0
        self.preemption_count = 0
