"""Fixed-priority preemptive scheduler and kernel event loop.

The :class:`Kernel` is a discrete-event simulation of an OSEK-conforming
operating system.  It owns the clock, the timed event queue, the task
set, resources, alarms and hooks, and exposes the OSEK system services
(``ActivateTask``, ``TerminateTask`` via generator return, ``ChainTask``,
``SetEvent``/``WaitEvent``, ``GetResource``/``ReleaseResource``,
``ShutdownOS``).

Scheduling follows the OSEK rules:

* highest dynamic priority runs; FIFO among equal priorities,
* a preempted task stays at the head of its priority's ready queue,
* non-preemptable tasks run to completion once dispatched,
* resources raise the holder to the resource ceiling (OSEK priority
  ceiling protocol, deadlock and priority-inversion free on one core).

CPU time is simulated: a task's work is a sequence of
:class:`~repro.kernel.task.Segment` items, each consuming a fixed number
of ticks.  Preemption may split a segment at any tick.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional

from .clock import SimClock
from .errors import (
    KernelConfigError,
    SchedulingError,
    ServiceError,
    StatusType,
)
from .events import EventQueue, ScheduledEvent
from .task import Segment, Task, TaskState, Wait
from .tracing import Trace, TraceKind

#: Safety valve: maximum consecutive zero-duration work items pulled from a
#: single task before the kernel declares a livelock (a buggy body yielding
#: an infinite stream of zero-time segments).
_MAX_ZERO_ITEMS = 100_000


class Hooks:
    """OSEK hook routines.  Each hook is a list of callables."""

    def __init__(self) -> None:
        self.startup: List[Callable[["Kernel"], None]] = []
        self.shutdown: List[Callable[["Kernel"], None]] = []
        self.pre_task: List[Callable[["Kernel", Task], None]] = []
        self.post_task: List[Callable[["Kernel", Task], None]] = []
        self.error: List[Callable[["Kernel", StatusType, str], None]] = []


class Resource:
    """OSEK resource with priority-ceiling semantics."""

    def __init__(self, name: str, ceiling: int) -> None:
        self.name = name
        self.ceiling = ceiling
        self.holder: Optional[Task] = None
        self.saved_priority = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Resource {self.name!r} ceiling={self.ceiling}>"


class Kernel:
    """Discrete-event OSEK kernel simulation."""

    def __init__(self, trace_capacity: Optional[int] = None) -> None:
        self.clock = SimClock()
        self.queue = EventQueue()
        self.trace = Trace(trace_capacity)
        self.hooks = Hooks()
        self.tasks: Dict[str, Task] = {}
        self.resources: Dict[str, Resource] = {}
        self.running: Optional[Task] = None
        self.started = False
        self.shutdown_requested = False
        self.cpu_busy_ticks = 0
        self.task_cpu_ticks: Dict[str, int] = {}
        self.reset_count = 0
        self._seq = itertools.count(1)
        self._ready: List[Task] = []
        self._chain_target: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # static configuration
    # ------------------------------------------------------------------
    def add_task(self, task: Task) -> Task:
        """Register a task; names must be unique."""
        if self.started:
            raise KernelConfigError("cannot add tasks after the kernel started")
        if task.name in self.tasks:
            raise KernelConfigError(f"duplicate task name {task.name!r}")
        self.tasks[task.name] = task
        self.task_cpu_ticks[task.name] = 0
        return task

    def add_resource(self, name: str, ceiling: Optional[int] = None) -> Resource:
        """Register a resource.

        If ``ceiling`` is omitted it defaults to the highest priority of
        any registered task (a conservative, always-safe ceiling).
        """
        if name in self.resources:
            raise KernelConfigError(f"duplicate resource name {name!r}")
        if ceiling is None:
            if not self.tasks:
                raise KernelConfigError(
                    f"resource {name!r}: cannot infer ceiling with no tasks"
                )
            ceiling = max(t.priority for t in self.tasks.values())
        resource = Resource(name, ceiling)
        self.resources[name] = resource
        return resource

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Run startup hooks and activate autostart tasks (idempotent)."""
        if self.started:
            return
        self.started = True
        for hook in self.hooks.startup:
            hook(self)
        self.trace.record(self.clock.now, TraceKind.HOOK, "StartupHook")
        for task in self.tasks.values():
            if task.autostart:
                self.activate_task(task.name)

    def shutdown_os(self, status: StatusType = StatusType.E_OK) -> None:
        """OSEK ShutdownOS: stop dispatching after the current instant."""
        self.shutdown_requested = True
        for hook in self.hooks.shutdown:
            hook(self)
        self.trace.record(
            self.clock.now, TraceKind.HOOK, "ShutdownHook", status=status.name
        )

    def soft_reset(self) -> None:
        """ECU software reset: drop all state and restart the OS.

        The simulated global clock keeps running (the world outside the
        ECU does not stop), but every task returns to SUSPENDED, all
        pending timed events are cancelled, and startup runs again.
        """
        self.trace.record(self.clock.now, TraceKind.ECU_RESET, "kernel")
        self.queue.clear_transient()
        self.running = None
        self._ready.clear()
        self._chain_target.clear()
        self.shutdown_requested = False
        for resource in self.resources.values():
            resource.holder = None
        for task in self.tasks.values():
            task.reset_runtime_state()
        self.reset_count += 1
        self.started = False
        self.start()

    # ------------------------------------------------------------------
    # OSEK system services
    # ------------------------------------------------------------------
    def activate_task(self, name: str) -> StatusType:
        """OSEK ActivateTask."""
        task = self.tasks.get(name)
        if task is None:
            return self._service_error(StatusType.E_OS_ID, f"ActivateTask({name!r})")
        if task.pending_activations >= task.max_activations:
            return self._service_error(
                StatusType.E_OS_LIMIT, f"ActivateTask({name!r}): too many activations"
            )
        task.pending_activations += 1
        task.activation_count += 1
        self.trace.record(self.clock.now, TraceKind.TASK_ACTIVATE, name)
        if task.state is TaskState.SUSPENDED:
            self._make_ready(task)
        return StatusType.E_OK

    def chain_task(self, current: Task, target: str) -> StatusType:
        """OSEK ChainTask: activate ``target`` when ``current`` terminates.

        Must be invoked from within ``current``'s body (e.g. from a
        segment callback of its final segment).
        """
        if target not in self.tasks:
            return self._service_error(StatusType.E_OS_ID, f"ChainTask({target!r})")
        self._chain_target[current.name] = target
        return StatusType.E_OK

    def set_event(self, name: str, mask: int) -> StatusType:
        """OSEK SetEvent: set events for an extended task, releasing it."""
        task = self.tasks.get(name)
        if task is None:
            return self._service_error(StatusType.E_OS_ID, f"SetEvent({name!r})")
        if not task.extended:
            return self._service_error(
                StatusType.E_OS_ACCESS, f"SetEvent({name!r}): not an extended task"
            )
        if task.state is TaskState.SUSPENDED:
            return self._service_error(
                StatusType.E_OS_STATE, f"SetEvent({name!r}): task suspended"
            )
        task.set_events |= mask
        if task.state is TaskState.WAITING and task.set_events & task.waiting_mask:
            task.waiting_mask = 0
            self.trace.record(self.clock.now, TraceKind.TASK_RELEASE, name)
            self._make_ready(task)
        return StatusType.E_OK

    def clear_event(self, task: Task, mask: int) -> StatusType:
        """OSEK ClearEvent (a task may only clear its own events)."""
        task.set_events &= ~mask
        return StatusType.E_OK

    def get_event(self, name: str) -> int:
        """OSEK GetEvent: current event mask of a task."""
        task = self.tasks.get(name)
        if task is None:
            raise ServiceError(StatusType.E_OS_ID, f"GetEvent({name!r})")
        return task.set_events

    def get_resource(self, task: Task, name: str) -> StatusType:
        """OSEK GetResource: occupy a resource, raising to its ceiling."""
        resource = self.resources.get(name)
        if resource is None:
            return self._service_error(StatusType.E_OS_ID, f"GetResource({name!r})")
        if resource.holder is not None:
            return self._service_error(
                StatusType.E_OS_ACCESS,
                f"GetResource({name!r}): already held by {resource.holder.name!r}",
            )
        if task.dynamic_priority > resource.ceiling:
            return self._service_error(
                StatusType.E_OS_ACCESS,
                f"GetResource({name!r}): task priority above ceiling",
            )
        resource.holder = task
        resource.saved_priority = task.dynamic_priority
        task.dynamic_priority = max(task.dynamic_priority, resource.ceiling)
        self.trace.record(
            self.clock.now, TraceKind.RESOURCE_GET, name, task=task.name
        )
        return StatusType.E_OK

    def release_resource(self, task: Task, name: str) -> StatusType:
        """OSEK ReleaseResource: free a resource, restoring priority."""
        resource = self.resources.get(name)
        if resource is None:
            return self._service_error(StatusType.E_OS_ID, f"ReleaseResource({name!r})")
        if resource.holder is not task:
            return self._service_error(
                StatusType.E_OS_NOFUNC, f"ReleaseResource({name!r}): not the holder"
            )
        resource.holder = None
        task.dynamic_priority = resource.saved_priority
        self.trace.record(
            self.clock.now, TraceKind.RESOURCE_RELEASE, name, task=task.name
        )
        return StatusType.E_OK

    def force_terminate(self, name: str) -> StatusType:
        """Forcibly return a task to SUSPENDED (fault-treatment primitive).

        This is the OS service the Fault Management Framework uses to
        terminate/restart tasks of faulty applications (§3.4).  The
        currently running task cannot be force-terminated (it would pull
        the stack out from under an in-flight callback); callers run in
        a higher-priority context, so the target is never running.
        """
        task = self.tasks.get(name)
        if task is None:
            return self._service_error(StatusType.E_OS_ID, f"force_terminate({name!r})")
        if task is self.running:
            return self._service_error(
                StatusType.E_OS_STATE, f"force_terminate({name!r}): task is running"
            )
        for resource in self.resources.values():
            if resource.holder is task:
                resource.holder = None
        if task in self._ready:
            self._ready.remove(task)
        self._chain_target.pop(name, None)
        task.reset_runtime_state()
        self.trace.record(
            self.clock.now, TraceKind.TASK_TERMINATE, name, forced=True
        )
        return StatusType.E_OK

    def schedule_at(
        self, when: int, callback: Callable[[], None], label: str = ""
    ) -> ScheduledEvent:
        """Schedule an arbitrary kernel-context callback (ISR-like)."""
        return self.queue.schedule(when, callback, label)

    # ------------------------------------------------------------------
    # simulation loop
    # ------------------------------------------------------------------
    def run_until(self, end_time: int) -> None:
        """Advance the simulation until ``end_time`` (inclusive of events
        at ``end_time`` itself) or until ShutdownOS."""
        self.start()
        while self.clock.now <= end_time and not self.shutdown_requested:
            if not self._step(end_time):
                break
        if not self.shutdown_requested and self.clock.now < end_time:
            self.clock.advance_to(end_time)

    def run_for(self, duration: int) -> None:
        """Advance the simulation by ``duration`` ticks."""
        self.run_until(self.clock.now + duration)

    def _step(self, end_time: int) -> bool:
        """Execute one scheduling quantum.  Returns False when idle with
        no future events within the horizon."""
        self._fire_due()
        self._dispatch()
        task = self.running
        if task is None:
            next_time = self.queue.next_time()
            if next_time is None or next_time > end_time:
                return False
            self.clock.advance_to(next_time)
            return True

        if not self._ensure_segment(task):
            # Task terminated or blocked while pulling work; loop again.
            return True

        segment = task.current_segment
        assert segment is not None
        if not task.segment_started:
            task.segment_started = True
            if segment.on_start is not None:
                segment.on_start()
            # Callbacks may have changed the world (activated tasks...).
            if self.running is not task or task.current_segment is not segment:
                return True

        finish_time = self.clock.now + task.segment_remaining
        horizon = min(finish_time, end_time)
        next_time = self.queue.next_time()
        if next_time is not None and next_time < horizon:
            horizon = next_time
        consumed = horizon - self.clock.now
        if consumed > 0:
            task.segment_remaining -= consumed
            self.cpu_busy_ticks += consumed
            self.task_cpu_ticks[task.name] += consumed
            self.clock.advance_to(horizon)
        if task.segment_remaining == 0:
            task.current_segment = None
            task.segment_started = False
            if segment.on_end is not None:
                segment.on_end()
            if self.running is task and task.current_segment is None:
                # Fetch the next work item in the same instant: a task
                # whose last segment just finished terminates *now*, as
                # OSEK's TerminateTask runs contiguously with the task's
                # final instructions — before any event due at this tick
                # can preempt a conceptually-finished task.
                self._ensure_segment(task)
            return True
        if consumed == 0:
            # end_time reached mid-segment; no due events remain at `now`.
            return False
        return True

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _fire_due(self) -> None:
        # One event at a time: a callback may reset the ECU, which must
        # be able to cancel events due at this same instant.
        while True:
            event = self.queue.pop_next(self.clock.now)
            if event is None:
                return
            event.callback()

    def _make_ready(self, task: Task) -> None:
        """Insert a task at the back of its priority's ready queue."""
        task.state = TaskState.READY
        task.ready_since = next(self._seq)
        if task not in self._ready:
            self._ready.append(task)

    def _pick_best_ready(self) -> Optional[Task]:
        best: Optional[Task] = None
        for task in self._ready:
            if best is None:
                best = task
            elif task.dynamic_priority > best.dynamic_priority:
                best = task
            elif (
                task.dynamic_priority == best.dynamic_priority
                and task.ready_since < best.ready_since
            ):
                best = task
        return best

    def _dispatch(self) -> None:
        best = self._pick_best_ready()
        current = self.running
        if current is None:
            if best is not None:
                self._switch_to(best)
            return
        if best is None:
            return
        if not current.preemptable:
            return
        if best.dynamic_priority > current.dynamic_priority:
            self._preempt(current)
            self._switch_to(best)

    def _preempt(self, task: Task) -> None:
        task.state = TaskState.READY
        task.preemption_count += 1
        # OSEK: a preempted task is treated as the oldest in its priority
        # class, so it keeps its (small) ready_since sequence number.
        if task not in self._ready:
            self._ready.append(task)
        self.running = None
        self.trace.record(self.clock.now, TraceKind.TASK_PREEMPT, task.name)

    def _switch_to(self, task: Task) -> None:
        self._ready.remove(task)
        task.state = TaskState.RUNNING
        self.running = task
        if task.generator is None:
            task.generator = task.body(task)
            for hook in self.hooks.pre_task:
                hook(self, task)
            self.trace.record(self.clock.now, TraceKind.TASK_START, task.name)
        else:
            self.trace.record(self.clock.now, TraceKind.TASK_RESUME, task.name)

    def _ensure_segment(self, task: Task) -> bool:
        """Pull work items until the task has a nonzero segment, blocks,
        or terminates.  Returns True when a segment (possibly zero-length,
        already handled) is pending for execution."""
        zero_items = 0
        while task.current_segment is None:
            assert task.generator is not None
            try:
                item = next(task.generator)
            except StopIteration:
                self._terminate(task)
                return False
            if isinstance(item, Segment):
                task.current_segment = item
                task.segment_remaining = item.duration
                task.segment_started = False
                if item.duration == 0:
                    zero_items += 1
                    if zero_items > _MAX_ZERO_ITEMS:
                        raise SchedulingError(
                            f"task {task.name!r}: livelock on zero-length segments"
                        )
                    task.segment_started = True
                    if item.on_start is not None:
                        item.on_start()
                    task.current_segment = None
                    task.segment_started = False
                    if item.on_end is not None:
                        item.on_end()
                    if self.running is not task:
                        # A callback caused preemption or blocking.
                        return False
                    continue
                return True
            if isinstance(item, Wait):
                if not task.extended:
                    self._service_error(
                        StatusType.E_OS_ACCESS,
                        f"WaitEvent in basic task {task.name!r}",
                    )
                    self._terminate(task)
                    return False
                if task.set_events & item.mask:
                    # Event already pending: WaitEvent returns immediately.
                    continue
                task.waiting_mask = item.mask
                task.state = TaskState.WAITING
                self.running = None
                self.trace.record(
                    self.clock.now, TraceKind.TASK_WAIT, task.name, mask=item.mask
                )
                return False
            raise SchedulingError(
                f"task {task.name!r} yielded unsupported item {item!r}"
            )
        return True

    def _terminate(self, task: Task) -> None:
        for hook in self.hooks.post_task:
            hook(self, task)
        self.trace.record(self.clock.now, TraceKind.TASK_TERMINATE, task.name)
        # Release any resources the task still holds (OSEK would raise
        # E_OS_RESOURCE; we release and report, which keeps the simulated
        # system alive for fault-injection experiments).
        for resource in self.resources.values():
            if resource.holder is task:
                self._service_error(
                    StatusType.E_OS_RESOURCE,
                    f"task {task.name!r} terminated holding {resource.name!r}",
                )
                resource.holder = None
                task.dynamic_priority = resource.saved_priority
        task.generator = None
        task.current_segment = None
        task.segment_remaining = 0
        task.segment_started = False
        task.set_events = 0
        task.dynamic_priority = task.priority
        task.pending_activations -= 1
        self.running = None
        chain = self._chain_target.pop(task.name, None)
        if task.pending_activations > 0:
            self._make_ready(task)
        else:
            task.state = TaskState.SUSPENDED
        if chain is not None:
            self.activate_task(chain)

    def _service_error(self, status: StatusType, message: str) -> StatusType:
        self.trace.record(
            self.clock.now, TraceKind.SERVICE_ERROR, message, status=status.name
        )
        for hook in self.hooks.error:
            hook(self, status, message)
        return status

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Fraction of simulated time the CPU was busy so far."""
        if self.clock.now == 0:
            return 0.0
        return self.cpu_busy_ticks / self.clock.now

    def task_state(self, name: str) -> TaskState:
        """Current OSEK state of a task."""
        task = self.tasks.get(name)
        if task is None:
            raise ServiceError(StatusType.E_OS_ID, f"task_state({name!r})")
        return task.state
