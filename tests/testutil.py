"""Shared helper builders for the test suite (import as `testutil`)."""

from __future__ import annotations

import asyncio
import json
import time

from repro.analysis import activation_times
from repro.kernel import AlarmTable, Kernel, Runnable, Task, ms, runnable_sequence_body
from repro.platform import (
    Application,
    RunnableSpec,
    SoftwareComponent,
    TaskMapping,
    TaskSpec,
)
from repro.service import StateStore


def make_safespeed_mapping(
    *,
    period=ms(10),
    priority=5,
    wcets=(ms(1), ms(2), ms(1)),
    restartable=True,
    ecu_reset_allowed=True,
) -> TaskMapping:
    """The canonical SafeSpeed mapping used across many tests."""
    app = Application(
        "SafeSpeed", restartable=restartable, ecu_reset_allowed=ecu_reset_allowed
    )
    swc = SoftwareComponent("SpeedControl")
    names = ["GetSensorValue", "SAFE_CC_process", "Speed_process"]
    for name, wcet in zip(names, wcets):
        swc.add(RunnableSpec(name, wcet=wcet))
    app.add_component(swc)
    mapping = TaskMapping([app])
    mapping.add_task(TaskSpec("SafeSpeedTask", priority=priority, period=period))
    mapping.map_sequence("SafeSpeedTask", names)
    return mapping


def observed_periods(trace, task: str) -> list:
    """Inter-activation gaps of a task: its period as observed, injected
    timing faults included."""
    times = activation_times(trace, task)
    return [b - a for a, b in zip(times, times[1:])]


def trace_to_jsonl(trace) -> str:
    """A kernel trace as JSON Lines: one record per line, keys sorted,
    the kind as its stable string value."""
    return "\n".join(
        json.dumps({"time": record.time, "kind": record.kind.value,
                    "subject": record.subject, "info": dict(record.info)},
                   sort_keys=True)
        for record in trace.filter())


def periodic_task(kernel: Kernel, alarms: AlarmTable, name: str, priority: int,
                  period: int, wcets) -> list:
    """Create a periodic task of runnables; returns the runnables."""
    runnables = [
        Runnable(f"{name}.r{i}", kernel, wcet=w) for i, w in enumerate(wcets)
    ]
    kernel.add_task(Task(name, priority, runnable_sequence_body(runnables)))
    alarms.alarm_activate_task(f"{name}Alarm", name).set_rel(period, period)
    return runnables


def activation_recorder(kernel: Kernel, name: str) -> list:
    """Add a zero-work task; returns the list of its activation times
    (a probe for alarms and schedule tables, which only activate tasks)."""
    times = []

    def body(task):
        times.append(kernel.clock.now)
        yield from ()

    kernel.add_task(Task(name, 1, body))
    return times


def wait_for(predicate, *, timeout=15.0, interval=0.02, message="condition"):
    """Poll *predicate* until it returns something truthy and return
    that; fail the test after *timeout* seconds.  For tests that wait
    on another thread, process or socket."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


def lock_is_free(state_dir) -> bool:
    """Whether no server holds ``state_dir``'s primary lock (probed
    through a fresh :class:`StateStore`, released again at once)."""
    with StateStore(str(state_dir)) as probe:
        return probe.take_primary()


async def until(predicate, *, timeout=15.0, interval=0.01,
                message="condition"):
    """The asyncio twin of :func:`wait_for`, with the same contract: the
    event loop keeps running between polls, so a test can wait on a
    server that lives on the same loop."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        await asyncio.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")
