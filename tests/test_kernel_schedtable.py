"""Tests for AUTOSAR-style schedule tables."""

import pytest

from repro.kernel import (
    KernelConfigError,
    ScheduleTable,
    Segment,
    StatusType,
    Task,
    TraceKind,
    ms,
)

from testutil import activation_recorder


def add_task(kernel, name, priority=5, duration=ms(1)):
    def body(task):
        yield Segment(duration, label=name)

    return kernel.add_task(Task(name, priority, body))


class TestConfiguration:
    def test_bad_period(self, kernel):
        with pytest.raises(KernelConfigError):
            ScheduleTable("T", kernel, period=0)

    def test_offset_outside_period_rejected(self, kernel):
        table = ScheduleTable("T", kernel, period=ms(10))
        with pytest.raises(KernelConfigError):
            table.add_task_activation(ms(10), "A")

    def test_points_sorted_and_merged(self, kernel):
        add_task(kernel, "A")
        add_task(kernel, "B")
        table = ScheduleTable("T", kernel, period=ms(10))
        table.add_task_activation(ms(5), "B")
        table.add_task_activation(ms(2), "A")
        table.add_task_activation(ms(5), "A")  # merges into the 5 ms point
        assert [p.offset for p in table.points] == [ms(2), ms(5)]
        assert len(table.points[1].actions) == 2

    def test_chaining(self, kernel):
        add_task(kernel, "A")
        table = ScheduleTable("T", kernel, period=ms(10))
        assert table.add_task_activation(0, "A") is table


class TestExecution:
    def test_activations_at_offsets(self, kernel):
        add_task(kernel, "A")
        add_task(kernel, "B")
        table = ScheduleTable("T", kernel, period=ms(10))
        table.add_task_activation(ms(0), "A")
        table.add_task_activation(ms(4), "B")
        assert table.start_rel(ms(10)) is StatusType.E_OK
        kernel.run_until(ms(35))
        a_times = [r.time for r in kernel.trace.filter(
            kind=TraceKind.TASK_ACTIVATE, subject="A")]
        b_times = [r.time for r in kernel.trace.filter(
            kind=TraceKind.TASK_ACTIVATE, subject="B")]
        assert a_times == [ms(10), ms(20), ms(30)]
        assert b_times == [ms(14), ms(24), ms(34)]

    def test_offsets_eliminate_release_contention(self, kernel):
        """Two same-period tasks with staggered offsets never preempt."""
        a = add_task(kernel, "A", priority=5, duration=ms(2))
        b = add_task(kernel, "B", priority=6, duration=ms(2))
        table = ScheduleTable("T", kernel, period=ms(10))
        table.add_task_activation(ms(0), "A")
        table.add_task_activation(ms(3), "B")
        table.start_rel(ms(1))
        kernel.run_until(ms(200))
        assert a.preemption_count == 0
        assert b.preemption_count == 0

    def test_offset_repeats_every_period(self, kernel):
        hits = activation_recorder(kernel, "R")
        table = ScheduleTable("T", kernel, period=ms(10))
        table.add_task_activation(ms(7), "R")
        table.start_rel(0)
        kernel.run_until(ms(30))
        assert hits == [ms(7), ms(17), ms(27)]

    def test_iteration_count(self, kernel):
        activation_recorder(kernel, "R")
        table = ScheduleTable("T", kernel, period=ms(10))
        table.add_task_activation(0, "R")
        table.start_rel(0)
        kernel.run_until(ms(45))
        assert table.iteration_count == 4


class TestControl:
    def test_start_twice_rejected(self, kernel):
        table = ScheduleTable("T", kernel, period=ms(10))
        table.add_task_activation(0, "R")
        table.start_rel(0)
        assert table.start_rel(0) is StatusType.E_OS_STATE

    def test_start_empty_rejected(self, kernel):
        table = ScheduleTable("T", kernel, period=ms(10))
        assert table.start_rel(0) is StatusType.E_OS_NOFUNC
