"""Tests for the fixed-priority schedulability analysis."""

import pytest

from repro.kernel import ms
from repro.platform import (
    AnalysisError,
    TaskTiming,
    assign_rate_monotonic_priorities,
    is_schedulable,
    response_time,
    response_time_analysis,
    total_utilization,
)


class TestTaskTiming:
    def test_utilization(self):
        t = TaskTiming("T", wcet=2, period=10, priority=1)
        assert t.utilization == 0.2

    def test_implicit_deadline(self):
        t = TaskTiming("T", wcet=2, period=10, priority=1)
        assert t.effective_deadline == 10

    def test_explicit_deadline(self):
        t = TaskTiming("T", wcet=2, period=10, priority=1, deadline=7)
        assert t.effective_deadline == 7

    def test_invalid_parameters(self):
        with pytest.raises(AnalysisError):
            TaskTiming("T", wcet=-1, period=10, priority=1)
        with pytest.raises(AnalysisError):
            TaskTiming("T", wcet=1, period=0, priority=1)
        with pytest.raises(AnalysisError):
            TaskTiming("T", wcet=1, period=10, priority=1, deadline=0)


class TestUtilizationTest:
    def test_under_bound_passes(self):
        tasks = [
            TaskTiming("A", wcet=1, period=10, priority=2),
            TaskTiming("B", wcet=2, period=20, priority=1),
        ]
        assert total_utilization(tasks) == pytest.approx(0.2)
        assert is_schedulable(tasks)

    def test_empty_set_schedulable(self):
        assert is_schedulable([])


class TestResponseTimeAnalysis:
    def classic_set(self):
        # Well-known example: C=(1,2,3), T=(4,6,12) under RM.
        return [
            TaskTiming("T1", wcet=1, period=4, priority=3),
            TaskTiming("T2", wcet=2, period=6, priority=2),
            TaskTiming("T3", wcet=3, period=12, priority=1),
        ]

    def test_known_response_times(self):
        tasks = self.classic_set()
        rta = response_time_analysis(tasks)
        assert rta["T1"] == 1
        assert rta["T2"] == 3
        # T3: classic fixed point R = 3 + ceil(R/4)*1 + ceil(R/6)*2 -> 10.
        assert rta["T3"] == 10

    def test_schedulable(self):
        assert is_schedulable(self.classic_set())

    def test_unschedulable_diverges(self):
        tasks = [
            TaskTiming("Hi", wcet=5, period=8, priority=2),
            TaskTiming("Lo", wcet=5, period=10, priority=1),
        ]
        assert response_time(tasks[1], tasks) is None
        assert not is_schedulable(tasks)

    def test_highest_priority_is_own_wcet(self):
        tasks = self.classic_set()
        assert response_time(tasks[0], tasks) == tasks[0].wcet

    def test_full_utilization_boundary(self):
        """U = 1.0 harmonic set is exactly schedulable under RM."""
        tasks = [
            TaskTiming("A", wcet=1, period=2, priority=2),
            TaskTiming("B", wcet=2, period=4, priority=1),
        ]
        assert is_schedulable(tasks)
        assert response_time(tasks[1], tasks) == 4


class TestRateMonotonic:
    def test_shorter_period_higher_priority(self):
        tasks = [
            TaskTiming("Slow", wcet=1, period=100, priority=0),
            TaskTiming("Fast", wcet=1, period=10, priority=0),
        ]
        assigned = {t.name: t.priority for t in assign_rate_monotonic_priorities(tasks)}
        assert assigned["Fast"] > assigned["Slow"]

    def test_ties_broken_by_name(self):
        tasks = [
            TaskTiming("B", wcet=1, period=10, priority=0),
            TaskTiming("A", wcet=1, period=10, priority=0),
        ]
        assigned = {t.name: t.priority for t in assign_rate_monotonic_priorities(tasks)}
        assert assigned["A"] > assigned["B"]

    def test_preserves_other_fields(self):
        tasks = [TaskTiming("A", wcet=3, period=9, priority=0, deadline=8)]
        out = assign_rate_monotonic_priorities(tasks)[0]
        assert (out.wcet, out.period, out.deadline) == (3, 9, 8)


class TestMappingIntegration:
    def test_safespeed_mapping_timings(self, safespeed_mapping):
        timings = safespeed_mapping.task_timings()
        assert len(timings) == 1
        timing = timings[0]
        assert timing.wcet == ms(4)  # 1 + 2 + 1 ms
        assert timing.period == ms(10)
        assert is_schedulable(timings)
