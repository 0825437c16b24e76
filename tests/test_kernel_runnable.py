"""Tests for the runnable model and sequence charts."""

import pytest

from repro.kernel import (
    Kernel,
    KernelConfigError,
    Runnable,
    SequenceChart,
    Task,
    TraceKind,
    ms,
    runnable_sequence_body,
)


class TestRunnableBasics:
    def test_negative_wcet_rejected(self, kernel):
        with pytest.raises(KernelConfigError):
            Runnable("bad", kernel, wcet=-1)

    def test_behaviour_called_once_per_execution(self, kernel, alarms):
        calls = []
        r = Runnable("R", kernel, wcet=ms(1),
                     behaviour=lambda rn, t: calls.append(kernel.clock.now))
        kernel.add_task(Task("T", 1, runnable_sequence_body([r])))
        alarms.alarm_activate_task("A", "T").set_rel(ms(10), ms(10))
        kernel.run_until(ms(35))
        assert calls == [ms(11), ms(21), ms(31)]
        assert r.execution_count == 3

    def test_exit_glue_runs_after_behaviour(self, kernel):
        events = []
        r = Runnable("R", kernel, wcet=ms(1),
                     behaviour=lambda rn, t: events.append("behaviour"))
        r.add_exit_glue(lambda rn, t: events.append("exit"))
        kernel.add_task(Task("T", 1, runnable_sequence_body([r])))
        kernel.activate_task("T")
        kernel.run_until(ms(10))
        assert events == ["behaviour", "exit"]

    def test_disabled_runnable_skipped(self, kernel):
        r1 = Runnable("R1", kernel, wcet=ms(1))
        r2 = Runnable("R2", kernel, wcet=ms(1))
        r2.enabled = False
        kernel.add_task(Task("T", 1, runnable_sequence_body([r1, r2])))
        kernel.activate_task("T")
        kernel.run_until(ms(10))
        assert r1.execution_count == 1
        assert r2.execution_count == 0
        # Task still terminates on time without the disabled runnable.
        assert kernel.trace.filter(TraceKind.TASK_TERMINATE, "T")[-1].time == ms(1)

    def test_repeat_executes_multiple_times(self, kernel):
        r = Runnable("R", kernel, wcet=ms(1))
        r.repeat = 3
        kernel.add_task(Task("T", 1, runnable_sequence_body([r])))
        kernel.activate_task("T")
        kernel.run_until(ms(10))
        assert r.execution_count == 3
        assert kernel.trace.filter(TraceKind.TASK_TERMINATE, "T")[-1].time == ms(3)

    def test_execution_time_fn_jitter(self, kernel):
        times = iter([ms(1), ms(3), ms(2)])
        r = Runnable("R", kernel, wcet=ms(1), execution_time_fn=lambda: next(times))
        kernel.add_task(Task("T", 1, runnable_sequence_body([r]), max_activations=3))
        for _ in range(3):
            kernel.activate_task("T")
        kernel.run_until(ms(20))
        terminates = [rec.time for rec in kernel.trace.filter(kind=TraceKind.TASK_TERMINATE)]
        assert terminates == [ms(1), ms(4), ms(6)]

    def test_negative_execution_time_fn_raises(self, kernel):
        r = Runnable("R", kernel, wcet=0, execution_time_fn=lambda: -5)
        kernel.add_task(Task("T", 1, runnable_sequence_body([r])))
        kernel.activate_task("T")
        with pytest.raises(ValueError):
            kernel.run_until(ms(10))

    def test_trace_records_start_and_end(self, kernel):
        r = Runnable("R", kernel, wcet=ms(2))
        kernel.add_task(Task("T", 1, runnable_sequence_body([r])))
        kernel.activate_task("T")
        kernel.run_until(ms(10))
        start = kernel.trace.filter(TraceKind.RUNNABLE_START, "R")[0]
        end = kernel.trace.filter(TraceKind.RUNNABLE_END, "R")[0]
        assert start.time == 0
        assert end.time == ms(2)
        assert start.info["task"] == "T"


class TestSequenceChart:
    def make_chart(self, kernel, names=("A", "B", "C")):
        runnables = [Runnable(n, kernel, wcet=ms(1)) for n in names]
        return SequenceChart("Chart", runnables), runnables

    def test_empty_chart_rejected(self, kernel):
        with pytest.raises(KernelConfigError):
            SequenceChart("Chart", [])

    def test_duplicate_names_rejected(self, kernel):
        r = Runnable("A", kernel, wcet=1)
        with pytest.raises(KernelConfigError):
            SequenceChart("Chart", [r, r])

    def test_nominal_order(self, kernel):
        chart, runnables = self.make_chart(kernel)
        kernel.add_task(Task("T", 1, chart.body()))
        kernel.activate_task("T")
        kernel.run_until(ms(10))
        starts = [r.subject for r in kernel.trace.filter(kind=TraceKind.RUNNABLE_START)]
        assert starts == ["A", "B", "C"]

    def test_custom_decision_function(self, kernel):
        chart, runnables = self.make_chart(kernel)
        sequence = chart.runnables

        def decide(task, step, previous):
            # Skip B: step by predecessor position in the nominal order.
            index = 0 if previous is None else sequence.index(previous) + 1
            while index < len(sequence) and sequence[index].name == "B":
                index += 1
            return sequence[index] if index < len(sequence) else None

        chart.decide = decide
        kernel.add_task(Task("T", 1, chart.body()))
        kernel.activate_task("T")
        kernel.run_until(ms(10))
        starts = [r.subject for r in kernel.trace.filter(kind=TraceKind.RUNNABLE_START)]
        assert starts == ["A", "C"]

    def test_reset_decision_restores_nominal(self, kernel):
        chart, _ = self.make_chart(kernel)
        chart.decide = lambda task, step, prev: None
        chart.reset_decision()
        kernel.add_task(Task("T", 1, chart.body()))
        kernel.activate_task("T")
        kernel.run_until(ms(10))
        assert len(kernel.trace.filter(TraceKind.RUNNABLE_END)) == 3
