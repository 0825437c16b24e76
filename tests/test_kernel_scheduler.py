"""Tests for the OSEK scheduler: dispatch, preemption, services."""

import pytest

from repro.kernel import (
    AlarmTable,
    Kernel,
    KernelConfigError,
    Runnable,
    Segment,
    StatusType,
    Task,
    TaskState,
    TraceKind,
    ms,
    runnable_sequence_body,
)


def simple_task(kernel, name, priority, duration, **kwargs):
    """A one-segment task."""

    def body(task):
        yield Segment(duration, label=f"{name}:work")

    return kernel.add_task(Task(name, priority, body, **kwargs))


class TestConfiguration:
    def test_duplicate_task_rejected(self, kernel):
        simple_task(kernel, "A", 1, 10)
        with pytest.raises(KernelConfigError):
            simple_task(kernel, "A", 2, 10)

    def test_negative_priority_rejected(self, kernel):
        with pytest.raises(KernelConfigError):
            Task("bad", -1, lambda t: iter(()))

    def test_no_tasks_after_start(self, kernel):
        kernel.start()
        with pytest.raises(KernelConfigError):
            simple_task(kernel, "late", 1, 10)


class TestBasicExecution:
    def test_activation_runs_to_termination(self, kernel):
        task = simple_task(kernel, "A", 1, 100)
        kernel.activate_task("A")
        kernel.run_until(1_000)
        assert task.state is TaskState.SUSPENDED
        assert len(kernel.trace.filter(TraceKind.TASK_TERMINATE, "A")) == 1
        assert kernel.trace.filter(TraceKind.TASK_TERMINATE, "A")[-1].time == 100

    def test_unknown_task_activation(self, kernel):
        assert kernel.activate_task("nope") is StatusType.E_OS_ID

    def test_activation_limit(self, kernel):
        simple_task(kernel, "A", 1, 1_000_000)
        kernel.start()
        assert kernel.activate_task("A") is StatusType.E_OK
        assert kernel.activate_task("A") is StatusType.E_OS_LIMIT

    def test_multiple_activations_queue(self, kernel):
        def body(task):
            yield Segment(10)

        kernel.add_task(Task("A", 1, body, max_activations=3))
        kernel.start()
        for _ in range(3):
            assert kernel.activate_task("A") is StatusType.E_OK
        kernel.run_until(1_000)
        assert len(kernel.trace.filter(TraceKind.TASK_TERMINATE, "A")) == 3

    def test_autostart(self, kernel):
        simple_task(kernel, "A", 1, 10, autostart=True)
        kernel.run_until(100)
        assert len(kernel.trace.filter(TraceKind.TASK_TERMINATE, "A")) == 1

    def test_idle_advances_clock_to_end(self, kernel):
        kernel.run_until(5_000)
        assert kernel.clock.now == 5_000

    def test_zero_duration_segment(self, kernel):
        fired = []

        def body(task):
            yield Segment(0, on_start=lambda: fired.append("s"),
                          on_end=lambda: fired.append("e"))

        kernel.add_task(Task("Z", 1, body))
        kernel.activate_task("Z")
        kernel.run_until(10)
        assert fired == ["s", "e"]


class TestPreemption:
    def test_higher_priority_preempts(self, kernel, alarms):
        low = simple_task(kernel, "Low", 1, ms(10))
        simple_task(kernel, "High", 5, ms(2))
        alarms.alarm_activate_task("L", "Low").set_rel(ms(1))
        alarms.alarm_activate_task("H", "High").set_rel(ms(5))
        kernel.run_until(ms(30))
        assert low.preemption_count == 1
        # Low loses 2ms to High: terminates at 1 + 10 + 2 = 13ms.
        assert kernel.trace.filter(TraceKind.TASK_TERMINATE, "Low")[-1].time == ms(13)
        assert kernel.trace.filter(TraceKind.TASK_TERMINATE, "High")[-1].time == ms(7)

    def test_equal_priority_fifo(self, kernel, alarms):
        simple_task(kernel, "A", 3, ms(5))
        simple_task(kernel, "B", 3, ms(5))
        alarms.alarm_activate_task("AA", "A").set_rel(ms(1))
        alarms.alarm_activate_task("AB", "B").set_rel(ms(2))
        kernel.run_until(ms(30))
        # B activated while A runs; equal priority does not preempt.
        assert kernel.trace.filter(TraceKind.TASK_TERMINATE, "A")[-1].time == ms(6)
        assert kernel.trace.filter(TraceKind.TASK_TERMINATE, "B")[-1].time == ms(11)

    def test_non_preemptable_runs_to_completion(self, kernel, alarms):
        low = simple_task(kernel, "Low", 1, ms(10), preemptable=False)
        simple_task(kernel, "High", 5, ms(2))
        alarms.alarm_activate_task("L", "Low").set_rel(ms(1))
        alarms.alarm_activate_task("H", "High").set_rel(ms(5))
        kernel.run_until(ms(30))
        assert low.preemption_count == 0
        assert kernel.trace.filter(TraceKind.TASK_TERMINATE, "Low")[-1].time == ms(11)
        # High waits for Low to finish.
        assert kernel.trace.filter(TraceKind.TASK_TERMINATE, "High")[-1].time == ms(13)

    def test_preempted_task_resumes_before_equal_priority(self, kernel, alarms):
        """A preempted task stays at the head of its priority queue."""
        order = []

        def make_body(tag, duration):
            def body(task):
                yield Segment(duration, on_end=lambda: order.append(tag))

            return body

        kernel.add_task(Task("P1", 2, make_body("P1", ms(6))))
        kernel.add_task(Task("P2", 2, make_body("P2", ms(2))))
        kernel.add_task(Task("Hi", 9, make_body("Hi", ms(1))))
        alarms_ = AlarmTable(kernel)
        alarms_.alarm_activate_task("a1", "P1").set_rel(ms(1))
        alarms_.alarm_activate_task("a2", "P2").set_rel(ms(2))  # queued behind P1
        alarms_.alarm_activate_task("ah", "Hi").set_rel(ms(3))  # preempts P1
        kernel.run_until(ms(30))
        assert order == ["Hi", "P1", "P2"]


class TestForceTerminate:
    def test_force_terminate_ready_task(self, kernel, alarms):
        simple_task(kernel, "Low", 1, ms(50))
        kernel.activate_task("Low")
        kernel.run_until(ms(5))  # mid-segment... Low is running now
        # force_terminate of the running task is refused
        assert kernel.force_terminate("Low") is StatusType.E_OS_STATE

    def test_force_terminate_suspended_task_ok(self, kernel):
        simple_task(kernel, "A", 1, 10)
        kernel.start()
        assert kernel.force_terminate("A") is StatusType.E_OK

    def test_force_terminate_unknown(self, kernel):
        assert kernel.force_terminate("ghost") is StatusType.E_OS_ID

    def test_force_terminate_clears_pending_activations(self, kernel, alarms):
        low = simple_task(kernel, "Low", 1, ms(30))
        hi = simple_task(kernel, "Hi", 9, ms(1))

        def killer():
            kernel.force_terminate("Low")

        kernel.activate_task("Low")
        kernel.run_until(ms(2))
        kernel.queue.schedule(ms(5), killer)
        # When the event fires, Hi is not involved; Low is running -> the
        # call is made from kernel context while Low is current: refused.
        kernel.run_until(ms(10))
        # Low kept running because it was the running task at the instant.
        assert low.state is not None  # smoke: no crash


class TestShutdownAndReset:
    def test_soft_reset_restores_pristine_state(self, kernel, alarms):
        task = simple_task(kernel, "A", 1, ms(2), autostart=True)
        kernel.run_until(ms(1))
        kernel.soft_reset()
        assert task.state in (TaskState.READY, TaskState.RUNNING)  # autostart again
        assert kernel.reset_count == 1
        assert len(kernel.trace.filter(TraceKind.ECU_RESET)) == 1

    def test_soft_reset_clears_event_queue(self, kernel):
        fired = []
        kernel.queue.schedule(ms(10), lambda: fired.append(1))
        kernel.soft_reset()
        kernel.run_until(ms(20))
        assert fired == []


class TestAccounting:
    def test_utilization(self, kernel, alarms):
        simple_task(kernel, "A", 1, ms(2))
        alarms.alarm_activate_task("AA", "A").set_rel(ms(10), ms(10))
        kernel.run_until(ms(100))
        assert kernel.utilization() == pytest.approx(0.18, abs=0.03)

    def test_per_task_cpu(self, kernel, alarms):
        simple_task(kernel, "A", 1, ms(3))
        alarms.alarm_activate_task("AA", "A").set_rel(ms(10), ms(10))
        kernel.run_until(ms(50))
        assert kernel.task_cpu_ticks["A"] == 4 * ms(3)
