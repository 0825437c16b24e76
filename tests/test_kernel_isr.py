"""Tests for the ISR model."""

import pytest

from repro.kernel import (
    InterruptController,
    KernelConfigError,
    Segment,
    Task,
    TraceKind,
    ms,
)


class TestIsrBasics:
    def test_fire_runs_handler(self, kernel):
        controller = InterruptController(kernel)
        hits = []
        isr = controller.register("rx", lambda: hits.append(kernel.clock.now))
        isr.schedule_at(ms(5))
        kernel.run_until(ms(10))
        assert hits == [ms(5)]
        assert isr.fire_count == 1

    def test_duplicate_name_rejected(self, kernel):
        controller = InterruptController(kernel)
        controller.register("rx", lambda: None)
        with pytest.raises(KernelConfigError):
            controller.register("rx", lambda: None)

    def test_negative_duration_rejected(self, kernel):
        controller = InterruptController(kernel)
        with pytest.raises(KernelConfigError):
            controller.register("rx", lambda: None, duration=-1)

    def test_trace_records_entry_exit(self, kernel):
        controller = InterruptController(kernel)
        isr = controller.register("rx", lambda: None)
        isr.schedule_at(ms(2))
        kernel.run_until(ms(5))
        assert kernel.trace.count(TraceKind.ISR_ENTER, "rx") == 1
        assert kernel.trace.count(TraceKind.ISR_EXIT, "rx") == 1


class TestTimeTheft:
    def test_isr_duration_delays_running_task(self, kernel):
        def body(task):
            yield Segment(ms(10))

        kernel.add_task(Task("T", 1, body))
        controller = InterruptController(kernel)
        isr = controller.register("rx", lambda: None, duration=ms(2))
        kernel.activate_task("T")
        isr.schedule_at(ms(5))
        kernel.run_until(ms(30))
        # Task needed 10ms CPU but lost 2ms to the ISR.
        assert kernel.trace.last(TraceKind.TASK_TERMINATE, "T").time == ms(12)

    def test_isr_on_idle_cpu_steals_nothing(self, kernel):
        controller = InterruptController(kernel)
        isr = controller.register("rx", lambda: None, duration=ms(2))
        isr.schedule_at(ms(5))

        def body(task):
            yield Segment(ms(3))

        kernel.add_task(Task("T", 1, body))
        kernel.queue.schedule(ms(10), lambda: kernel.activate_task("T"))
        kernel.run_until(ms(30))
        assert kernel.trace.last(TraceKind.TASK_TERMINATE, "T").time == ms(13)

    def test_periodic_isr_storm(self, kernel):
        def body(task):
            yield Segment(ms(10))

        kernel.add_task(Task("T", 1, body))
        controller = InterruptController(kernel)
        isr = controller.register("storm", lambda: None, duration=ms(1))
        for when in range(ms(2), ms(60), ms(2)):
            isr.schedule_at(when)
        kernel.activate_task("T")
        kernel.run_until(ms(60))
        assert isr.fire_count >= 10
        # Massive slowdown: 10ms of work under ~50% theft takes ~19ms.
        end = kernel.trace.last(TraceKind.TASK_TERMINATE, "T").time
        assert end >= ms(18)

    def test_isr_can_activate_task(self, kernel):
        def body(task):
            yield Segment(ms(1))

        kernel.add_task(Task("T", 5, body))
        controller = InterruptController(kernel)
        isr = controller.register("rx", lambda: kernel.activate_task("T"))
        isr.schedule_at(ms(3))
        kernel.run_until(ms(10))
        assert kernel.trace.count(TraceKind.TASK_TERMINATE, "T") == 1
