"""Tests for OSEK integration: glue code and the watchdog task binding."""

import pytest

from repro.core import (
    FaultHypothesis,
    RunnableHypothesis,
    SoftwareWatchdog,
    WatchdogTaskBinding,
    install_glue_on_all,
    install_heartbeat_glue,
)
from repro.core.reports import ErrorType
from repro.kernel import (
    AlarmTable,
    Kernel,
    Runnable,
    Task,
    TraceKind,
    ms,
    runnable_sequence_body,
)


def build_system(kernel, alarms, *, period=ms(10), aliveness_period=2,
                 check_cost=0, wd_priority=20):
    names = ["A", "B", "C"]
    runnables = [Runnable(n, kernel, wcet=ms(1)) for n in names]
    kernel.add_task(Task("AppTask", 5, runnable_sequence_body(runnables)))
    alarms.alarm_activate_task("AppAlarm", "AppTask").set_rel(period, period)
    hyp = FaultHypothesis()
    for name in names:
        hyp.add_runnable(
            RunnableHypothesis(name, task="AppTask",
                               aliveness_period=aliveness_period,
                               arrival_period=aliveness_period,
                               max_heartbeats=3)
        )
    hyp.allow_sequence(names)
    wd = SoftwareWatchdog(hyp)
    install_glue_on_all(wd, runnables)
    binding = WatchdogTaskBinding(
        kernel, alarms, wd, period=period, priority=wd_priority,
        check_cost=check_cost,
    )
    return wd, binding, runnables


class TestGlue:
    def test_glue_reports_heartbeats(self, kernel, alarms):
        wd, binding, runnables = build_system(kernel, alarms)
        kernel.run_until(ms(100))
        assert wd.hbm.heartbeat_count > 0
        assert len(kernel.trace.filter(TraceKind.HEARTBEAT, "A")) >= 9

    def test_glue_records_trace_with_task(self, kernel, alarms):
        wd, _, _ = build_system(kernel, alarms)
        kernel.run_until(ms(30))
        record = kernel.trace.filter(TraceKind.HEARTBEAT, "A")[0]
        assert record.info["task"] == "AppTask"

    def test_install_single(self, kernel):
        r = Runnable("solo", kernel, wcet=ms(1))
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis("solo"))
        wd = SoftwareWatchdog(hyp)
        install_heartbeat_glue(wd, r)
        kernel.add_task(Task("T", 1, runnable_sequence_body([r])))
        kernel.activate_task("T")
        kernel.run_until(ms(10))
        assert wd.hbm.heartbeat_count == 1


class TestBinding:
    def test_periodic_check_cycles(self, kernel, alarms):
        wd, binding, _ = build_system(kernel, alarms)
        kernel.run_until(ms(100))
        assert wd.check_cycle_count == 10
        assert len(kernel.trace.filter(TraceKind.WATCHDOG_CHECK)) == 10

    def test_invalid_period_rejected(self, kernel, alarms):
        hyp = FaultHypothesis()
        wd = SoftwareWatchdog(hyp)
        with pytest.raises(ValueError):
            WatchdogTaskBinding(kernel, alarms, wd, period=0, priority=1)

    def test_healthy_no_false_positives(self, kernel, alarms):
        wd, _, _ = build_system(kernel, alarms)
        kernel.run_until(ms(500))
        assert wd.detection_count() == 0

    def test_check_cost_consumes_cpu(self, kernel, alarms):
        wd, binding, _ = build_system(kernel, alarms, check_cost=ms(1))
        kernel.run_until(ms(105))
        assert kernel.task_cpu_ticks[binding.task_name] == 10 * ms(1)

    def test_task_start_resets_flow_stream(self, kernel, alarms):
        """Each task activation may legally restart at the entry point —
        the binding's pre-task hook must reset the PFC stream."""
        wd, _, _ = build_system(kernel, alarms)
        kernel.run_until(ms(200))
        assert wd.detected[ErrorType.PROGRAM_FLOW] == 0

    def test_blocked_runnable_detected_end_to_end(self, kernel, alarms):
        wd, _, runnables = build_system(kernel, alarms)
        kernel.run_until(ms(100))
        runnables[1].enabled = False  # block B
        kernel.run_until(ms(300))
        assert wd.detected[ErrorType.ALIVENESS] > 0
        assert wd.detected[ErrorType.PROGRAM_FLOW] > 0  # A -> C illegal
        assert wd.detection_count(ErrorType.ALIVENESS, runnable="B") > 0
        # A and C keep running: no aliveness errors for them.
        assert wd.detection_count(ErrorType.ALIVENESS, runnable="A") == 0
        assert wd.detection_count(ErrorType.ALIVENESS, runnable="C") == 0

    def test_watchdog_priority_above_hog(self, kernel, alarms):
        """The watchdog check still runs while a lower-priority hog
        starves the application: the starvation is detected."""
        wd, binding, _ = build_system(kernel, alarms, wd_priority=20)

        def hog_body(task):
            from repro.kernel import Segment

            while True:
                yield Segment(ms(100))

        kernel.add_task(Task("Hog", 10, hog_body))  # above app (5), below wd
        kernel.queue.schedule(ms(100), lambda: kernel.activate_task("Hog"))
        kernel.run_until(ms(400))
        assert wd.detected[ErrorType.ALIVENESS] > 0
        assert wd.check_cycle_count == 40
