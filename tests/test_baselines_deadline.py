"""Tests for the OSEKtime-style deadline monitor baseline."""

import pytest

from repro.baselines import DeadlineMonitor
from repro.core import ErrorType
from repro.faults import (
    BlockedRunnableFault,
    FaultTarget,
    SkipRunnableFault,
    TimeScalarFault,
)
from repro.kernel import Segment, Task, TraceKind, ms, seconds
from repro.platform import Ecu, FmfPolicy

from testutil import make_safespeed_mapping, periodic_task


@pytest.fixture
def supervised_ecu():
    ecu = Ecu(
        "central",
        make_safespeed_mapping(),
        watchdog_period=ms(10),
        fmf_policy=FmfPolicy(ecu_faulty_task_threshold=99, max_app_restarts=10**9),
    )
    monitor = DeadlineMonitor(ecu.kernel)
    monitor.monitor("SafeSpeedTask", deadline=ms(8))  # WCET 4 ms, period 10 ms
    ecu.run_until(ms(200))
    assert len(monitor.violation_times) == 0
    return ecu, monitor


class TestBasicOperation:
    def test_on_time_task_clean(self, kernel, alarms):
        periodic_task(kernel, alarms, "T", 5, ms(10), [ms(2)])
        monitor = DeadlineMonitor(kernel)
        monitor.monitor("T", deadline=ms(5))
        kernel.run_until(seconds(1))
        assert len(monitor.violation_times) == 0

    def test_overrunning_task_flagged(self, kernel, alarms):
        periodic_task(kernel, alarms, "T", 5, ms(10), [ms(7)])
        monitor = DeadlineMonitor(kernel)
        monitor.monitor("T", deadline=ms(5))
        kernel.run_until(ms(100))
        assert len(monitor.violation_times) > 0
        assert monitor.violations_by_task["T"] > 0

    def test_hung_task_flagged(self, kernel, alarms):
        def hang_body(task):
            yield Segment(seconds(10))

        kernel.add_task(Task("Hang", 5, hang_body))
        monitor = DeadlineMonitor(kernel)
        monitor.monitor("Hang", deadline=ms(20))
        kernel.activate_task("Hang")
        kernel.run_until(ms(100))
        assert len(monitor.violation_times) == 1
        assert monitor.violation_times[0] == ms(20)

    def test_invalid_deadline(self, kernel):
        monitor = DeadlineMonitor(kernel)
        with pytest.raises(ValueError):
            monitor.monitor("T", deadline=0)

    def test_unmonitored_tasks_ignored(self, kernel, alarms):
        periodic_task(kernel, alarms, "T", 5, ms(10), [ms(9)])
        monitor = DeadlineMonitor(kernel)
        kernel.run_until(ms(100))
        assert len(monitor.violation_times) == 0

    def test_detector_interface(self, kernel, alarms):
        periodic_task(kernel, alarms, "T", 5, ms(10), [ms(7)])
        monitor = DeadlineMonitor(kernel)
        monitor.monitor("T", deadline=ms(5))
        kernel.run_until(ms(50))
        assert monitor.first_detection_after(0) == ms(15)  # 10 + 5


class TestGranularityBlindSpot:
    """Task-level deadlines cannot see inside the task (§2)."""

    def test_skipped_runnable_invisible(self, supervised_ecu):
        """Skipping a runnable makes the task FASTER — the deadline
        monitor stays happy while the Software Watchdog flags both the
        flow violation and the missing runnable."""
        ecu, monitor = supervised_ecu
        SkipRunnableFault("SafeSpeedTask", "SAFE_CC_process").inject(
            FaultTarget.from_ecu(ecu)
        )
        ecu.run_until(ecu.now + seconds(2))
        assert len(monitor.violation_times) == 0
        assert ecu.watchdog.detection_count(ErrorType.PROGRAM_FLOW) > 0
        assert ecu.watchdog.detection_count(ErrorType.ALIVENESS) > 0

    def test_task_hang_visible_to_both(self, supervised_ecu):
        ecu, monitor = supervised_ecu
        BlockedRunnableFault("SAFE_CC_process").inject(FaultTarget.from_ecu(ecu))
        # A blocked runnable is skipped in our model (the task still
        # terminates): deadline monitor blind, software watchdog sees it.
        ecu.run_until(ecu.now + seconds(1))
        assert len(monitor.violation_times) == 0
        assert ecu.watchdog.detection_count(ErrorType.ALIVENESS) > 0

    def test_slowed_task_visible_to_both(self, supervised_ecu):
        """A genuinely slowed task (4x period scale means late
        activations, not long executions) — the deadline monitor sees
        nothing wrong per activation; aliveness monitoring does."""
        ecu, monitor = supervised_ecu
        TimeScalarFault("SafeSpeedTask", scalar=4.0).inject(
            FaultTarget.from_ecu(ecu)
        )
        ecu.run_until(ecu.now + seconds(2))
        # Each activation still meets its deadline...
        assert len(monitor.violation_times) == 0
        # ... but the arrival pattern violates the fault hypothesis.
        assert ecu.watchdog.detection_count(ErrorType.ALIVENESS) > 0
