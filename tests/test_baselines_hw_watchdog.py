"""Tests for the hardware watchdog baseline and its blind spots."""

import pytest

from repro.baselines import HardwareWatchdog, attach_kick_task
from repro.core import ErrorType
from repro.faults import BlockedRunnableFault, FaultTarget
from repro.kernel import AlarmTable, Kernel, ms, seconds
from repro.platform import Ecu, FmfPolicy

from testutil import make_safespeed_mapping


class TestBasicOperation:
    def test_expires_without_kick(self, kernel):
        wd = HardwareWatchdog(kernel, timeout=ms(50))
        wd.start()
        kernel.run_until(ms(200))
        assert wd.expired
        assert wd.expiry_times[0] == ms(50)

    def test_regular_kicks_prevent_expiry(self, kernel):
        wd = HardwareWatchdog(kernel, timeout=ms(50))
        wd.start()

        def kick_loop():
            wd.kick()
            kernel.queue.schedule(kernel.clock.now + ms(20), kick_loop)

        kernel.queue.schedule(ms(10), kick_loop)
        kernel.run_until(seconds(1))
        assert not wd.expired
        assert wd.kick_count > 40

    def test_invalid_parameters(self, kernel):
        with pytest.raises(ValueError):
            HardwareWatchdog(kernel, timeout=0)
        with pytest.raises(ValueError):
            HardwareWatchdog(kernel, timeout=10, window_open=10)

    def test_detector_interface(self, kernel):
        wd = HardwareWatchdog(kernel, timeout=ms(50))
        wd.start()
        kernel.run_until(ms(120))
        assert wd.first_detection_after(0) == ms(50)
        assert wd.first_detection_after(ms(60)) == ms(100)


class TestWindowedMode:
    def test_early_kick_detected(self, kernel):
        wd = HardwareWatchdog(kernel, timeout=ms(50), window_open=ms(20))
        wd.start()
        kernel.queue.schedule(ms(30), wd.kick)  # legal (after window opens)
        kernel.queue.schedule(ms(35), wd.kick)  # early: 5 ms after last kick
        kernel.run_until(ms(40))
        assert len(wd.early_kick_times) == 1

    def test_kick_inside_window_ok(self, kernel):
        wd = HardwareWatchdog(kernel, timeout=ms(50), window_open=ms(20))
        wd.start()
        for t in (ms(30), ms(60), ms(90)):
            kernel.queue.schedule(t, wd.kick)
        kernel.run_until(ms(100))
        assert wd.early_kick_times == []
        assert not wd.expired


class TestKickArrangements:
    def test_kick_task(self, kernel, alarms):
        wd = HardwareWatchdog(kernel, timeout=ms(50))
        task = attach_kick_task(kernel, wd)
        alarms.alarm_activate_task("kick", task.name).set_rel(ms(20), ms(20))
        wd.start()
        kernel.run_until(seconds(1))
        assert not wd.expired

class TestGranularityBlindSpot:
    """The paper's core argument: the hardware watchdog misses
    runnable-level faults the Software Watchdog catches."""

    def build_supervised_ecu(self):
        ecu = Ecu(
            "central",
            make_safespeed_mapping(),
            watchdog_period=ms(10),
            fmf_policy=FmfPolicy(ecu_faulty_task_threshold=99,
                                 max_app_restarts=10**9),
        )
        hw = HardwareWatchdog(ecu.kernel, timeout=ms(100))
        # Conventional arrangement: the OS-level kick task at priority 1.
        task = attach_kick_task(ecu.kernel, hw)
        ecu.alarms.alarm_activate_task("hwkick", task.name).set_rel(ms(30), ms(30))
        hw.start()
        ecu.run_until(ms(200))
        return ecu, hw

    def test_blocked_runnable_invisible_to_hw_watchdog(self):
        ecu, hw = self.build_supervised_ecu()
        BlockedRunnableFault("SAFE_CC_process").inject(FaultTarget.from_ecu(ecu))
        ecu.run_until(ecu.now + seconds(2))
        # Software watchdog sees it; hardware watchdog does not.
        assert ecu.watchdog.detection_count(ErrorType.ALIVENESS) > 0
        assert not hw.expired

    def test_cpu_starvation_visible_to_both(self):
        """A runaway task above every application priority starves both
        the applications and the kick task: the classic fault class both
        watchdogs catch."""
        ecu = Ecu(
            "central",
            make_safespeed_mapping(),
            watchdog_period=ms(10),
            fmf_policy=FmfPolicy(ecu_faulty_task_threshold=99,
                                 max_app_restarts=10**9),
        )
        hw = HardwareWatchdog(ecu.kernel, timeout=ms(100))
        kick = attach_kick_task(ecu.kernel, hw)
        ecu.alarms.alarm_activate_task("hwkick", kick.name).set_rel(ms(30), ms(30))

        from repro.kernel import Segment, Task

        def runaway_body(task):
            while True:
                yield Segment(ms(100))

        ecu.kernel.add_task(Task("Runaway", 9, runaway_body))
        hw.start()
        ecu.run_until(ms(200))
        ecu.kernel.activate_task("Runaway")
        ecu.run_until(ecu.now + seconds(2))
        assert hw.expired
        assert ecu.watchdog.detection_count(ErrorType.ALIVENESS) > 0
