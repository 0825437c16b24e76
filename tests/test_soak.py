"""Soak tests: long runs under randomized transient fault sequences.

These tests exercise the whole treat-and-recover machinery repeatedly
and assert the *invariants that must survive any history*:

* no detections without an active fault (no false positives, ever),
* every injected fault episode is detected (no false negatives),
* the system returns to a clean steady state after each episode,
* kernel accounting stays consistent (CPU ticks monotone, utilisation
  bounded, no task stuck in a phantom state).
"""

import random

import pytest

from repro.core import ErrorType, MonitorState
from repro.faults import (
    BlockedRunnableFault,
    FaultTarget,
    InvalidBranchFault,
    LoopCountFault,
    SkipRunnableFault,
    TimeScalarFault,
)
from repro.kernel import TaskState, ms, seconds
from repro.platform import Ecu, FmfPolicy

from testutil import make_safespeed_mapping


def fault_catalogue():
    return [
        lambda: BlockedRunnableFault("SAFE_CC_process"),
        lambda: BlockedRunnableFault("GetSensorValue"),
        lambda: TimeScalarFault("SafeSpeedTask", scalar=4.0),
        lambda: LoopCountFault("GetSensorValue", repeat=4),
        lambda: SkipRunnableFault("SafeSpeedTask", "SAFE_CC_process"),
        lambda: InvalidBranchFault("SafeSpeedTask", 1, "Speed_process"),
    ]


class TestTransientFaultSoak:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_every_episode_detected_and_recovered(self, seed):
        rng = random.Random(seed)
        ecu = Ecu(
            "soak",
            make_safespeed_mapping(),
            watchdog_period=ms(10),
            fmf_policy=FmfPolicy(ecu_faulty_task_threshold=10**6,
                                 max_app_restarts=10**6),
            fmf_auto_treatment=False,
        )
        target = FaultTarget.from_ecu(ecu)
        ecu.run_until(ms(500))

        episodes = 0
        for _ in range(8):
            # --- clean phase: flush any straddling period, then verify
            # silence.
            ecu.run_until(ecu.now + ms(100))
            baseline = ecu.watchdog.detection_count()
            ecu.run_until(ecu.now + rng.randint(ms(200), ms(500)))
            assert ecu.watchdog.detection_count() == baseline, (
                "false positive during clean phase"
            )

            # --- fault episode -----------------------------------------
            fault = rng.choice(fault_catalogue())()
            before = ecu.watchdog.detection_count()
            fault.inject(target)
            ecu.run_until(ecu.now + rng.randint(ms(300), ms(600)))
            fault.restore(target)
            ecu.watchdog.notify_task_start("SafeSpeedTask")
            assert ecu.watchdog.detection_count() > before, (
                f"missed fault {fault.name}"
            )
            episodes += 1
        assert episodes == 8

    def test_kernel_accounting_invariants_hold(self):
        rng = random.Random(3)
        ecu = Ecu(
            "soak",
            make_safespeed_mapping(),
            watchdog_period=ms(10),
            fmf_policy=FmfPolicy(ecu_faulty_task_threshold=5,
                                 max_app_restarts=2),
        )
        target = FaultTarget.from_ecu(ecu)
        last_cpu = 0
        for _ in range(6):
            fault = rng.choice(fault_catalogue())()
            fault.inject(target)
            ecu.run_until(ecu.now + ms(400))
            fault.restore(target)
            ecu.run_until(ecu.now + ms(400))
            # CPU accounting is monotone and bounded.
            assert ecu.kernel.cpu_busy_ticks >= last_cpu
            last_cpu = ecu.kernel.cpu_busy_ticks
            assert 0.0 <= ecu.kernel.utilization() <= 1.0
        # No phantom runtime state: every task is in a legal OSEK state.
        for task in ecu.kernel.tasks.values():
            assert task.state in (TaskState.SUSPENDED, TaskState.READY,
                                  TaskState.RUNNING)

    def test_repeated_resets_keep_the_ecu_functional(self):
        """Hammer the escalation path: after dozens of resets the ECU
        still schedules, supervises and recovers."""
        ecu = Ecu(
            "soak",
            make_safespeed_mapping(),
            watchdog_period=ms(10),
            fmf_policy=FmfPolicy(ecu_faulty_task_threshold=5,
                                 max_app_restarts=1),
        )
        target = FaultTarget.from_ecu(ecu)
        fault = BlockedRunnableFault("SAFE_CC_process")
        ecu.run_until(ms(300))
        fault.inject(target)
        ecu.run_until(ecu.now + seconds(3))
        assert len(ecu.reset_times) >= 10
        fault.restore(target)
        ecu.run_until(ecu.now + seconds(1))
        detections = ecu.watchdog.detection_count()
        executions = ecu.system.runnables["SAFE_CC_process"].execution_count
        ecu.run_until(ecu.now + seconds(1))
        assert ecu.watchdog.detection_count() == detections
        assert ecu.system.runnables["SAFE_CC_process"].execution_count > executions
        # A single period-straddling error at restore time may leave the
        # task SUSPICIOUS (sub-threshold errors persist until treatment);
        # what must not remain is a FAULTY verdict.
        assert ecu.ecu_monitor_state() is not MonitorState.FAULTY
