"""Tests for the SoftwareWatchdog facade (unit wiring, Figure 2)."""

import pytest

from repro.core import (
    ErrorType,
    FaultHypothesis,
    HypothesisError,
    MonitorState,
    RunnableHypothesis,
    SoftwareWatchdog,
    ThresholdPolicy,
)


def make_watchdog(threshold=3, eager=False, app_of_task=None):
    hyp = FaultHypothesis(thresholds=ThresholdPolicy(default=threshold))
    for name in ("A", "B", "C"):
        hyp.add_runnable(
            RunnableHypothesis(
                name, task="T", aliveness_period=2, min_heartbeats=1,
                arrival_period=2, max_heartbeats=3,
            )
        )
    hyp.allow_sequence(["A", "B", "C"])
    return SoftwareWatchdog(hyp, eager_arrival_detection=eager,
                            app_of_task=app_of_task or {"T": "App"})


def run_healthy_cycle(wd, base_time):
    wd.notify_task_start("T")
    for i, name in enumerate(("A", "B", "C")):
        wd.heartbeat_indication(name, base_time + i, task="T")
    wd.check_cycle(base_time + 9)


class TestWiring:
    def test_invalid_hypothesis_rejected_at_construction(self):
        hyp = FaultHypothesis()
        hyp.allow_flow("ghost1", "ghost2")
        with pytest.raises(HypothesisError):
            SoftwareWatchdog(hyp)

    def test_healthy_operation_no_detections(self):
        wd = make_watchdog()
        for cycle in range(10):
            run_healthy_cycle(wd, cycle * 10)
        assert wd.detection_count() == 0
        assert wd.ecu_state() is MonitorState.OK

    def test_heartbeat_feeds_both_units(self):
        wd = make_watchdog()
        wd.heartbeat_indication("B", 1, task="T")  # illegal entry
        assert wd.detected[ErrorType.PROGRAM_FLOW] == 1
        assert wd.hbm.snapshot("B")["AC"] == 1

    def test_fault_listener_invoked(self):
        wd = make_watchdog()
        seen = []
        wd.add_fault_listener(seen.append)
        wd.heartbeat_indication("C", 1, task="T")
        assert len(seen) == 1
        assert seen[0].error_type is ErrorType.PROGRAM_FLOW

    def test_errors_reach_tsi(self):
        wd = make_watchdog(threshold=2)
        faults = []
        wd.add_task_fault_listener(faults.append)
        wd.heartbeat_indication("B", 1, task="T")
        wd.heartbeat_indication("B", 2, task="T")  # B->B also illegal
        assert len(faults) == 1
        assert wd.task_state("T") is MonitorState.FAULTY

    def test_application_state_roll_up(self):
        wd = make_watchdog(threshold=1)
        wd.heartbeat_indication("C", 1, task="T")
        assert wd.application_state("App") is MonitorState.FAULTY


class TestActivationStatusGating:
    def test_deactivated_runnable_raises_no_flow_errors(self):
        """A heartbeat from a runnable with AS=False must be invisible
        to the PFC unit too: deactivation (e.g. of a terminated
        application) must not raise PROGRAM_FLOW errors."""
        wd = make_watchdog()
        wd.set_activation_status("B", False)
        wd.notify_task_start("T")
        wd.heartbeat_indication("B", 1, task="T")  # would be illegal entry
        assert wd.detected[ErrorType.PROGRAM_FLOW] == 0
        assert wd.detection_count() == 0

    def test_deactivated_runnable_does_not_perturb_stream(self):
        """The deactivated runnable must not become the stream's
        predecessor: the remaining active sequence stays legal."""
        wd = make_watchdog()
        wd.set_activation_status("C", False)
        wd.notify_task_start("T")
        wd.heartbeat_indication("A", 1, task="T")
        wd.heartbeat_indication("B", 2, task="T")
        wd.heartbeat_indication("C", 3, task="T")  # inactive: invisible
        # Predecessor is still B; C's heartbeat did not advance the
        # stream to an (inactive) state that would flag the next A.
        assert wd.pfc._last["T"] == "B"
        assert wd.detected[ErrorType.PROGRAM_FLOW] == 0

    def test_reactivated_runnable_is_checked_again(self):
        wd = make_watchdog()
        wd.set_activation_status("B", False)
        wd.set_activation_status("B", True)
        wd.notify_task_start("T")
        wd.heartbeat_indication("B", 1, task="T")  # illegal entry again
        assert wd.detected[ErrorType.PROGRAM_FLOW] == 1

    def test_unknown_runnable_still_counted(self):
        wd = make_watchdog()
        wd.heartbeat_indication("ghost", 1, task="T")
        assert wd.hbm.unknown_heartbeats == 1

    def test_set_activation_status_unknown_raises(self):
        wd = make_watchdog()
        with pytest.raises(ValueError, match="ghost"):
            wd.set_activation_status("ghost", False)


class TestCheckCycle:
    def test_aliveness_detection_via_cycles(self):
        wd = make_watchdog()
        wd.check_cycle(10)
        wd.check_cycle(20)  # period 2 expires, no heartbeats recorded
        assert wd.detected[ErrorType.ALIVENESS] == 3  # A, B and C all missed
        assert wd.check_cycle_count == 2

    def test_detection_count_filters(self):
        wd = make_watchdog()
        wd.check_cycle(10)
        wd.check_cycle(20)
        assert wd.detection_count(ErrorType.ALIVENESS) == 3
        assert wd.detection_count(ErrorType.ALIVENESS, runnable="A") == 1
        assert wd.detection_count(runnable="A") == 1
        assert wd.detection_count(ErrorType.PROGRAM_FLOW) == 0

    def test_activation_status_gate(self):
        wd = make_watchdog()
        wd.set_activation_status("A", False)
        wd.set_activation_status("B", False)
        wd.set_activation_status("C", False)
        wd.check_cycle(10)
        wd.check_cycle(20)
        assert wd.detection_count() == 0


class TestReset:
    def test_reset_clears_all_state(self):
        wd = make_watchdog(threshold=1)
        wd.heartbeat_indication("C", 1, task="T")
        assert wd.ecu_state() is MonitorState.FAULTY
        wd.reset()
        assert wd.detection_count() == 0
        assert wd.ecu_state() is MonitorState.OK
        assert wd.check_cycle_count == 0

    def test_after_reset_operates_normally(self):
        wd = make_watchdog()
        wd.reset()
        run_healthy_cycle(wd, 0)
        assert wd.detection_count() == 0
