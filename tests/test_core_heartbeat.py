"""Tests for the heartbeat monitoring unit (aliveness + arrival rate)."""

import json

import pytest

from repro.core import ErrorType, FaultHypothesis, RunnableHypothesis
from repro.core.heartbeat import HeartbeatMonitoringUnit


def make_unit(*, aliveness_period=2, min_heartbeats=1, arrival_period=2,
              max_heartbeats=3, eager=False, active=True):
    hyp = FaultHypothesis()
    hyp.add_runnable(
        RunnableHypothesis(
            "R",
            task="T",
            aliveness_period=aliveness_period,
            min_heartbeats=min_heartbeats,
            arrival_period=arrival_period,
            max_heartbeats=max_heartbeats,
            active=active,
        )
    )
    unit = HeartbeatMonitoringUnit(hyp, eager_arrival_detection=eager)
    errors = []
    unit.add_listener(errors.append)
    return unit, errors


class TestAliveness:
    def test_healthy_runnable_no_errors(self):
        unit, errors = make_unit()
        for t in range(10):
            unit.heartbeat("R", time=t * 10)
            unit.cycle(time=t * 10 + 5)
        assert errors == []

    def test_missing_heartbeats_detected_at_period_end(self):
        unit, errors = make_unit(aliveness_period=2)
        unit.cycle(10)  # CCA=1, no check yet
        assert errors == []
        unit.cycle(20)  # CCA=2 -> check: AC=0 < 1 -> error
        assert len(errors) == 1
        assert errors[0].error_type is ErrorType.ALIVENESS
        assert errors[0].task == "T"
        assert errors[0].details == {"ac": 0, "min": 1}

    def test_counters_reset_after_error(self):
        unit, errors = make_unit(aliveness_period=2)
        unit.cycle(10)
        unit.cycle(20)
        snap = unit.snapshot("R")
        assert snap["AC"] == 0 and snap["CCA"] == 0

    def test_repeated_errors_each_period(self):
        unit, errors = make_unit(aliveness_period=2)
        for t in range(8):
            unit.cycle(t)
        assert len(errors) == 4

    def test_min_heartbeats_boundary(self):
        unit, errors = make_unit(aliveness_period=1, min_heartbeats=2)
        unit.heartbeat("R", 1)
        unit.cycle(10)  # AC=1 < 2 -> error
        assert len(errors) == 1
        unit.heartbeat("R", 11)
        unit.heartbeat("R", 12)
        unit.cycle(20)  # AC=2 >= 2 -> ok
        assert len(errors) == 1

    def test_recovery_clears_errors(self):
        unit, errors = make_unit(aliveness_period=2)
        unit.cycle(1)
        unit.cycle(2)  # error
        unit.heartbeat("R", 3)
        unit.cycle(4)
        unit.cycle(5)  # AC=1 -> ok
        assert len(errors) == 1


class TestArrivalRate:
    def test_excess_heartbeats_detected(self):
        unit, errors = make_unit(arrival_period=2, max_heartbeats=3)
        for t in range(5):
            unit.heartbeat("R", t)
        unit.cycle(10)
        unit.cycle(20)  # CCAR=2 -> check: ARC=5 > 3
        rates = [e for e in errors if e.error_type is ErrorType.ARRIVAL_RATE]
        assert len(rates) == 1
        assert rates[0].details["arc"] == 5

    def test_at_limit_is_ok(self):
        unit, errors = make_unit(arrival_period=1, max_heartbeats=3)
        for t in range(3):
            unit.heartbeat("R", t)
        unit.cycle(10)
        assert all(e.error_type is not ErrorType.ARRIVAL_RATE for e in errors)

    def test_eager_mode_detects_mid_period(self):
        unit, errors = make_unit(arrival_period=10, max_heartbeats=2, eager=True)
        unit.heartbeat("R", 1)
        unit.heartbeat("R", 2)
        assert errors == []
        unit.heartbeat("R", 3)  # 3 > 2 -> immediate error
        assert len(errors) == 1
        assert errors[0].error_type is ErrorType.ARRIVAL_RATE
        assert errors[0].details["eager"] is True
        assert errors[0].time == 3

    def test_eager_resets_arrival_counters(self):
        unit, errors = make_unit(arrival_period=10, max_heartbeats=1, eager=True)
        unit.heartbeat("R", 1)
        unit.heartbeat("R", 2)  # error + reset
        assert unit.snapshot("R")["ARC"] == 0

    def test_eager_detection_preserves_window_boundary(self):
        """An eager detection resets only ARC: the arrival window still
        ends ``arrival_period`` cycles after it began — a mid-period
        overflow must not silently lengthen subsequent windows."""
        unit, errors = make_unit(arrival_period=3, max_heartbeats=1, eager=True)
        unit.cycle(1)  # CCAR=1
        unit.heartbeat("R", 2)
        unit.heartbeat("R", 3)  # ARC=2 > 1 -> eager error
        assert len(errors) == 1
        assert unit.snapshot("R")["CCAR"] == 1  # window untouched
        unit.cycle(4)  # CCAR=2
        unit.heartbeat("R", 5)
        unit.cycle(6)  # CCAR=3 -> period end at the *configured* boundary
        assert unit.snapshot("R")["CCAR"] == 0  # window closed on time
        # ARC=1 <= max at the boundary: the eager reset already accounted
        # for the overflow, no duplicate period-end error.
        assert len(errors) == 1

    def test_eager_window_not_stretched_across_periods(self):
        """With the buggy behavior (eager reset zeroing CCAR mid-period)
        repeated eager detections push the period boundary out forever;
        fixed, the boundary stays where ``arrival_period`` put it."""
        unit, errors = make_unit(arrival_period=2, max_heartbeats=1, eager=True)
        unit.cycle(1)           # CCAR=1
        unit.heartbeat("R", 2)
        unit.heartbeat("R", 3)  # ARC=2 > 1 -> eager error @3
        unit.heartbeat("R", 4)
        unit.heartbeat("R", 5)  # ARC=2 > 1 -> eager error @5
        unit.cycle(6)           # CCAR=2 -> the window closes ON TIME
        assert [e.time for e in errors] == [3, 5]
        # Buggy version: CCAR was zeroed at each eager reset, so after
        # cycle(6) the snapshot would read CCAR=1 (boundary postponed).
        assert unit.snapshot("R")["CCAR"] == 0


class TestActivationStatus:
    def test_inactive_runnable_not_checked(self):
        unit, errors = make_unit(active=False)
        for t in range(10):
            unit.cycle(t)
        assert errors == []

    def test_deactivate_resets_counters(self):
        unit, errors = make_unit()
        unit.heartbeat("R", 1)
        unit.set_activation_status("R", False)
        assert unit.snapshot("R")["AC"] == 0
        assert not unit.activation_status("R")

    def test_reactivation_starts_clean(self):
        unit, errors = make_unit(aliveness_period=2)
        unit.set_activation_status("R", False)
        unit.cycle(1)
        unit.cycle(2)
        unit.set_activation_status("R", True)
        unit.heartbeat("R", 3)
        unit.cycle(4)
        unit.cycle(5)
        assert errors == []

    def test_set_same_status_noop(self):
        unit, _ = make_unit()
        unit.heartbeat("R", 1)
        unit.set_activation_status("R", True)
        assert unit.snapshot("R")["AC"] == 1

    def test_heartbeat_while_inactive_ignored(self):
        unit, _ = make_unit()
        unit.set_activation_status("R", False)
        unit.heartbeat("R", 1)
        assert unit.heartbeat_count == 0

    def test_set_activation_status_unknown_raises_value_error(self):
        """Flipping AS of an unmonitored runnable is a configuration
        error and must fail loudly, naming the known runnables —
        unlike heartbeats, which tolerate corrupted identifiers."""
        unit, _ = make_unit()
        with pytest.raises(ValueError, match=r"'ghost'.*known runnables: R"):
            unit.set_activation_status("ghost", True)

    def test_unknown_heartbeat_tolerated_but_as_change_is_not(self):
        """The two paths are deliberately asymmetric: heartbeat() counts
        and ignores unknown names, set_activation_status() raises."""
        unit, errors = make_unit()
        unit.heartbeat("ghost", 1)  # tolerated
        assert unit.unknown_heartbeats == 1
        assert errors == []
        with pytest.raises(ValueError):
            unit.set_activation_status("ghost", False)
        # the failed call must not have registered anything
        assert "ghost" not in unit.slot_of


class TestMisc:
    def test_unknown_heartbeat_counted(self):
        unit, errors = make_unit()
        unit.heartbeat("ghost", 1)
        assert unit.unknown_heartbeats == 1
        assert errors == []

    def test_snapshot_unknown_raises(self):
        unit, _ = make_unit()
        with pytest.raises(KeyError):
            unit.snapshot("ghost")

    def test_reset(self):
        unit, _ = make_unit()
        unit.heartbeat("R", 1)
        unit.cycle(2)
        unit.reset()
        assert unit.cycle_count == 0
        assert unit.heartbeat_count == 0
        assert unit.snapshot("R")["AC"] == 0

    def test_independent_periods(self):
        """Aliveness and arrival-rate periods advance independently."""
        hyp = FaultHypothesis()
        hyp.add_runnable(
            RunnableHypothesis("R", aliveness_period=3, arrival_period=2,
                               min_heartbeats=1, max_heartbeats=1)
        )
        unit = HeartbeatMonitoringUnit(hyp)
        errors = []
        unit.add_listener(errors.append)
        unit.heartbeat("R", 0)
        unit.heartbeat("R", 1)  # ARC=2 > 1 within first arrival period
        unit.cycle(10)
        unit.cycle(20)  # CCAR=2 -> arrival error; CCA=2 -> no aliveness check
        assert len(errors) == 1
        assert errors[0].error_type is ErrorType.ARRIVAL_RATE
        unit.cycle(30)  # CCA=3 -> AC=2 >= 1 -> ok
        assert len(errors) == 1


def two_runnable_unit():
    hyp = FaultHypothesis()
    for name in ("r0", "r1"):
        hyp.add_runnable(RunnableHypothesis(
            name, task="T", aliveness_period=1, min_heartbeats=1,
            arrival_period=1, max_heartbeats=5))
    unit = HeartbeatMonitoringUnit(hyp)
    errors = []
    unit.add_listener(errors.append)
    return unit, errors


def silent_detections(unit, errors, cycles=10):
    for time in range(cycles):
        unit.cycle(time)
    return sorted({error.runnable for error in errors})


class TestRestoreState:
    def test_json_round_trip_monitors_every_slot(self):
        unit, _ = two_runnable_unit()
        unit.heartbeat("r0", 0)
        unit.cycle(0)
        fresh, errors = two_runnable_unit()
        fresh.restore_state(json.loads(json.dumps(unit.snapshot_state())))
        assert fresh.snapshot_state() == unit.snapshot_state()
        assert silent_detections(fresh, errors) == ["r0", "r1"]

    @pytest.mark.parametrize(
        "key", ["ac", "arc", "active", "alive_due", "arr_due"])
    def test_short_per_slot_list_is_refused(self, key):
        """A capture whose per-slot list misses a slot is refused and
        leaves the unit as it was: short deadline lists used to restore,
        and the slot without a deadline was never checked again."""
        unit, _ = two_runnable_unit()
        state = json.loads(json.dumps(unit.snapshot_state()))
        lists = state["counters"] if key in state["counters"] else state
        lists[key] = lists[key][:1]
        fresh, errors = two_runnable_unit()
        with pytest.raises(ValueError, match=repr(key)):
            fresh.restore_state(state)
        assert silent_detections(fresh, errors) == ["r0", "r1"]
