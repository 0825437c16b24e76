"""The synchronous supervision core: the table, registration, fleet rollup."""

import pytest

from repro.core import FaultHypothesis, RunnableHypothesis
from repro.core.config_io import hypothesis_to_dict
from repro.core.reports import ErrorType, MonitorState
from repro.service import Fleet, RegistrationError, SupervisorShard


def make_hypothesis(prefix: str = "", task: str = "T") -> FaultHypothesis:
    hyp = FaultHypothesis()
    hyp.add_runnable(RunnableHypothesis(
        f"{prefix}sense", task=task, aliveness_period=2, min_heartbeats=1,
        arrival_period=2, max_heartbeats=8))
    hyp.add_runnable(RunnableHypothesis(
        f"{prefix}act", task=task, aliveness_period=2, min_heartbeats=1,
        arrival_period=2, max_heartbeats=8))
    hyp.allow_sequence([f"{prefix}sense", f"{prefix}act"])
    return hyp


def hyp_dict(prefix: str = "", task: str = "T"):
    return hypothesis_to_dict(make_hypothesis(prefix, task))


class TestRegistration:
    def test_register_builds_wheel_watchdog(self):
        table = SupervisorShard()
        registration = table.register("p", hyp_dict())
        watchdog = registration.watchdog
        assert list(watchdog.hbm.slot_of) == ["sense", "act"]
        assert not watchdog.hbm.eager_arrival_detection
        assert registration.lint_diagnostics == []

    def test_invalid_hypothesis_rejected(self):
        table = SupervisorShard()
        with pytest.raises(RegistrationError, match="invalid hypothesis"):
            table.register("p", {"version": 99})

    def test_lint_error_rejected(self):
        # WD201: aliveness demands more heartbeats than arrival
        # tolerates — error severity, rejected even without strict.
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis(
            "a", task="T", aliveness_period=2, min_heartbeats=10,
            arrival_period=2, max_heartbeats=1))
        table = SupervisorShard(strict=False)
        with pytest.raises(RegistrationError, match="WD201"):
            table.register("p", hypothesis_to_dict(hyp))

    def test_strict_rejects_warnings(self):
        # WD202: min_heartbeats=0 is a vacuous aliveness check (warning).
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis("a", task="T", min_heartbeats=0))
        lenient = SupervisorShard(strict=False)
        strict = SupervisorShard(strict=True)
        registration = lenient.register("p", hypothesis_to_dict(hyp))
        assert any("WD202" in d for d in registration.lint_diagnostics)
        with pytest.raises(RegistrationError, match="strict"):
            strict.register("p", hypothesis_to_dict(hyp))

    def test_duplicate_name_same_hypothesis_rebinds(self):
        table = SupervisorShard()
        first = table.register("p", hyp_dict())
        first.deactivate()
        again = table.register("p", hyp_dict())
        assert again is first
        assert again.active

    def test_duplicate_name_different_hypothesis_rejected(self):
        table = SupervisorShard()
        table.register("p", hyp_dict())
        with pytest.raises(RegistrationError, match="already in use"):
            table.register("p", hyp_dict(prefix="other."))

    def test_duplicate_name_different_app_map_rejected(self):
        """Regression: the rebind compared only the hypothesis, so a
        REGISTER with a changed ``app_of_task`` was acknowledged as a
        rebind while the TSI kept the old application map."""
        table = SupervisorShard()
        first = table.register("p", hyp_dict(), app_of_task={"T": "appA"})
        first.deactivate()
        with pytest.raises(RegistrationError, match="app_of_task"):
            table.register("p", hyp_dict(), app_of_task={"T": "appB"})
        with pytest.raises(RegistrationError, match="app_of_task"):
            table.register("p", hyp_dict())
        assert not first.active
        assert first.watchdog.tsi.app_of_task == {"T": "appA"}
        assert table.register(
            "p", hyp_dict(), app_of_task={"T": "appA"}) is first
        assert first.active

    def test_rebind_reads_no_app_map_as_an_empty_one(self):
        table = SupervisorShard()
        first = table.register("p", hyp_dict())
        assert table.register("p", hyp_dict(), app_of_task={}) is first
        second = table.register("q", hyp_dict(), app_of_task={})
        assert table.register("q", hyp_dict()) is second

    def test_deactivate_reactivate_respects_configured_as(self):
        hyp = make_hypothesis()
        hyp.runnables["act"].active = False
        table = SupervisorShard()
        registration = table.register("p", hypothesis_to_dict(hyp))
        registration.deactivate()
        assert not registration.watchdog.hbm.slot_active(
            registration.watchdog.hbm.slot_of["sense"])
        registration.reactivate()
        hbm = registration.watchdog.hbm
        assert hbm.slot_active(hbm.slot_of["sense"])
        assert not hbm.slot_active(hbm.slot_of["act"])


class TestSupervision:
    def test_heartbeats_prevent_detections(self):
        table = SupervisorShard()
        table.register("p", hyp_dict())
        for cycle in range(1, 7):
            table.task_start("p", "T")
            table.heartbeat("p", "sense", cycle * 10, "T")
            table.heartbeat("p", "act", cycle * 10 + 1, "T")
            assert table.tick(cycle * 10 + 5) == []

    def test_silence_detected(self):
        table = SupervisorShard()
        table.register("p", hyp_dict())
        detections = []
        table.add_detection_listener(lambda name, e: detections.append((name, e)))
        for cycle in range(1, 5):
            table.tick(cycle * 10)
        assert detections
        assert {name for name, _ in detections} == {"p"}
        assert {e.error_type for _, e in detections} == {ErrorType.ALIVENESS}
        assert table.registrations["p"].detections == len(detections)

    def test_unknown_registration_ignored(self):
        table = SupervisorShard()
        table.heartbeat("ghost", "sense", 1, "T")
        table.task_start("ghost", "T")
        assert table.registrations == {}

    def test_deactivated_registration_stays_silent(self):
        table = SupervisorShard()
        table.register("p", hyp_dict())
        table.deregister("p")
        for cycle in range(1, 6):
            assert table.tick(cycle * 10) == []


class TestFleet:
    def test_one_table_in_registration_order(self):
        fleet = Fleet()
        with pytest.raises(RegistrationError):
            fleet.register("bad", {"version": 99})
        for name in ("b", "a", "c"):
            fleet.register(name, hyp_dict(prefix=f"{name}."))
        assert isinstance(fleet, SupervisorShard)
        assert list(fleet.registrations) == ["b", "a", "c"]

    def test_state_rollup_worst_of(self):
        fleet = Fleet()
        fleet.register("healthy", hyp_dict(prefix="h.", task="HT"))
        fleet.register("crashed", hyp_dict(prefix="c.", task="CT"))
        assert fleet.fleet_state() is MonitorState.OK
        for cycle in range(1, 10):
            # Only the healthy registration heartbeats.
            fleet.task_start("healthy", "HT")
            fleet.heartbeat("healthy", "h.sense", cycle * 10, "HT")
            fleet.heartbeat("healthy", "h.act", cycle * 10 + 1, "HT")
            fleet.tick(cycle * 10 + 5)
        assert fleet.registration_states()["healthy"] is MonitorState.OK
        assert fleet.registration_states()["crashed"] is MonitorState.FAULTY
        assert fleet.fleet_state() is MonitorState.FAULTY
        assert fleet.task_states()["crashed"]["CT"] is MonitorState.FAULTY

    def test_fleet_state_change_events(self):
        fleet = Fleet()
        changes = []
        fleet.add_fleet_state_listener(changes.append)
        fleet.register("p", hyp_dict())
        for cycle in range(1, 10):
            fleet.tick(cycle * 10)
        assert changes
        assert changes[0].old_state is MonitorState.OK
        assert changes[-1].new_state is MonitorState.FAULTY
        assert any("p.T" in change.faulty_tasks for change in changes
                   if change.new_state is MonitorState.FAULTY)

    def test_detections_forwarded_with_registration_name(self):
        fleet = Fleet()
        seen = []
        fleet.add_detection_listener(lambda name, e: seen.append(name))
        fleet.register("a", hyp_dict(prefix="a."))
        fleet.register("b", hyp_dict(prefix="b."))
        for cycle in range(1, 4):
            fleet.tick(cycle * 10)
        assert set(seen) == {"a", "b"}

    def test_stats(self):
        fleet = Fleet()
        fleet.register("p", hyp_dict())
        fleet.heartbeat("p", "sense", 1, "T")
        fleet.task_start("p", "T")
        fleet.tick(10)
        stats = fleet.stats()
        assert stats["registrations"] == 1
        assert stats["indications"] == 1
        assert stats["task_starts"] == 1
        assert stats["ticks"] == 1
