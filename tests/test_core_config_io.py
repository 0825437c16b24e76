"""Tests for hypothesis serialization and the deploy verdict of a
loaded hypothesis."""

import json

import pytest

from repro.core import (
    ErrorType,
    FaultHypothesis,
    RunnableHypothesis,
    ThresholdPolicy,
    hypothesis_from_dict,
    hypothesis_to_dict,
)
from repro.kernel import ms
from repro.platform import SystemBuilder
from repro.kernel import Kernel
from repro.lint import Diagnostic, Severity, lint_hypothesis


def sample_hypothesis():
    hyp = FaultHypothesis(
        thresholds=ThresholdPolicy(default=4, per_type={ErrorType.PROGRAM_FLOW: 3})
    )
    hyp.add_runnable(
        RunnableHypothesis("A", task="T", aliveness_period=2, min_heartbeats=1,
                           arrival_period=3, max_heartbeats=5)
    )
    hyp.add_runnable(RunnableHypothesis("B", task="T", active=False))
    hyp.allow_sequence(["A", "B"])
    return hyp


class TestSerialization:
    def test_roundtrip_preserves_everything(self):
        original = sample_hypothesis()
        restored = hypothesis_from_dict(hypothesis_to_dict(original))
        assert set(restored.runnables) == {"A", "B"}
        a = restored.runnables["A"]
        assert (a.aliveness_period, a.min_heartbeats) == (2, 1)
        assert (a.arrival_period, a.max_heartbeats) == (3, 5)
        assert not restored.runnables["B"].active
        assert restored.flow_pairs == original.flow_pairs
        assert restored.thresholds.default == 4
        assert restored.thresholds.per_type[ErrorType.PROGRAM_FLOW] == 3

    def test_json_compatible(self):
        data = hypothesis_to_dict(sample_hypothesis())
        restored = hypothesis_from_dict(json.loads(json.dumps(data)))
        assert set(restored.runnables) == {"A", "B"}

    def test_version_checked(self):
        data = hypothesis_to_dict(sample_hypothesis())
        data["version"] = 99
        with pytest.raises(ValueError):
            hypothesis_from_dict(data)

    def test_invalid_flow_rejected_on_load(self):
        data = hypothesis_to_dict(sample_hypothesis())
        data["flow_pairs"].append({"predecessor": "ghost", "successor": "A"})
        with pytest.raises(Exception):
            hypothesis_from_dict(data)

    def test_roundtrip_of_generated_hypothesis(self, safespeed_mapping):
        system = SystemBuilder(safespeed_mapping, watchdog_period=ms(10)).build(
            Kernel()
        )
        restored = hypothesis_from_dict(hypothesis_to_dict(system.hypothesis))
        assert set(restored.runnables) == set(system.hypothesis.runnables)

    def test_lossless_roundtrip_through_json(self):
        """dump -> json -> load -> dump is the identity, including the
        awkward corners: ``None``-predecessor entry pairs and
        ``per_type`` dictionaries keyed by :class:`ErrorType`."""
        original = sample_hypothesis()
        original.thresholds.per_type[ErrorType.ALIVENESS] = 2
        original.thresholds.per_type[ErrorType.ARRIVAL_RATE] = 5
        first = hypothesis_to_dict(original)
        # Entry points serialize with an explicit JSON null predecessor.
        assert {"predecessor": None, "successor": "A"} in first["flow_pairs"]
        # ErrorType keys serialize as their wire values, not enum reprs.
        assert set(first["thresholds"]["per_type"]) == {
            "program_flow", "aliveness", "arrival_rate"
        }
        restored = hypothesis_from_dict(json.loads(json.dumps(first)))
        assert hypothesis_to_dict(restored) == first
        assert (None, "A") in restored.flow_pairs
        assert restored.thresholds.per_type[ErrorType.ARRIVAL_RATE] == 5

    def test_load_without_validation(self):
        """``validate=False`` admits defective configs so wdlint can
        diagnose them instead of the loader rejecting them outright."""
        data = hypothesis_to_dict(sample_hypothesis())
        data["thresholds"]["default"] = 0
        with pytest.raises(Exception):
            hypothesis_from_dict(data)
        loaded = hypothesis_from_dict(data, validate=False)
        assert loaded.thresholds.default == 0


def lint_loaded(hyp, mapping):
    """Lint ``hyp`` as a deployment would see it: saved to JSON, loaded
    back without validation, then checked against its task mapping."""
    data = json.loads(json.dumps(hypothesis_to_dict(hyp)))
    loaded = hypothesis_from_dict(data, validate=False)
    return lint_hypothesis(loaded, mapping=mapping, watchdog_period=ms(10))


class TestAnalysis:
    def test_generated_hypothesis_is_deployable(self, safespeed_mapping):
        system = SystemBuilder(safespeed_mapping, watchdog_period=ms(10)).build(
            Kernel()
        )
        report = lint_loaded(system.hypothesis, safespeed_mapping)
        assert report.ok, report.render_text()

    def test_impossible_min_heartbeats_flagged(self, safespeed_mapping):
        hyp = FaultHypothesis()
        # Window = 1 x 10 ms; a 10 ms task guarantees 0 completions in it.
        hyp.add_runnable(
            RunnableHypothesis("GetSensorValue", task="SafeSpeedTask",
                               aliveness_period=1, min_heartbeats=2,
                               arrival_period=2, max_heartbeats=5)
        )
        report = lint_loaded(hyp, safespeed_mapping)
        assert any("min_heartbeats" in d.message for d in report.errors)
        assert not report.ok

    def test_too_tight_arrival_bound_flagged(self, safespeed_mapping):
        hyp = FaultHypothesis()
        # 4 nominal executions per 40 ms window, bound of 2: false alarms.
        hyp.add_runnable(
            RunnableHypothesis("GetSensorValue", task="SafeSpeedTask",
                               aliveness_period=8, min_heartbeats=1,
                               arrival_period=4, max_heartbeats=2)
        )
        report = lint_loaded(hyp, safespeed_mapping)
        assert any("max_heartbeats" in d.message for d in report.errors)
        assert not report.ok

    def test_unplaced_runnable_flagged(self, safespeed_mapping):
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis("ghost", task="SafeSpeedTask"))
        report = lint_loaded(hyp, safespeed_mapping)
        assert any("not placed" in d.message for d in report.errors)

    def test_wrong_task_attribution_flagged(self, safespeed_mapping):
        hyp = FaultHypothesis()
        hyp.add_runnable(
            RunnableHypothesis("GetSensorValue", task="WrongTask",
                               aliveness_period=2, arrival_period=2,
                               max_heartbeats=3)
        )
        report = lint_loaded(hyp, safespeed_mapping)
        assert any("places it on" in d.message for d in report.errors)

    def test_finding_str(self):
        finding = Diagnostic("WD303", Severity.ERROR, "broken", subject="R")
        assert "error WD303 [R]: broken" == str(finding)
