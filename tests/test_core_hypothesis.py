"""Tests for the fault hypothesis configuration."""

import pytest

from repro.core import (
    ErrorType,
    FaultHypothesis,
    HypothesisError,
    RunnableHypothesis,
    ThresholdPolicy,
)


class TestRunnableHypothesis:
    def test_valid_defaults(self):
        h = RunnableHypothesis("R")
        assert h.aliveness_period == 1
        assert h.active

    def test_bad_aliveness_period(self):
        with pytest.raises(HypothesisError):
            RunnableHypothesis("R", aliveness_period=0)

    def test_bad_arrival_period(self):
        with pytest.raises(HypothesisError):
            RunnableHypothesis("R", arrival_period=0)

    def test_negative_min_heartbeats(self):
        with pytest.raises(HypothesisError):
            RunnableHypothesis("R", min_heartbeats=-1)

    def test_negative_max_heartbeats(self):
        with pytest.raises(HypothesisError):
            RunnableHypothesis("R", max_heartbeats=-1)

    @pytest.mark.parametrize("fields", [
        {"runnable": 7}, {"runnable": ""}, {"task": ["T"]},
        {"aliveness_period": 2.5}, {"aliveness_period": True},
        {"arrival_period": 50.0}, {"min_heartbeats": "1"},
        {"max_heartbeats": None}, {"active": 1},
    ], ids=repr)
    def test_ill_typed_field_rejected(self, fields):
        """A float period never matches the wheel's integer cycle index,
        so such a runnable would never be checked; ``True`` would pass
        as 1."""
        fields = {"runnable": "R", **fields}
        with pytest.raises(HypothesisError):
            RunnableHypothesis(**fields)


class TestThresholdPolicy:
    def test_default(self):
        policy = ThresholdPolicy(default=3)
        assert policy.threshold_for(ErrorType.ALIVENESS) == 3

    def test_per_type_override(self):
        policy = ThresholdPolicy(default=5, per_type={ErrorType.PROGRAM_FLOW: 3})
        assert policy.threshold_for(ErrorType.PROGRAM_FLOW) == 3
        assert policy.threshold_for(ErrorType.ALIVENESS) == 5

    def test_invalid_threshold_rejected_at_validation(self):
        policy = ThresholdPolicy(default=0)
        with pytest.raises(HypothesisError):
            policy.validate()
        with pytest.raises(HypothesisError):
            ThresholdPolicy(per_type={ErrorType.ALIVENESS: 0}).validate()
        # threshold_for is a pure hot-path lookup: no validation there.
        assert policy.threshold_for(ErrorType.ALIVENESS) == 0

    @pytest.mark.parametrize("policy", [
        ThresholdPolicy(default=2.5), ThresholdPolicy(default=True),
        ThresholdPolicy(per_type={ErrorType.ALIVENESS: 1.0}),
    ], ids=repr)
    def test_ill_typed_threshold_rejected_at_validation(self, policy):
        with pytest.raises(HypothesisError):
            policy.validate()

    def test_hypothesis_validate_checks_thresholds(self):
        hyp = FaultHypothesis(thresholds=ThresholdPolicy(default=0))
        with pytest.raises(HypothesisError):
            hyp.validate()


class TestFaultHypothesis:
    def test_add_runnable(self):
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis("R", task="T"))
        assert "R" in hyp.runnables

    def test_duplicate_runnable_rejected(self):
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis("R"))
        with pytest.raises(HypothesisError):
            hyp.add_runnable(RunnableHypothesis("R"))

    def test_allow_sequence_adds_entry_point(self):
        hyp = FaultHypothesis()
        for name in ("A", "B", "C"):
            hyp.add_runnable(RunnableHypothesis(name))
        hyp.allow_sequence(["A", "B", "C"])
        assert (None, "A") in hyp.flow_pairs
        assert ("A", "B") in hyp.flow_pairs
        assert ("B", "C") in hyp.flow_pairs

    def test_allow_sequence_empty_noop(self):
        hyp = FaultHypothesis()
        hyp.allow_sequence([])
        assert hyp.flow_pairs == []

    def test_tasks_deduplicated(self):
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis("A", task="T1"))
        hyp.add_runnable(RunnableHypothesis("B", task="T1"))
        hyp.add_runnable(RunnableHypothesis("C", task="T2"))
        assert hyp.tasks() == ["T1", "T2"]

    def test_validate_rejects_unknown_flow_successor(self):
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis("A"))
        hyp.allow_flow("A", "ghost")
        with pytest.raises(HypothesisError):
            hyp.validate()

    def test_validate_rejects_unknown_flow_predecessor(self):
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis("A"))
        hyp.allow_flow("ghost", "A")
        with pytest.raises(HypothesisError):
            hyp.validate()

    def test_validate_accepts_entry_points(self):
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis("A"))
        hyp.allow_flow(None, "A")
        hyp.validate()
