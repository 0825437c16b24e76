"""Tests for the task work-item model (Segment, Task)."""

import pytest

from repro.kernel import Segment, Task


class TestSegment:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Segment(-1)

    def test_zero_duration_allowed(self):
        assert Segment(0).duration == 0

    def test_callbacks_optional(self):
        segment = Segment(10)
        assert segment.on_start is None and segment.on_end is None


class TestTaskRuntimeReset:
    def test_reset_runtime_state_clears_everything(self):
        task = Task("T", 3, lambda t: iter(()))
        task.pending_activations = 1
        task.activation_count = 5
        task.preemption_count = 2
        task.reset_runtime_state()
        assert task.pending_activations == 0
        assert task.activation_count == 0
        assert task.preemption_count == 0
