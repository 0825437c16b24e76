"""Tests for the task work-item model (Segment, sequence_body)."""

import pytest

from repro.kernel import Kernel, Segment, Task, ms, sequence_body


class TestSegment:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Segment(-1)

    def test_zero_duration_allowed(self):
        assert Segment(0).duration == 0

    def test_callbacks_optional(self):
        segment = Segment(10)
        assert segment.on_start is None and segment.on_end is None


class TestSequenceBody:
    def test_factories_run_in_order_each_activation(self, kernel):
        order = []

        def factory(tag, duration):
            def items(task):
                yield Segment(duration, on_end=lambda: order.append(tag))

            return items

        body = sequence_body([factory("a", ms(1)), factory("b", ms(2))])
        kernel.add_task(Task("T", 5, body, max_activations=2))
        kernel.activate_task("T")
        kernel.activate_task("T")
        kernel.run_until(ms(20))
        assert order == ["a", "b", "a", "b"]

    def test_empty_sequence_terminates_immediately(self, kernel):
        from repro.kernel import TraceKind

        kernel.add_task(Task("T", 5, sequence_body([])))
        kernel.activate_task("T")
        kernel.run_until(ms(5))
        assert kernel.trace.count(TraceKind.TASK_TERMINATE, "T") == 1
        assert kernel.trace.last(TraceKind.TASK_TERMINATE, "T").time == 0

    def test_factory_list_snapshot(self, kernel):
        """sequence_body snapshots the factory list at build time."""
        factories = [lambda task: iter([Segment(ms(1))])]
        body = sequence_body(factories)
        factories.append(lambda task: iter([Segment(ms(50))]))
        kernel.add_task(Task("T", 5, body))
        kernel.activate_task("T")
        kernel.run_until(ms(10))
        from repro.kernel import TraceKind

        assert kernel.trace.last(TraceKind.TASK_TERMINATE, "T").time == ms(1)


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
