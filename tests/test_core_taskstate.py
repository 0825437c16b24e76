"""Tests for the task state indication unit."""

from repro.core import (
    ErrorType,
    FaultHypothesis,
    MonitorState,
    RunnableError,
    RunnableHypothesis,
    SoftwareWatchdog,
    ThresholdPolicy,
)
from repro.core.taskstate import TaskStateIndicationUnit


def error(time=0, runnable="R", task="T", etype=ErrorType.ALIVENESS):
    return RunnableError(time=time, runnable=runnable, task=task, error_type=etype)


def make_unit(default=3, per_type=None, app_of_task=None):
    unit = TaskStateIndicationUnit(
        ThresholdPolicy(default=default, per_type=per_type or {}),
        app_of_task=app_of_task,
    )
    faults = []
    unit.add_task_fault_listener(faults.append)
    return unit, faults


class TestErrorVectors:
    def test_errors_accumulate(self):
        unit, faults = make_unit()
        unit.record_error(error(1))
        unit.record_error(error(2))
        assert unit.error_vectors["T"]["R"] == {ErrorType.ALIVENESS: 2}
        assert faults == []

    def test_threshold_fires_task_fault(self):
        unit, faults = make_unit(default=3)
        for t in range(3):
            unit.record_error(error(t))
        assert len(faults) == 1
        event = faults[0]
        assert event.task == "T"
        assert event.trigger_runnable == "R"
        assert event.trigger_error_type is ErrorType.ALIVENESS
        assert event.error_vector["R"][ErrorType.ALIVENESS] == 3

    def test_no_refire_while_faulty(self):
        unit, faults = make_unit(default=2)
        for t in range(5):
            unit.record_error(error(t))
        assert len(faults) == 1

    def test_per_type_thresholds_independent(self):
        unit, faults = make_unit(default=10, per_type={ErrorType.PROGRAM_FLOW: 3})
        unit.record_error(error(1, etype=ErrorType.ALIVENESS))
        unit.record_error(error(2, etype=ErrorType.PROGRAM_FLOW))
        unit.record_error(error(3, etype=ErrorType.PROGRAM_FLOW))
        assert faults == []
        unit.record_error(error(4, etype=ErrorType.PROGRAM_FLOW))
        assert len(faults) == 1
        assert faults[0].trigger_error_type is ErrorType.PROGRAM_FLOW

    def test_counts_per_type_separate(self):
        unit, _ = make_unit()
        unit.record_error(error(1, etype=ErrorType.ALIVENESS))
        unit.record_error(error(2, etype=ErrorType.ARRIVAL_RATE))
        assert unit.error_vectors["T"]["R"] == {
            ErrorType.ALIVENESS: 1, ErrorType.ARRIVAL_RATE: 1}

    def test_unmapped_runnable_bucketed(self):
        unit, _ = make_unit()
        unit.record_error(
            RunnableError(time=1, runnable="X", task=None,
                          error_type=ErrorType.ALIVENESS)
        )
        assert unit.error_vectors["<unmapped>"]["X"] == {ErrorType.ALIVENESS: 1}


class TestStateDerivation:
    def test_ok_initially(self):
        unit, _ = make_unit()
        assert unit.task_state("T") is MonitorState.OK
        assert unit.ecu_state() is MonitorState.OK

    def test_suspicious_below_threshold(self):
        unit, _ = make_unit(default=3)
        unit.record_error(error(1))
        assert unit.task_state("T") is MonitorState.SUSPICIOUS

    def test_faulty_at_threshold(self):
        unit, _ = make_unit(default=2)
        unit.record_error(error(1))
        unit.record_error(error(2))
        assert unit.task_state("T") is MonitorState.FAULTY
        assert unit.ecu_state() is MonitorState.FAULTY

    def test_application_state_worst_of_tasks(self):
        unit, _ = make_unit(default=1, app_of_task={"T1": "App", "T2": "App"})
        assert unit.application_state("App") is MonitorState.OK
        unit.record_error(error(1, runnable="R1", task="T1"))
        assert unit.application_state("App") is MonitorState.FAULTY
        assert unit.task_state("T2") is MonitorState.OK

    def test_unknown_application_is_ok(self):
        unit, _ = make_unit()
        assert unit.application_state("ghost") is MonitorState.OK

    def test_ecu_state_listener_fires_on_change(self):
        unit, _ = make_unit(default=1)
        changes = []
        unit.add_ecu_state_listener(changes.append)
        unit.record_error(error(5))
        assert len(changes) == 1
        assert changes[0].old_state is MonitorState.OK
        assert changes[0].new_state is MonitorState.FAULTY
        assert changes[0].faulty_tasks == ("T",)

    def test_ecu_state_listener_sees_suspicious_before_faulty(self):
        unit, _ = make_unit(default=3)
        changes = []
        unit.add_ecu_state_listener(changes.append)
        unit.record_error(error(5))
        assert unit.ecu_state() is MonitorState.SUSPICIOUS
        assert [(c.old_state, c.new_state) for c in changes] == [
            (MonitorState.OK, MonitorState.SUSPICIOUS)]
        assert changes[0].time == 5 and changes[0].faulty_tasks == ()
        unit.record_error(error(6))  # below threshold: no transition
        assert len(changes) == 1
        unit.record_error(error(7))
        assert [(c.old_state, c.new_state) for c in changes] == [
            (MonitorState.OK, MonitorState.SUSPICIOUS),
            (MonitorState.SUSPICIOUS, MonitorState.FAULTY),
        ]
        assert changes[1].faulty_tasks == ("T",)
        unit.record_error(error(8))  # already faulty: no transition
        assert len(changes) == 2


class TestClearAndReset:
    def test_clear_task_restores_ok(self):
        unit, faults = make_unit(default=1)
        unit.record_error(error(1))
        assert unit.task_state("T") is MonitorState.FAULTY
        unit.clear_task("T")
        assert unit.task_state("T") is MonitorState.OK
        # A new threshold crossing fires again after clearing.
        unit.record_error(error(2))
        assert len(faults) == 2

    def test_reset_clears_everything(self):
        unit, _ = make_unit(default=1)
        unit.record_error(error(1))
        unit.reset()
        assert unit.errors_recorded == 0
        assert unit.last_error_time == 0
        assert unit.ecu_state() is MonitorState.OK

    def test_fault_listener_stream_chronological(self):
        # The TSI keeps counts, not errors: the chronological stream is
        # the watchdog's fault listener.
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis(
            "R", task="T", aliveness_period=1, min_heartbeats=1,
            arrival_period=1, max_heartbeats=10))
        wd = SoftwareWatchdog(hyp)
        stream = []
        wd.add_fault_listener(stream.append)
        wd.check_cycle(1)
        wd.check_cycle(5)
        assert [e.time for e in stream] == [1, 5]
        assert wd.tsi.errors_recorded == len(stream)
        assert wd.tsi.last_error_time == 5
