"""Tests for the Fault Management Framework treatment policy (§3.4)."""

from typing import List

import pytest

from repro.core import ErrorType, RunnableError, TaskFaultEvent
from repro.platform import (
    Application,
    FaultManagementFramework,
    FaultRecord,
    FmfPolicy,
    Severity,
    TreatmentAction,
)


class FakeEcu:
    """Scripted EcuActions double."""

    def __init__(self, apps_by_task, faulty_tasks=1):
        self.apps_by_task = apps_by_task
        self.faulty = faulty_tasks
        self.actions: List[tuple] = []
        self.time = 1000

    def software_reset(self):
        self.actions.append(("reset",))

    def restart_application(self, app):
        self.actions.append(("restart_app", app.name))

    def terminate_application(self, app):
        self.actions.append(("terminate_app", app.name))

    def applications_on_task(self, task):
        return self.apps_by_task.get(task, [])

    def faulty_task_count(self):
        return self.faulty

    def current_time(self):
        return self.time


def task_fault(task="T", runnable="R", etype=ErrorType.PROGRAM_FLOW, time=500):
    return TaskFaultEvent(
        time=time,
        task=task,
        trigger_runnable=runnable,
        trigger_error_type=etype,
        error_vector={runnable: {etype: 3}},
    )


class TestFaultIntake:
    def test_report_fault_logged(self):
        fmf = FaultManagementFramework()
        record = FaultRecord(1, "src", "subj", "cat", Severity.MINOR)
        fmf.report_fault(record)
        assert fmf.fault_log == [record]

    def test_runnable_error_adapter_classifies(self):
        fmf = FaultManagementFramework()
        fmf.on_runnable_error(
            RunnableError(time=5, runnable="R", task="T",
                          error_type=ErrorType.PROGRAM_FLOW)
        )
        assert fmf.fault_log[0].severity is Severity.CRITICAL
        assert fmf.fault_log[0].category == "program_flow"
        assert fmf.fault_log[0].details["task"] == "T"

    def test_aliveness_severity_major(self):
        fmf = FaultManagementFramework()
        fmf.on_runnable_error(
            RunnableError(time=5, runnable="R", task="T",
                          error_type=ErrorType.ALIVENESS)
        )
        assert fmf.fault_log[0].severity is Severity.MAJOR

    def test_faults_by_category(self):
        fmf = FaultManagementFramework()
        for etype in (ErrorType.ALIVENESS, ErrorType.ALIVENESS, ErrorType.PROGRAM_FLOW):
            fmf.on_runnable_error(
                RunnableError(time=1, runnable="R", task="T", error_type=etype)
            )
        assert fmf.faults_by_category() == {"aliveness": 2, "program_flow": 1}


class TestTreatmentEcuOk:
    def test_restartable_app_restarted(self):
        app = Application("App", restartable=True)
        ecu = FakeEcu({"T": [app]}, faulty_tasks=1)
        fmf = FaultManagementFramework(ecu, FmfPolicy(ecu_faulty_task_threshold=2))
        fmf.on_task_fault(task_fault())
        assert ("restart_app", "App") in ecu.actions
        assert fmf.app_restart_counts["App"] == 1
        actions = fmf.treatments_by_action()
        assert actions[TreatmentAction.RESTART_APPLICATION] == 1

    def test_non_restartable_app_terminated(self):
        app = Application("App", restartable=False)
        ecu = FakeEcu({"T": [app]}, faulty_tasks=1)
        fmf = FaultManagementFramework(ecu, FmfPolicy(ecu_faulty_task_threshold=2))
        fmf.on_task_fault(task_fault())
        assert ("terminate_app", "App") in ecu.actions

    def test_shared_task_treats_all_apps(self):
        a = Application("A", restartable=True)
        b = Application("B", restartable=False)
        ecu = FakeEcu({"T": [a, b]}, faulty_tasks=1)
        fmf = FaultManagementFramework(ecu, FmfPolicy(ecu_faulty_task_threshold=3))
        fmf.on_task_fault(task_fault())
        assert ("restart_app", "A") in ecu.actions
        assert ("terminate_app", "B") in ecu.actions

    def test_task_fault_logged_as_critical(self):
        ecu = FakeEcu({"T": []})
        fmf = FaultManagementFramework(ecu)
        fmf.on_task_fault(task_fault())
        assert fmf.fault_log[0].category == "task_faulty"
        assert fmf.fault_log[0].severity is Severity.CRITICAL

    def test_no_ecu_records_only(self):
        fmf = FaultManagementFramework()  # headless
        fmf.on_task_fault(task_fault())
        assert fmf.treatment_log == []
        assert len(fmf.fault_log) == 1


class TestTreatmentEcuFaulty:
    def test_global_faulty_resets_ecu(self):
        app = Application("App", ecu_reset_allowed=True)
        ecu = FakeEcu({"T": [app]}, faulty_tasks=2)
        fmf = FaultManagementFramework(ecu, FmfPolicy(ecu_faulty_task_threshold=2))
        fmf.on_task_fault(task_fault())
        assert ("reset",) in ecu.actions
        assert fmf.treatments_by_action()[TreatmentAction.ECU_RESET] == 1

    def test_reset_clears_restart_budget(self):
        app = Application("App")
        ecu = FakeEcu({"T": [app]}, faulty_tasks=2)
        fmf = FaultManagementFramework(ecu, FmfPolicy(ecu_faulty_task_threshold=2))
        fmf.app_restart_counts["App"] = 2
        fmf.on_task_fault(task_fault())
        assert fmf.app_restart_counts == {}

    def test_reset_vetoed_by_constraints_terminates_instead(self):
        app = Application("SbW", ecu_reset_allowed=False)
        ecu = FakeEcu({"T": [app]}, faulty_tasks=5)
        fmf = FaultManagementFramework(ecu, FmfPolicy(ecu_faulty_task_threshold=2))
        fmf.on_task_fault(task_fault())
        assert ("reset",) not in ecu.actions
        assert ("terminate_app", "SbW") in ecu.actions

    def test_restart_budget_escalates_to_reset(self):
        app = Application("App", restartable=True, ecu_reset_allowed=True)
        ecu = FakeEcu({"T": [app]}, faulty_tasks=1)
        policy = FmfPolicy(ecu_faulty_task_threshold=10, max_app_restarts=2)
        fmf = FaultManagementFramework(ecu, policy)
        fmf.on_task_fault(task_fault())
        fmf.on_task_fault(task_fault())
        assert ecu.actions.count(("restart_app", "App")) == 2
        fmf.on_task_fault(task_fault())  # budget exhausted -> escalate
        assert ("reset",) in ecu.actions

    def test_treatment_record_carries_time_and_reason(self):
        app = Application("App")
        ecu = FakeEcu({"T": [app]}, faulty_tasks=1)
        fmf = FaultManagementFramework(ecu, FmfPolicy(ecu_faulty_task_threshold=2))
        fmf.on_task_fault(task_fault())
        record = fmf.treatment_log[0]
        assert record.time == ecu.time
        assert "restartable" in record.reason
