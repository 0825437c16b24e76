"""Tests for the integrated ECU model."""

import pytest

from repro.core import ErrorType, MonitorState
from repro.kernel import TraceKind, ms, seconds
from repro.platform import Ecu, FmfPolicy, TreatmentAction

from testutil import make_safespeed_mapping


def build_ecu(**kwargs):
    mapping = make_safespeed_mapping()
    defaults = dict(watchdog_period=ms(10))
    defaults.update(kwargs)
    return Ecu("central", mapping, **defaults)


class TestHealthyOperation:
    def test_runs_clean(self):
        ecu = build_ecu()
        ecu.run_until(seconds(1))
        assert ecu.watchdog.detection_count() == 0
        assert ecu.ecu_monitor_state() is MonitorState.OK
        assert ecu.fmf.fault_log == []

    def test_watchdog_task_registered(self):
        ecu = build_ecu()
        assert "SoftwareWatchdogTask" in ecu.kernel.tasks

    def test_watchdog_priority_above_applications(self):
        ecu = build_ecu()
        wd_priority = ecu.kernel.tasks["SoftwareWatchdogTask"].priority
        app_priority = ecu.kernel.tasks["SafeSpeedTask"].priority
        assert wd_priority > app_priority

    def test_external_kernel_accepted(self):
        from repro.kernel import Kernel

        shared = Kernel()
        ecu = Ecu("central", make_safespeed_mapping(), kernel=shared)
        assert ecu.kernel is shared


class TestFaultDetectionFlow:
    def test_blocked_runnable_reaches_fmf(self):
        ecu = build_ecu()
        ecu.run_until(ms(200))
        ecu.system.runnables["SAFE_CC_process"].enabled = False
        ecu.run_until(ms(800))
        categories = ecu.fmf.faults_by_category()
        assert categories.get("aliveness", 0) > 0
        assert categories.get("program_flow", 0) > 0

    def test_task_fault_triggers_app_restart(self):
        ecu = build_ecu(fmf_policy=FmfPolicy(ecu_faulty_task_threshold=5,
                                             max_app_restarts=100))
        ecu.run_until(ms(200))
        ecu.system.runnables["SAFE_CC_process"].enabled = False
        ecu.run_until(seconds(1))
        assert ecu.application_restart_counts.get("SafeSpeed", 0) > 0
        assert (
            ecu.fmf.treatments_by_action().get(TreatmentAction.RESTART_APPLICATION, 0)
            > 0
        )

    def test_restart_budget_escalates_to_reset(self):
        ecu = build_ecu(fmf_policy=FmfPolicy(ecu_faulty_task_threshold=5,
                                             max_app_restarts=2))
        ecu.run_until(ms(200))
        ecu.system.runnables["SAFE_CC_process"].enabled = False
        ecu.run_until(seconds(2))
        assert len(ecu.reset_times) > 0
        assert len(ecu.kernel.trace.filter(TraceKind.ECU_RESET)) == len(ecu.reset_times)

    def test_transient_fault_recovers_after_restart(self):
        """A restart heals a transient fault: no further detections."""
        ecu = build_ecu(fmf_policy=FmfPolicy(ecu_faulty_task_threshold=5,
                                             max_app_restarts=100))
        ecu.run_until(ms(200))
        runnable = ecu.system.runnables["SAFE_CC_process"]
        runnable.enabled = False
        ecu.run_until(ms(500))
        restarts_before = ecu.application_restart_counts.get("SafeSpeed", 0)
        assert restarts_before > 0
        runnable.enabled = True  # transient fault gone
        detections_at_recovery = ecu.watchdog.detection_count()
        ecu.run_until(seconds(2))
        # At most one borderline period-straddling detection after recovery.
        assert ecu.watchdog.detection_count() - detections_at_recovery <= 1

    def test_non_restartable_app_terminated_and_monitor_muted(self):
        mapping = make_safespeed_mapping(restartable=False, ecu_reset_allowed=False)
        ecu = Ecu(
            "central",
            mapping,
            watchdog_period=ms(10),
            fmf_policy=FmfPolicy(ecu_faulty_task_threshold=5),
        )
        ecu.run_until(ms(200))
        ecu.system.runnables["SAFE_CC_process"].enabled = False
        ecu.run_until(seconds(1))
        assert "SafeSpeed" in ecu.terminated_applications
        assert ecu.application_state("SafeSpeed") is MonitorState.FAULTY
        # After termination its runnables are no longer monitored:
        # detections stop accumulating.
        count = ecu.watchdog.detection_count()
        ecu.run_until(seconds(2))
        assert ecu.watchdog.detection_count() == count


class TestSoftwareReset:
    def test_reset_restores_clean_operation(self):
        ecu = build_ecu()
        ecu.run_until(ms(300))
        ecu.software_reset()
        assert len(ecu.reset_times) == 1
        before = len(ecu.kernel.trace.filter(TraceKind.TASK_TERMINATE, "SafeSpeedTask"))
        ecu.run_until(ecu.now + seconds(1))
        after = len(ecu.kernel.trace.filter(TraceKind.TASK_TERMINATE, "SafeSpeedTask"))
        assert after - before >= 95  # ~100 activations in 1 s
        assert ecu.watchdog.detection_count() == 0

    def test_reset_clears_terminated_applications(self):
        ecu = build_ecu()
        ecu.terminated_applications.add("SafeSpeed")
        ecu.software_reset()
        assert ecu.terminated_applications == set()

    def test_fmf_logs_survive_reset(self):
        """Treatment logs model NVRAM: they survive a software reset."""
        ecu = build_ecu(fmf_policy=FmfPolicy(ecu_faulty_task_threshold=5,
                                             max_app_restarts=1))
        ecu.run_until(ms(200))
        ecu.system.runnables["SAFE_CC_process"].enabled = False
        ecu.run_until(seconds(2))
        assert len(ecu.reset_times) >= 1
        assert len(ecu.fmf.treatment_log) >= 1


class TestRestartApplication:
    def test_restart_application_clears_watchdog_state(self):
        ecu = build_ecu(fmf_policy=FmfPolicy(ecu_faulty_task_threshold=99,
                                             max_app_restarts=10**6))
        ecu.run_until(ms(200))
        ecu.system.runnables["SAFE_CC_process"].enabled = False
        ecu.run_until(ms(600))
        [app] = ecu.mapping.applications
        ecu.restart_application(app)
        assert ecu.watchdog.task_state("SafeSpeedTask") is MonitorState.OK
        assert ecu.task_restart_counts["SafeSpeedTask"] >= 1
