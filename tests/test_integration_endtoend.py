"""Cross-module integration tests: interactions the unit tests can't see.

Each test exercises a chain that crosses at least three subsystems —
bus faults vs watchdog, ECU reset vs the live rig, watchdog supervision
under heavy network load, the full detect→treat→recover loop on the HIL
validator.
"""

import pytest

from repro.core import ErrorType, MonitorState
from repro.faults import BlockedRunnableFault, ErrorInjector, FaultTarget
from repro.kernel import ms, seconds, TraceKind
from repro.platform import FmfPolicy
from repro.validator import HilValidator

OBSERVE = FmfPolicy(ecu_faulty_task_threshold=10**6, max_app_restarts=10**6)


class TestBusFaultsVsWatchdog:
    def test_stale_sensor_data_is_an_application_problem(self):
        """Killing the dynamics node's publications starves the
        *application's data*, not its execution: the watchdog correctly
        reports nothing (runnables still run on schedule) while the
        application-level staleness guard reacts.  This boundary is the
        reason the paper pairs the watchdog with application-level
        plausibility checks."""
        rig = HilValidator(fmf_policy=OBSERVE, fmf_auto_treatment=False,
                           initial_speed_kph=50.0)
        rig.run(seconds(2))
        # Cut the dynamics node's tick chain by making its bus interface
        # drop everything (bus-off).
        rig.dynamics_node.can.bus_off = True
        rig.run(seconds(1))
        assert rig.ecu.watchdog.detection_count() == 0  # execution is fine
        age = rig.central_store.age("VehicleSpeed", rig.kernel.clock.now)
        assert age is not None and age > seconds(0.9)


class TestEcuResetOnLiveRig:
    def test_reset_mid_drive_recovers_control(self):
        """An ECU software reset must not kill the plant: the world keeps
        running (persistent events) and control resumes after restart."""
        rig = HilValidator(fmf_policy=OBSERVE, fmf_auto_treatment=False,
                           initial_speed_kph=40.0)
        rig.run(seconds(3))
        speed_before = rig.vehicle.state.speed_kph
        assert speed_before > 30.0
        rig.ecu.software_reset()
        rig.run(seconds(5))
        # Buses and nodes survived; the application is steering again.
        assert rig.dynamics_node.vehicle.step_count > 1000
        assert rig.safespeed.state.samples > 0
        assert rig.vehicle.state.speed_kph > 20.0
        assert rig.ecu.watchdog.detection_count() == 0

    def test_reset_clears_watchdog_but_not_world_traffic(self):
        rig = HilValidator(fmf_policy=OBSERVE, fmf_auto_treatment=False)
        rig.run(seconds(1))
        frames_before = rig.can.delivered_count
        rig.ecu.software_reset()
        rig.run(ms(200))
        assert rig.can.delivered_count > frames_before  # world kept talking
        assert rig.ecu.watchdog.check_cycle_count <= 21  # restarted counting


class TestFullDetectTreatRecoverLoop:
    def test_transient_fault_on_the_rig_end_to_end(self):
        """Detection → FMF restart → recovery, while driving."""
        rig = HilValidator(
            fmf_policy=FmfPolicy(ecu_faulty_task_threshold=10,
                                 max_app_restarts=100),
        )
        rig.run(seconds(2))
        injector = ErrorInjector(FaultTarget.from_ecu(rig.ecu))
        fault = BlockedRunnableFault("SAFE_CC_process")
        injector.inject_at(rig.kernel.clock.now + ms(100), fault,
                           restore_at=rig.kernel.clock.now + ms(600))
        rig.run(seconds(2))
        assert rig.ecu.application_restart_counts.get("SafeSpeed", 0) >= 1
        assert len(rig.ecu.reset_times) == 0
        detections = rig.ecu.watchdog.detection_count()
        rig.run(seconds(2))
        assert rig.ecu.watchdog.detection_count() == detections  # healed
        # Vehicle control survived the whole episode.
        assert rig.vehicle.state.speed_kph > 20.0


class TestTracingAcrossTheStack:
    def test_trace_tells_the_whole_story(self):
        """One trace carries kernel, watchdog, bus and injection events —
        the analysis layer can reconstruct the experiment."""
        rig = HilValidator(fmf_policy=OBSERVE, fmf_auto_treatment=False)
        detections = []
        rig.ecu.watchdog.add_fault_listener(
            lambda error: detections.append(error.time))
        injector = ErrorInjector(FaultTarget.from_ecu(rig.ecu))
        injector.inject_at(seconds(1), BlockedRunnableFault("SAFE_CC_process"))
        rig.run(seconds(2))
        trace = rig.kernel.trace
        assert len(trace.filter(TraceKind.FAULT_INJECTED)) == 1
        assert len(trace.filter(TraceKind.WATCHDOG_CHECK)) >= 195
        assert len(trace.filter(TraceKind.HEARTBEAT, "GetSensorValue")) >= 190

        from repro.analysis import heartbeat_gaps

        [injection] = trace.filter(TraceKind.FAULT_INJECTED)
        latency = min(t for t in detections if t >= injection.time) \
            - injection.time
        assert latency <= ms(30)
        gaps = heartbeat_gaps(trace, "Speed_process")
        assert max(gaps) <= ms(11)  # Speed_process kept its cadence
