"""Tests for the HIL validator rig (integration of all substrates)."""

import pytest

from repro.apps import Road, SpeedLimitZone
from repro.core import ErrorType, MonitorState
from repro.kernel import ms, seconds
from repro.validator import HilValidator, SAFESPEED_TASK


@pytest.fixture(scope="module")
def warm_rig():
    """A rig that has driven for 20 simulated seconds (shared, read-only)."""
    rig = HilValidator()
    rig.run(seconds(20))
    return rig


class TestHealthyRig:
    def test_no_false_positives(self, warm_rig):
        summary = warm_rig.summary()
        assert summary["aliveness_errors"] == 0
        assert summary["arrival_rate_errors"] == 0
        assert summary["program_flow_errors"] == 0
        assert summary["ecu_state"] == "ok"

    def test_vehicle_drives(self, warm_rig):
        assert warm_rig.vehicle.state.speed_kph > 30.0
        assert warm_rig.vehicle.state.distance_m > 50.0

    def test_all_buses_carry_traffic(self, warm_rig):
        summary = warm_rig.summary()
        assert summary["can_frames"] > 1000
        assert summary["flexray_cycles"] > 1000
        assert summary["gateway_forwards"] > 10

    def test_speed_command_reaches_central_node(self, warm_rig):
        limit = warm_rig.central_store.value("SpeedCommand", "limit_kph", 0.0)
        assert limit == pytest.approx(100.0, abs=1.0)

    def test_steering_tracks(self, warm_rig):
        assert warm_rig.steering is not None
        assert warm_rig.steering.state.samples > 1000
        assert warm_rig.steering.state.max_tracking_error_rad < 0.05

    def test_capture_runs(self, warm_rig):
        speed = warm_rig.capture.get("speed_kph")
        assert len(speed.values) > 1000
        assert max(speed.values) > 30.0

    def test_watchdog_cycles(self, warm_rig):
        assert warm_rig.ecu.watchdog.check_cycle_count >= 1990


class TestSpeedRegulation:
    def test_respects_commanded_limit(self):
        rig = HilValidator(
            road=Road(speed_zones=[SpeedLimitZone(0.0, 50.0)]),
        )
        rig.run(seconds(40))
        assert rig.vehicle.state.speed_kph <= 52.0
        assert rig.vehicle.state.speed_kph >= 40.0

    def test_limit_change_with_distance(self):
        rig = HilValidator(
            road=Road(speed_zones=[SpeedLimitZone(0.0, 80.0),
                                   SpeedLimitZone(400.0, 40.0)]),
            initial_speed_kph=60.0,
        )
        rig.run(seconds(60))
        assert rig.vehicle.state.distance_m > 400.0
        assert rig.vehicle.state.speed_kph <= 42.0


class TestRigOptions:
    def test_without_steering(self):
        rig = HilValidator(include_steering=False)
        assert rig.steering is None
        rig.run(seconds(2))
        assert rig.summary()["aliveness_errors"] == 0

    def test_custom_driver_profile(self):
        rig = HilValidator(driver_profile=lambda t: 0.5)
        rig.run(seconds(3))
        # Constant handwheel of 0.5 rad -> roadwheel ~ 0.5/16.
        assert rig.vehicle.state.steering_rad == pytest.approx(0.5 / 16, abs=0.01)

    def test_probe_counters_layout(self):
        rig = HilValidator()
        rig.probe_counters("SAFE_CC_process")
        rig.run(seconds(1))
        assert "SAFE_CC_process.AC" in rig.capture.series
        series = rig.capture.get("SAFE_CC_process.AC")
        assert len(series.values) > 0

    def test_start_idempotent(self):
        rig = HilValidator()
        rig.start()
        rig.start()
        rig.run(ms(100))
        assert rig.kernel.clock.now >= ms(100)


class TestCentralNodeIsolation:
    def test_ecu_reads_only_from_bus(self):
        """The central ECU's speed view lags the plant by bus latency —
        proof it has no direct reference to the vehicle model."""
        rig = HilValidator(initial_speed_kph=80.0)
        rig.run(ms(50))
        store_speed = rig.central_store.value("VehicleSpeed", "speed_kph", 0.0)
        assert store_speed > 0.0  # arrived over CAN
        assert rig.safespeed.state.speed_kph > 0.0
