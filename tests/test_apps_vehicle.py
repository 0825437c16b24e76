"""Tests for the vehicle dynamics model."""

import math

import pytest

from repro.apps import ActuatorCommands, Vehicle, VehicleParameters, VehicleState


class TestLongitudinal:
    def test_accelerates_under_throttle(self):
        vehicle = Vehicle()
        vehicle.commands.throttle = 1.0
        for _ in range(100):
            vehicle.step(0.01)
        assert vehicle.state.speed_mps > 2.0
        assert vehicle.state.distance_m > 0

    def test_stationary_without_input(self):
        vehicle = Vehicle()
        for _ in range(100):
            vehicle.step(0.01)
        assert vehicle.state.speed_mps == 0.0

    def test_brakes_decelerate(self):
        vehicle = Vehicle()
        vehicle.state.speed_mps = 20.0
        vehicle.commands.brake = 1.0
        for _ in range(100):
            vehicle.step(0.01)
        assert vehicle.state.speed_mps < 15.0

    def test_speed_never_negative(self):
        vehicle = Vehicle()
        vehicle.state.speed_mps = 1.0
        vehicle.commands.brake = 1.0
        for _ in range(500):
            vehicle.step(0.01)
        assert vehicle.state.speed_mps == 0.0

    def test_drag_limits_top_speed(self):
        vehicle = Vehicle()
        vehicle.commands.throttle = 1.0
        for _ in range(60_000):
            vehicle.step(0.01)
        top1 = vehicle.state.speed_mps
        for _ in range(1_000):
            vehicle.step(0.01)
        assert vehicle.state.speed_mps == pytest.approx(top1, rel=0.01)
        # Terminal speed where drive force equals resistive forces.
        p = vehicle.params
        assert p.drag_force(top1) + p.rolling_force() == pytest.approx(
            p.max_drive_force_n, rel=0.05
        )

    def test_speed_kph_conversion(self):
        state = VehicleState(speed_mps=10.0)
        assert state.speed_kph == pytest.approx(36.0)

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            Vehicle().step(0.0)


class TestLateral:
    def test_straight_line_keeps_heading(self):
        vehicle = Vehicle()
        vehicle.state.speed_mps = 20.0
        vehicle.commands.throttle = 0.3
        for _ in range(100):
            vehicle.step(0.01)
        assert vehicle.state.heading_rad == pytest.approx(0.0)
        assert vehicle.state.y_m == pytest.approx(0.0)

    def test_steering_turns_vehicle(self):
        vehicle = Vehicle()
        vehicle.state.speed_mps = 10.0
        vehicle.commands.throttle = 0.3
        vehicle.commands.steering_rad = 0.1
        for _ in range(200):
            vehicle.step(0.01)
        assert vehicle.state.heading_rad > 0.05
        assert vehicle.state.y_m > 0.1

    def test_yaw_rate_bicycle_model(self):
        vehicle = Vehicle()
        vehicle.state.speed_mps = 10.0
        vehicle.commands.steering_rad = 0.1
        vehicle.commands.throttle = 0.0
        vehicle.step(0.001)
        expected = vehicle.state.speed_mps / vehicle.params.wheelbase_m * math.tan(0.1)
        assert vehicle.state.yaw_rate_rps == pytest.approx(expected, rel=0.01)

    def test_steering_clamped(self):
        vehicle = Vehicle()
        vehicle.commands.steering_rad = 5.0
        vehicle.state.speed_mps = 5.0
        vehicle.step(0.01)
        assert vehicle.state.steering_rad == vehicle.params.max_steer_rad

    def test_no_yaw_at_standstill(self):
        vehicle = Vehicle()
        vehicle.commands.steering_rad = 0.3
        vehicle.step(0.01)
        assert vehicle.state.yaw_rate_rps == 0.0


class TestCommands:
    def test_clamping(self):
        commands = ActuatorCommands(throttle=2.0, brake=-1.0, steering_rad=9.0)
        commands.clamp(0.5)
        assert commands.throttle == 1.0
        assert commands.brake == 0.0
        assert commands.steering_rad == 0.5
