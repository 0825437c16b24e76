"""Tests for the road / environment model."""

import math

import pytest

from repro.apps import (
    CurvatureSegment,
    EnvironmentSimulation,
    Road,
    SpeedLimitZone,
    VehicleState,
)


class TestRoad:
    def test_default_road(self):
        road = Road()
        assert road.speed_limit_at(0) == 130.0
        assert road.heading_at(500) == 0.0

    def test_speed_zones(self):
        road = Road(speed_zones=[
            SpeedLimitZone(0, 100), SpeedLimitZone(1000, 60), SpeedLimitZone(3000, 120),
        ])
        assert road.speed_limit_at(500) == 100
        assert road.speed_limit_at(1000) == 60
        assert road.speed_limit_at(2999) == 60
        assert road.speed_limit_at(5000) == 120

    def test_zones_sorted_automatically(self):
        road = Road(speed_zones=[SpeedLimitZone(2000, 80), SpeedLimitZone(0, 100)])
        assert road.speed_limit_at(100) == 100
        assert road.speed_limit_at(2500) == 80

    def test_implicit_leading_zone(self):
        road = Road(speed_zones=[SpeedLimitZone(1000, 60)])
        assert road.speed_limit_at(0) == 130.0

    def test_heading_integrates_curvature(self):
        road = Road(curvature_segments=[
            CurvatureSegment(0, 0.0), CurvatureSegment(100, 0.01),
        ])
        assert road.heading_at(100) == pytest.approx(0.0)
        # 50 m into the curve of radius 100 m: heading = 0.01 * 50.
        assert road.heading_at(150) == pytest.approx(0.5)


class TestEnvironment:
    def test_effective_limit_without_command(self):
        env = EnvironmentSimulation(road=Road(speed_zones=[SpeedLimitZone(0, 100)]))
        assert env.effective_speed_limit(0) == 100

    def test_commanded_limit_caps_road_limit(self):
        env = EnvironmentSimulation(road=Road(speed_zones=[SpeedLimitZone(0, 100)]))
        env.commanded_limit_kph = 60.0
        assert env.effective_speed_limit(0) == 60.0

    def test_commanded_limit_above_road_is_ignored(self):
        env = EnvironmentSimulation(road=Road(speed_zones=[SpeedLimitZone(0, 80)]))
        env.commanded_limit_kph = 120.0
        assert env.effective_speed_limit(0) == 80.0

    def test_lateral_offset_straight_road(self):
        env = EnvironmentSimulation()
        state = VehicleState(x_m=100.0, y_m=1.2, distance_m=100.0)
        assert env.lateral_offset(state) == pytest.approx(1.2)

    def test_lateral_offset_sign(self):
        env = EnvironmentSimulation()
        state = VehicleState(x_m=50.0, y_m=-0.8, distance_m=50.0)
        assert env.lateral_offset(state) == pytest.approx(-0.8)
