"""Scenario-driven HIL tests: the ControlDesk evaluation flow of §4.5.

These tests drive the rig the way the paper's experimenters did: move a
slider at a chosen instant, watch the capture, restore it — all scripted
through :class:`Scenario` and the rig's :class:`ParameterStore`.
"""

import pytest

from repro.core import ErrorType
from repro.kernel import ms, seconds
from repro.platform import FmfPolicy
from repro.validator import HilValidator, Scenario

OBSERVE = FmfPolicy(ecu_faulty_task_threshold=10**6, max_app_restarts=10**6)


def observation_rig(**kwargs):
    return HilValidator(fmf_policy=OBSERVE, fmf_auto_treatment=False, **kwargs)


class TestSliderInstruments:
    def test_time_scalar_slider_changes_period(self):
        rig = observation_rig()
        rig.run(seconds(1))
        from repro.analysis import observed_periods

        rig.parameters.set_now("safespeed.time_scalar", 4.0)
        rig.run(seconds(1))
        periods = observed_periods(rig.kernel.trace, "SafeSpeedTask")
        assert periods[-1] == ms(40)

    def test_time_scalar_slider_provokes_aliveness_errors(self):
        rig = observation_rig()
        scenario = (
            Scenario("figure5-via-sliders", duration=seconds(3))
            .at(seconds(1), lambda: rig.parameters.set_now(
                "safespeed.time_scalar", 4.0), label="slow down")
            .at(seconds(2), lambda: rig.parameters.set_now(
                "safespeed.time_scalar", 1.0), label="restore")
        )
        scenario.run(rig)
        assert rig.ecu.watchdog.detection_count(ErrorType.ALIVENESS) > 10
        # The slider was restored: the last capture samples are flat.
        am = rig.capture.get("AM_Result").values
        assert am[-1] == am[-5]

    def test_invalid_scalar_rejected(self):
        rig = observation_rig()
        with pytest.raises(ValueError):
            rig.parameters.set_now("safespeed.time_scalar", 0.0)

    def test_commanded_limit_slider(self):
        rig = observation_rig(initial_speed_kph=90.0)
        rig.run(seconds(2))
        rig.parameters.set_now("commanded_limit_kph", 40.0)
        rig.run(seconds(40))
        assert rig.vehicle.state.speed_kph <= 42.0
        # Clearing the command lets the road limit (100) rule again.
        rig.parameters.set_now("commanded_limit_kph", 0.0)
        rig.run(seconds(30))
        assert rig.vehicle.state.speed_kph > 60.0

    def test_slider_changes_logged(self):
        rig = observation_rig()
        Scenario("slider", duration=ms(200)).at(
            ms(100),
            lambda: rig.parameters.set_now("safespeed.time_scalar", 2.0),
        ).run(rig)
        assert (ms(100), "safespeed.time_scalar", 2.0) in rig.parameters.change_log


class TestScenarioCaptures:
    def test_capture_windows_match_injection(self):
        """AM_Result is flat before the slider moves and grows after."""
        rig = observation_rig()
        scenario = (
            Scenario("window", duration=seconds(2))
            .at(seconds(1), lambda: rig.parameters.set_now(
                "safespeed.time_scalar", 4.0))
        )
        scenario.run(rig)
        am = rig.capture.get("AM_Result")
        assert am.at(seconds(1) - ms(20)) == 0
        assert am.final() > 0

    def test_scenario_result_carries_capture(self):
        rig = observation_rig()
        result = Scenario("noop", duration=ms(200)).run(rig)
        assert result.capture is rig.capture
        assert len(rig.capture.get("speed_kph").values) >= 19
