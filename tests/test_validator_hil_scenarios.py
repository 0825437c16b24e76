"""Scenario-driven HIL tests: the ControlDesk evaluation flow of §4.5.

These tests drive the rig the way the paper's experimenters did: move a
slider at a chosen instant, watch the capture, restore it — all scripted
through the rig's :class:`ParameterStore`.
"""

import pytest

from repro.core import ErrorType
from repro.kernel import ms, seconds
from repro.platform import FmfPolicy
from repro.validator import HilValidator

from testutil import observed_periods

OBSERVE = FmfPolicy(ecu_faulty_task_threshold=10**6, max_app_restarts=10**6)


def observation_rig(**kwargs):
    return HilValidator(fmf_policy=OBSERVE, fmf_auto_treatment=False, **kwargs)


class TestSliderInstruments:
    def test_time_scalar_slider_changes_period(self):
        rig = observation_rig()
        rig.run(seconds(1))
        rig.parameters.set_now("safespeed.time_scalar", 4.0)
        rig.run(seconds(1))
        periods = observed_periods(rig.kernel.trace, "SafeSpeedTask")
        assert periods[-1] == ms(40)

    def test_time_scalar_slider_provokes_aliveness_errors(self):
        rig = observation_rig()
        rig.run(seconds(1))
        rig.parameters.set_now("safespeed.time_scalar", 4.0)  # slow down
        rig.run(seconds(1))
        rig.parameters.set_now("safespeed.time_scalar", 1.0)  # restore
        rig.run(seconds(1))
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
        rig.environment.commanded_limit_kph = 40.0
        rig.run(seconds(40))
        assert rig.vehicle.state.speed_kph <= 42.0
        # Clearing the command lets the road limit (100) rule again.
        rig.environment.commanded_limit_kph = None
        rig.run(seconds(30))
        assert rig.vehicle.state.speed_kph > 60.0

    def test_slider_changes_logged(self):
        rig = observation_rig()
        rig.run(ms(100))
        rig.parameters.set_now("safespeed.time_scalar", 2.0)
        rig.run(ms(100))
        assert (ms(100), "safespeed.time_scalar", 2.0) in rig.parameters.change_log


class TestScenarioCaptures:
    def test_capture_windows_match_injection(self):
        """AM_Result is flat before the slider moves and grows after."""
        rig = observation_rig()
        rig.run(seconds(1))
        rig.parameters.set_now("safespeed.time_scalar", 4.0)
        rig.run(seconds(1))
        am = rig.capture.get("AM_Result")
        before = [v for t, v in zip(am.times, am.values)
                  if t <= seconds(1) - ms(20)]
        assert before[-1] == 0
        assert am.values[-1] > 0
