"""SafeSpeed — the speed-limiting ISS application of the paper.

"SafeSpeed is a system to automatically limit the vehicle speed to an
externally commanded maximum value" (§4.1).  Figure 4 divides it into
three runnables triggered by a Stateflow chart:

* ``GetSensorValue`` — sample vehicle speed and the commanded limit,
* ``SAFE_CC_process`` — the control algorithm (PI speed limiter),
* ``Speed_process`` — write the actuator command.

The behaviours operate on a :class:`SafeSpeedState` blackboard via
pluggable sensor/actuator ports, so the same application runs both
standalone on a directly-attached vehicle model and in the HIL validator
where values travel over simulated CAN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..kernel.clock import ms
from ..platform.application import (
    Application,
    RunnableSpec,
    SoftwareComponent,
    TaskMapping,
    TaskSpec,
)

#: Sensor port: returns (vehicle speed kph, commanded limit kph).
SensorPort = Callable[[], Tuple[float, float]]
#: Actuator port: receives (throttle 0..1, brake 0..1).
ActuatorPort = Callable[[float, float], None]

#: The canonical runnable names of Figure 4.
RUNNABLE_GET_SENSOR = "GetSensorValue"
RUNNABLE_CONTROL = "SAFE_CC_process"
RUNNABLE_ACTUATE = "Speed_process"
RUNNABLE_SEQUENCE = (RUNNABLE_GET_SENSOR, RUNNABLE_CONTROL, RUNNABLE_ACTUATE)


def safespeed_mapping() -> TaskMapping:
    """The experiments' SafeSpeed system: the three runnables (1/2/1 ms
    WCET, no behaviours) in sequence in one 10 ms task."""
    component = SoftwareComponent("SpeedControl")
    for name, wcet in zip(RUNNABLE_SEQUENCE, (ms(1), ms(2), ms(1))):
        component.add(RunnableSpec(name, wcet=wcet))
    app = Application("SafeSpeed")
    app.add_component(component)
    mapping = TaskMapping([app])
    mapping.add_task(TaskSpec("SafeSpeedTask", priority=5, period=ms(10)))
    mapping.map_sequence("SafeSpeedTask", list(RUNNABLE_SEQUENCE))
    return mapping


@dataclass
class SafeSpeedConfig:
    """Controller tuning."""

    kp: float = 0.08
    ki: float = 0.02
    sample_time_s: float = 0.01
    #: Limiter engages this many km/h below the commanded limit.
    approach_band_kph: float = 2.0
    #: Default cruise drive command when well below the limit.
    cruise_throttle: float = 0.45


@dataclass
class SafeSpeedState:
    """Blackboard shared by the three runnables."""

    speed_kph: float = 0.0
    limit_kph: float = 130.0
    error_kph: float = 0.0
    integral: float = 0.0
    throttle_cmd: float = 0.0
    brake_cmd: float = 0.0
    samples: int = 0
    interventions: int = 0
    #: Highest speed observed above the commanded limit (overshoot metric).
    max_overshoot_kph: float = 0.0


class SafeSpeedApp:
    """Builds the SafeSpeed application model and its runnable behaviours."""

    def __init__(
        self,
        sensor: SensorPort,
        actuator: ActuatorPort,
        config: Optional[SafeSpeedConfig] = None,
    ) -> None:
        self.sensor = sensor
        self.actuator = actuator
        self.config = config or SafeSpeedConfig()
        self.state = SafeSpeedState()

    # ------------------------------------------------------------------
    # runnable behaviours (Figure 4)
    # ------------------------------------------------------------------
    def get_sensor_value(self, _runnable=None, _task=None) -> None:
        """Runnable 1: sample speed and commanded limit."""
        speed, limit = self.sensor()
        self.state.speed_kph = speed
        self.state.limit_kph = limit
        self.state.samples += 1
        overshoot = speed - limit
        if overshoot > self.state.max_overshoot_kph:
            self.state.max_overshoot_kph = overshoot

    def safe_cc_process(self, _runnable=None, _task=None) -> None:
        """Runnable 2: PI limiter computing throttle/brake demands."""
        cfg, st = self.config, self.state
        engage_at = st.limit_kph - cfg.approach_band_kph
        error = engage_at - st.speed_kph  # >0: below band, free driving
        st.error_kph = error
        if error > 0:
            # Below the limiter band: drive at the cruise demand and
            # bleed the integrator.
            st.integral *= 0.9
            st.throttle_cmd = cfg.cruise_throttle
            st.brake_cmd = 0.0
            return
        st.interventions += 1
        st.integral += error * cfg.sample_time_s
        command = cfg.kp * error + cfg.ki * st.integral
        if command >= 0:
            st.throttle_cmd = min(command, 1.0)
            st.brake_cmd = 0.0
        else:
            st.throttle_cmd = 0.0
            st.brake_cmd = min(-command, 1.0)

    def speed_process(self, _runnable=None, _task=None) -> None:
        """Runnable 3: write the actuator command."""
        self.actuator(self.state.throttle_cmd, self.state.brake_cmd)

    # ------------------------------------------------------------------
    def build_application(
        self,
        *,
        wcets: Optional[List[int]] = None,
        restartable: bool = True,
        ecu_reset_allowed: bool = True,
    ) -> Application:
        """The declarative application model for the task mapping."""
        wcets = wcets or [1000, 2000, 1000]  # 1 ms / 2 ms / 1 ms
        if len(wcets) != 3:
            raise ValueError("SafeSpeed has exactly three runnables")
        behaviours = [self.get_sensor_value, self.safe_cc_process, self.speed_process]
        component = SoftwareComponent("SpeedControl")
        for name, wcet, behaviour in zip(RUNNABLE_SEQUENCE, wcets, behaviours):
            component.add(
                RunnableSpec(
                    name,
                    wcet=wcet,
                    behaviour=lambda r, t, fn=behaviour: fn(r, t),
                )
            )
        app = Application(
            "SafeSpeed",
            restartable=restartable,
            ecu_reset_allowed=ecu_reset_allowed,
        )
        app.add_component(component)
        return app
