"""ISS applications and plant models for the architecture validator.

* :class:`Vehicle` — single-track driving dynamics,
* :class:`EnvironmentSimulation` / :class:`Road` — speed-limit zones and
  lane geometry,
* :class:`SafeSpeedApp` — the paper's speed limiter (Figure 4),
* :class:`SafeLaneApp` — lane departure warning,
* :class:`SteerByWireApp` — the steer-by-wire control path.
"""

from .environment import (
    CurvatureSegment,
    EnvironmentSimulation,
    Road,
    SpeedLimitZone,
)
from .safelane import SafeLaneApp, SafeLaneConfig, SafeLaneState
from .safespeed import (
    RUNNABLE_ACTUATE,
    RUNNABLE_CONTROL,
    RUNNABLE_GET_SENSOR,
    RUNNABLE_SEQUENCE,
    SafeSpeedApp,
    SafeSpeedConfig,
    SafeSpeedState,
)
from .steer_by_wire import SteerByWireApp, SteerByWireConfig, SteerByWireState
from .vehicle import ActuatorCommands, Vehicle, VehicleParameters, VehicleState

__all__ = [
    "ActuatorCommands",
    "CurvatureSegment",
    "EnvironmentSimulation",
    "RUNNABLE_ACTUATE",
    "RUNNABLE_CONTROL",
    "RUNNABLE_GET_SENSOR",
    "RUNNABLE_SEQUENCE",
    "Road",
    "SafeLaneApp",
    "SafeLaneConfig",
    "SafeLaneState",
    "SafeSpeedApp",
    "SafeSpeedConfig",
    "SafeSpeedState",
    "SpeedLimitZone",
    "SteerByWireApp",
    "SteerByWireConfig",
    "SteerByWireState",
    "Vehicle",
    "VehicleParameters",
    "VehicleState",
]
