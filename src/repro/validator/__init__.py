"""EASIS architecture validator: HIL rig, nodes, ControlDesk."""

from .controldesk import Capture, CapturedSeries, Parameter, ParameterStore
from .hil import (
    HilValidator,
    SAFELANE_TASK,
    SAFESPEED_TASK,
    STEERING_TASK,
)
from .multi_ecu import MultiEcuValidator, SupervisedNode
from .nodes import (
    ActuatorNode,
    DriverNode,
    DrivingDynamicsNode,
    EnvironmentNode,
    LightControlNode,
    SignalStore,
    build_validator_catalog,
)

__all__ = [
    "ActuatorNode",
    "Capture",
    "CapturedSeries",
    "DriverNode",
    "DrivingDynamicsNode",
    "EnvironmentNode",
    "HilValidator",
    "LightControlNode",
    "MultiEcuValidator",
    "Parameter",
    "ParameterStore",
    "SAFELANE_TASK",
    "SAFESPEED_TASK",
    "STEERING_TASK",
    "SignalStore",
    "SupervisedNode",
    "build_validator_catalog",
]
