"""Error injection framework: fault models, injector, campaigns (§4.5)."""

from .campaigns import (
    Campaign,
    CampaignResult,
    CampaignSystem,
    DetectionRecorder,
    RunResult,
    watchdog_detector,
)
from .injector import ErrorInjector, InjectionRecord
from .registry import (
    FaultSpec,
    RunSpec,
    SystemSpec,
    register_fault,
    register_system,
    registered_faults,
    registered_systems,
)
from .models import (
    BlockedRunnableFault,
    FaultModel,
    FaultTarget,
    HeartbeatCorruptionFault,
    InvalidBranchFault,
    LoopCountFault,
    SkipRunnableFault,
    TimeScalarFault,
)

__all__ = [
    "BlockedRunnableFault",
    "Campaign",
    "CampaignResult",
    "CampaignSystem",
    "DetectionRecorder",
    "ErrorInjector",
    "FaultModel",
    "FaultSpec",
    "FaultTarget",
    "HeartbeatCorruptionFault",
    "InjectionRecord",
    "InvalidBranchFault",
    "LoopCountFault",
    "RunResult",
    "RunSpec",
    "SkipRunnableFault",
    "SystemSpec",
    "TimeScalarFault",
    "register_fault",
    "register_system",
    "registered_faults",
    "registered_systems",
    "watchdog_detector",
]
