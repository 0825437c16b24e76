"""Error injection framework: fault models, injector, campaigns (§4.5)."""

from .campaigns import (
    Campaign,
    CampaignResult,
    CampaignSystem,
    DetectionRecorder,
    RunResult,
    RunSpec,
    watchdog_detector,
)
from .injector import ErrorInjector, InjectionRecord
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
    "FaultTarget",
    "HeartbeatCorruptionFault",
    "InjectionRecord",
    "InvalidBranchFault",
    "LoopCountFault",
    "RunResult",
    "RunSpec",
    "SkipRunnableFault",
    "TimeScalarFault",
    "watchdog_detector",
]
