"""EASIS dependable software platform (layers L1–L5, services, FMF, ECU).

Public surface:

* :class:`SoftwareTopology` / :func:`build_easis_topology` — the layered
  module/interface model of Figure 1,
* :class:`Application` / :class:`SoftwareComponent` /
  :class:`RunnableSpec` / :class:`TaskMapping` / :class:`SystemBuilder` —
  the functional model and its mapping onto OSEK tasks (Figure 3),
* schedulability analysis (:func:`response_time_analysis`, ...),
* :class:`FaultManagementFramework` — the platform's fault treatment
  service (§3.4),
* :class:`Ecu` — one node's fully integrated software platform.
"""

from .application import (
    Application,
    BuiltSystem,
    MappingError,
    RunnableSpec,
    SoftwareComponent,
    SystemBuilder,
    TaskMapping,
    TaskSpec,
)
from .ecu import Ecu, WatchdogServiceAdapter
from .fmf import (
    EcuActions,
    FaultManagementFramework,
    FaultRecord,
    FmfPolicy,
    Severity,
    TreatmentAction,
    TreatmentRecord,
)
from .layers import (
    Layer,
    ModuleKind,
    PlatformModule,
    SoftwareTopology,
    TopologyError,
    build_easis_topology,
)
from .schedulability import (
    AnalysisError,
    TaskTiming,
    assign_rate_monotonic_priorities,
    is_schedulable,
    response_time,
    response_time_analysis,
    total_utilization,
)
from .services import (
    DependabilityService,
    ServiceRegistry,
    ServiceState,
)

__all__ = [
    "AnalysisError",
    "Application",
    "BuiltSystem",
    "DependabilityService",
    "Ecu",
    "EcuActions",
    "FaultManagementFramework",
    "FaultRecord",
    "FmfPolicy",
    "Layer",
    "MappingError",
    "ModuleKind",
    "PlatformModule",
    "RunnableSpec",
    "ServiceRegistry",
    "ServiceState",
    "Severity",
    "SoftwareComponent",
    "SoftwareTopology",
    "SystemBuilder",
    "TaskMapping",
    "TaskSpec",
    "TaskTiming",
    "TopologyError",
    "TreatmentAction",
    "TreatmentRecord",
    "WatchdogServiceAdapter",
    "assign_rate_monotonic_priorities",
    "build_easis_topology",
    "is_schedulable",
    "response_time",
    "response_time_analysis",
    "total_utilization",
]
