"""EASIS dependable software platform (layers L1–L5, FMF, ECU).

Public surface:

* :class:`SoftwareTopology` / :func:`build_easis_topology` — the layered
  module/interface model of Figure 1 (structural: no ECU builds it),
* :class:`Application` / :class:`SoftwareComponent` /
  :class:`RunnableSpec` / :class:`TaskMapping` / :class:`SystemBuilder` —
  the functional model and its mapping onto OSEK tasks (Figure 3),
* schedulability analysis (:func:`response_time_analysis`, ...),
* :class:`FaultManagementFramework` — the platform's fault treatment
  service (§3.4),
* :class:`Ecu` — one node's fully integrated software platform, which
  wires the FMF to the watchdog by direct listener calls.
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
from .ecu import Ecu
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

__all__ = [
    "AnalysisError",
    "Application",
    "BuiltSystem",
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
    "assign_rate_monotonic_priorities",
    "build_easis_topology",
    "is_schedulable",
    "response_time",
    "response_time_analysis",
    "total_utilization",
]
