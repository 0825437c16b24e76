"""The Software Watchdog — the paper's primary contribution.

Public surface:

* :class:`FaultHypothesis` / :class:`RunnableHypothesis` — the static
  monitoring configuration (periods, heartbeat bounds, flow table,
  thresholds),
* :class:`SoftwareWatchdog` — the service facade wiring the heartbeat
  monitoring, program-flow-checking and task-state-indication units,
* :func:`install_heartbeat_glue` / :class:`WatchdogTaskBinding` — OSEK
  integration (glue code + periodic check task),
* report types (:class:`RunnableError`, :class:`TaskFaultEvent`, ...).

The OSEK integration and the distributed supervision layer build on the
simulated kernel and network, so their names are resolved on first
access (PEP 562): a process that only supervises — the ``repro serve``
daemon — never loads :mod:`repro.kernel` or :mod:`repro.network`.
"""

import importlib

from .config_io import (
    FindingSeverity,
    HypothesisFinding,
    analyze_hypothesis,
    hypothesis_from_dict,
    hypothesis_to_dict,
    is_deployable,
)
from .counters import CounterHistory
from .flowcheck import FlowTable, ProgramFlowCheckingUnit
from .heartbeat import HeartbeatMonitoringUnit
from .hypothesis import (
    FaultHypothesis,
    HypothesisError,
    RunnableHypothesis,
    ThresholdPolicy,
)
from .reports import (
    EcuStateChange,
    ErrorType,
    MonitorState,
    RunnableError,
    SupervisionReport,
    TaskFaultEvent,
)
from .taskstate import TaskStateIndicationUnit
from .watchdog import SoftwareWatchdog

__all__ = [
    "CounterHistory",
    "EcuStateChange",
    "ErrorType",
    "FaultHypothesis",
    "FindingSeverity",
    "HypothesisFinding",
    "FlowTable",
    "HeartbeatMonitoringUnit",
    "HypothesisError",
    "MonitorState",
    "NodeAlivenessError",
    "PeerStatus",
    "RemoteSupervisor",
    "SupervisionPublisher",
    "ProgramFlowCheckingUnit",
    "RunnableError",
    "RunnableHypothesis",
    "SoftwareWatchdog",
    "SupervisionReport",
    "TaskFaultEvent",
    "TaskStateIndicationUnit",
    "ThresholdPolicy",
    "WatchdogTaskBinding",
    "analyze_hypothesis",
    "attach_hardware_watchdog_kick",
    "hypothesis_from_dict",
    "hypothesis_to_dict",
    "install_glue_on_all",
    "is_deployable",
    "install_heartbeat_glue",
    "make_supervision_frame_spec",
]

#: Public names whose modules import the simulator, by defining module.
_LAZY = {
    "NodeAlivenessError": "distributed",
    "PeerStatus": "distributed",
    "RemoteSupervisor": "distributed",
    "SupervisionPublisher": "distributed",
    "make_supervision_frame_spec": "distributed",
    "WatchdogTaskBinding": "integration",
    "attach_hardware_watchdog_kick": "integration",
    "install_glue_on_all": "integration",
    "install_heartbeat_glue": "integration",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
