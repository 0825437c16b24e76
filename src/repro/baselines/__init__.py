"""Baseline monitoring techniques the paper positions itself against.

* :class:`HardwareWatchdog` — the ECU-level watchdog (whole software),
* :class:`DeadlineMonitor` — OSEKtime-style task deadline monitoring,
* :class:`ExecutionTimeMonitor` — AUTOSAR-OS execution budgets,
* :class:`CfcssChecker` — signature-based control flow checking
  (Oh/Shirvani/McCluskey), the overhead comparison target of §3.2.2.
"""

from .cfcss import BasicBlockGraph, CfcssChecker, CfgError
from .deadline_monitor import DeadlineMonitor
from .exec_time_monitor import ExecutionTimeMonitor
from .hw_watchdog import HardwareWatchdog, attach_kick_task

__all__ = [
    "BasicBlockGraph",
    "CfcssChecker",
    "CfgError",
    "DeadlineMonitor",
    "ExecutionTimeMonitor",
    "HardwareWatchdog",
    "attach_kick_task",
]
