"""OSEK-style status codes and kernel exceptions.

The OSEK/VDX OS specification defines a small set of status codes that
system services return.  The simulated kernel mirrors those codes so the
dependability services built on top (the Software Watchdog, the Fault
Management Framework) observe the same error surface an OSEK conforming
implementation would present.
"""

from __future__ import annotations

import enum


class StatusType(enum.Enum):
    """Status codes returned by OSEK system services (OSEK OS 2.2.3, ch. 13)."""

    E_OK = 0
    E_OS_ACCESS = 1
    E_OS_CALLEVEL = 2
    E_OS_ID = 3
    E_OS_LIMIT = 4
    E_OS_NOFUNC = 5
    E_OS_RESOURCE = 6
    E_OS_STATE = 7
    E_OS_VALUE = 8


class KernelError(Exception):
    """Base class for all simulated-kernel errors."""


class KernelConfigError(KernelError):
    """Raised for invalid static configuration (bad priorities, duplicate ids...)."""


class ServiceError(KernelError):
    """Raised when a system service is used incorrectly at runtime.

    Carries the OSEK :class:`StatusType` so an ``ErrorHook`` can inspect it,
    exactly as the OSEK extended-status error hook receives the code.
    """

    def __init__(self, status: StatusType, message: str = "") -> None:
        super().__init__(f"{status.name}: {message}" if message else status.name)
        self.status = status


class SchedulingError(KernelError):
    """Raised when the dispatcher reaches an inconsistent state (kernel bug)."""
