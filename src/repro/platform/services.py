"""Dependability software-service registry.

EASIS standardises services with "defined interfaces to other software
modules".  This module provides the small service framework the platform
uses: a common service base class with a start-only lifecycle that
declares its interfaces by name, and a registry that starts every
service and rejects two providers of one interface — mirroring the
standard-interface philosophy of the platform (and of AUTOSAR).
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, List


class ServiceState(enum.Enum):
    """Lifecycle state of a platform service."""

    REGISTERED = "registered"
    STARTED = "started"


class ServiceError(RuntimeError):
    """Raised for service framework misuse."""


class DependabilityService:
    """Base class for L3 dependability services.

    Subclasses override :meth:`on_start` and declare the interfaces they provide via :meth:`provide_interface`.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.state = ServiceState.REGISTERED
        self._interfaces: Dict[str, Callable[..., Any]] = {}

    # ------------------------------------------------------------------
    def provide_interface(self, interface: str, entry_point: Callable[..., Any]) -> None:
        """Expose a callable under a stable interface name."""
        if interface in self._interfaces:
            raise ServiceError(f"{self.name}: interface {interface!r} already provided")
        self._interfaces[interface] = entry_point

    def interfaces(self) -> List[str]:
        """Names of all provided interfaces."""
        return list(self._interfaces)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the service (idempotent)."""
        if self.state is ServiceState.STARTED:
            return
        self.on_start()
        self.state = ServiceState.STARTED

    def on_start(self) -> None:  # pragma: no cover - default no-op
        """Subclass hook."""


class ServiceRegistry:
    """The services of one ECU and the interface names they provide."""

    def __init__(self) -> None:
        self._services: Dict[str, DependabilityService] = {}
        self._interface_index: Dict[str, DependabilityService] = {}

    def register(self, service: DependabilityService) -> DependabilityService:
        """Register a service and index its interfaces."""
        if service.name in self._services:
            raise ServiceError(f"duplicate service {service.name!r}")
        self._services[service.name] = service
        for interface in service.interfaces():
            if interface in self._interface_index:
                raise ServiceError(f"interface {interface!r} already registered")
            self._interface_index[interface] = service
        return service

    def start_all(self) -> None:
        """Start every registered service."""
        for service in self._services.values():
            service.start()
