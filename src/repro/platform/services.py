"""Dependability software-service registry.

EASIS standardises services with "defined interfaces to other software
modules".  This module provides the small service framework the platform
uses: a common service base class with a start-only lifecycle, and a
registry that components use to discover one another by interface name
rather than by concrete object — mirroring the standard-interface
philosophy of the platform (and of AUTOSAR).
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, List, Optional


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

    def interface(self, name: str) -> Callable[..., Any]:
        """Resolve one of this service's interfaces."""
        entry = self._interfaces.get(name)
        if entry is None:
            raise ServiceError(f"{self.name}: no interface {name!r}")
        return entry

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
    """Discovery of services and their interfaces on one ECU."""

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

    def service(self, name: str) -> DependabilityService:
        """Look up a service by name."""
        service = self._services.get(name)
        if service is None:
            raise ServiceError(f"unknown service {name!r}")
        return service

    def resolve(self, interface: str) -> Callable[..., Any]:
        """Resolve an interface name to its entry point."""
        service = self._interface_index.get(interface)
        if service is None:
            raise ServiceError(f"no provider for interface {interface!r}")
        return service.interface(interface)

    def provider_of(self, interface: str) -> Optional[DependabilityService]:
        """The service providing an interface, or None."""
        return self._interface_index.get(interface)

    def start_all(self) -> None:
        """Start every registered service."""
        for service in self._services.values():
            service.start()

    def services(self) -> List[DependabilityService]:
        return list(self._services.values())
