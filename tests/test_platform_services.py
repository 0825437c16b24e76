"""Tests for the service framework and registry."""

import pytest

from repro.platform import DependabilityService, ServiceRegistry, ServiceState
from repro.platform.services import ServiceError


class Probe(DependabilityService):
    def __init__(self, name="Probe"):
        super().__init__(name)
        self.started = 0
        self.provide_interface(f"{name.lower()}.ping", lambda: "pong")

    def on_start(self):
        self.started += 1


class TestService:
    def test_initial_state(self):
        svc = Probe()
        assert svc.state is ServiceState.REGISTERED

    def test_start_lifecycle(self):
        svc = Probe()
        svc.start()
        assert svc.state is ServiceState.STARTED
        svc.start()
        assert svc.state is ServiceState.STARTED
        assert svc.started == 1

    def test_start_idempotent(self):
        svc = Probe()
        svc.start()
        svc.start()
        assert svc.started == 1

    def test_duplicate_interface_rejected(self):
        svc = Probe()
        with pytest.raises(ServiceError):
            svc.provide_interface("probe.ping", lambda: None)

    def test_interfaces_listing(self):
        svc = Probe()
        assert svc.interfaces() == ["probe.ping"]


class TestRegistry:
    def test_duplicate_service_rejected(self):
        registry = ServiceRegistry()
        registry.register(Probe())
        with pytest.raises(ServiceError):
            registry.register(Probe())

    def test_interface_collision_rejected(self):
        registry = ServiceRegistry()
        registry.register(Probe("Probe"))
        clone = DependabilityService("Clone")
        clone.provide_interface("probe.ping", lambda: None)
        with pytest.raises(ServiceError):
            registry.register(clone)

    def test_start_all(self):
        registry = ServiceRegistry()
        a = registry.register(Probe("A"))
        b = registry.register(Probe("B"))
        registry.start_all()
        assert a.state is ServiceState.STARTED
        assert b.state is ServiceState.STARTED
