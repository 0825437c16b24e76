"""Tests for the EASIS layered topology model (Figure 1)."""

import pytest

from repro.platform import (
    Layer,
    ModuleKind,
    SoftwareTopology,
    TopologyError,
    build_easis_topology,
)


class TestModulePlacement:
    def test_add_module(self):
        topo = SoftwareTopology()
        module = topo.add_module("OS", Layer.L2_DRIVERS_MCAL, ModuleKind.OPERATING_SYSTEM)
        assert module.layer_range() == (Layer.L2_DRIVERS_MCAL,
                                        Layer.L2_DRIVERS_MCAL)

    def test_duplicate_module_rejected(self):
        topo = SoftwareTopology()
        topo.add_module("A", Layer.L5_APPLICATIONS, ModuleKind.APPLICATION)
        with pytest.raises(TopologyError):
            topo.add_module("A", Layer.L5_APPLICATIONS, ModuleKind.APPLICATION)

    def test_spanning_adjacent_layers(self):
        topo = SoftwareTopology()
        os_module = topo.add_module(
            "OS", Layer.L2_DRIVERS_MCAL, ModuleKind.OPERATING_SYSTEM,
            spans=Layer.L3_ISS_SERVICES,
        )
        assert os_module.layer_range() == (Layer.L2_DRIVERS_MCAL,
                                           Layer.L3_ISS_SERVICES)

    def test_span_must_be_adjacent(self):
        topo = SoftwareTopology()
        with pytest.raises(TopologyError):
            topo.add_module(
                "bad", Layer.L2_DRIVERS_MCAL, ModuleKind.DRIVER,
                spans=Layer.L5_APPLICATIONS,
            )

    def test_modules_on_layer(self):
        topo = build_easis_topology()
        l3 = {name for name, m in topo.modules.items()
              if Layer.L3_ISS_SERVICES in m.layer_range()}
        assert "SoftwareWatchdog" in l3
        assert "FaultManagementFramework" in l3
        assert "OperatingSystem" in l3  # spans L2-L3


class TestInterfaces:
    def test_provide_and_resolve(self):
        topo = SoftwareTopology()
        topo.add_module("Svc", Layer.L3_ISS_SERVICES, ModuleKind.DEPENDABILITY_SERVICE)
        topo.provide("Svc", "svc.api")
        assert topo.provider_of("svc.api").name == "Svc"

    def test_double_provide_rejected(self):
        topo = SoftwareTopology()
        topo.add_module("A", Layer.L3_ISS_SERVICES, ModuleKind.DEPENDABILITY_SERVICE)
        topo.add_module("B", Layer.L3_ISS_SERVICES, ModuleKind.DEPENDABILITY_SERVICE)
        topo.provide("A", "api")
        with pytest.raises(TopologyError):
            topo.provide("B", "api")

    def test_connect_same_layer(self):
        topo = SoftwareTopology()
        topo.add_module("A", Layer.L3_ISS_SERVICES, ModuleKind.DEPENDABILITY_SERVICE)
        topo.add_module("B", Layer.L3_ISS_SERVICES, ModuleKind.DEPENDABILITY_SERVICE)
        topo.provide("A", "api")
        topo.connect("B", "api")
        assert topo.connections == [("B", "api")]

    def test_connect_layer_above_provider(self):
        topo = SoftwareTopology()
        topo.add_module("Low", Layer.L2_DRIVERS_MCAL, ModuleKind.DRIVER)
        topo.add_module("High", Layer.L3_ISS_SERVICES, ModuleKind.DEPENDABILITY_SERVICE)
        topo.provide("Low", "io")
        topo.connect("High", "io")

    def test_layering_violation_rejected(self):
        """An application (L5) may not directly use L2 drivers."""
        topo = SoftwareTopology()
        topo.add_module("Drv", Layer.L2_DRIVERS_MCAL, ModuleKind.DRIVER)
        topo.add_module("App", Layer.L5_APPLICATIONS, ModuleKind.APPLICATION)
        topo.provide("Drv", "io")
        with pytest.raises(TopologyError):
            topo.connect("App", "io")

    def test_upward_use_rejected(self):
        """A driver may not call up into applications."""
        topo = SoftwareTopology()
        topo.add_module("Drv", Layer.L2_DRIVERS_MCAL, ModuleKind.DRIVER)
        topo.add_module("App", Layer.L3_ISS_SERVICES, ModuleKind.APPLICATION)
        topo.provide("App", "callback")
        with pytest.raises(TopologyError):
            topo.connect("Drv", "callback")

    def test_unknown_interface(self):
        topo = SoftwareTopology()
        topo.add_module("A", Layer.L3_ISS_SERVICES, ModuleKind.DEPENDABILITY_SERVICE)
        with pytest.raises(TopologyError):
            topo.connect("A", "ghost")

    def test_unknown_module(self):
        topo = SoftwareTopology()
        with pytest.raises(TopologyError):
            topo.provide("ghost", "api")


class TestReferenceTopology:
    def test_builds_and_validates(self):
        topo = build_easis_topology()
        topo.validate()

    def test_watchdog_interfaces_present(self):
        """The two main interfaces of §4.4 exist in the reference
        topology: heartbeat indications in, fault reports out."""
        topo = build_easis_topology()
        assert topo.provider_of("watchdog.heartbeat_indication").name == "SoftwareWatchdog"
        assert topo.provider_of("fmf.fault_report").name == "FaultManagementFramework"
        assert ("SoftwareWatchdog", "fmf.fault_report") in topo.connections

    def test_five_layers_populated(self):
        topo = build_easis_topology()
        for layer in Layer:
            assert any(layer in m.layer_range()
                       for m in topo.modules.values()), f"layer {layer} empty"

    def test_os_spans_l2_l3(self):
        topo = build_easis_topology()
        os_module = topo.modules["OperatingSystem"]
        assert os_module.layer_range() == (
            Layer.L2_DRIVERS_MCAL,
            Layer.L3_ISS_SERVICES,
        )
