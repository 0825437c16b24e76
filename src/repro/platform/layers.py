"""EASIS software topology model (Figure 1 of the paper).

The EASIS platform is a layered architecture:

* **L1** — microcontroller (fault-tolerant hardware platform),
* **L2** — ISS drivers and microcontroller abstraction,
* **L3** — ISS services: dependability services (Software Watchdog,
  Fault Management Framework), gateway services, and the OSEK operating
  system (which spans L2/L3),
* **L4** — ISS application interface,
* **L5** — applications.

The model is structural: modules are placed on layers and connected with
typed interfaces, and the topology validates the layering rule that a
module may only use interfaces of its own or the adjacent lower layer
(the OS is explicitly allowed to span L2–L3, as in the paper's figure).
The Software Watchdog integration test asserts that the watchdog's two
interfaces — heartbeat indications from applications and fault reports
to the FMF — are representable in this topology.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple


class Layer(enum.IntEnum):
    """The five layers of the EASIS software topology."""

    L1_MICROCONTROLLER = 1
    L2_DRIVERS_MCAL = 2
    L3_ISS_SERVICES = 3
    L4_APPLICATION_INTERFACE = 4
    L5_APPLICATIONS = 5


class ModuleKind(enum.Enum):
    """Coarse classification of platform modules."""

    HARDWARE = "hardware"
    DRIVER = "driver"
    OPERATING_SYSTEM = "operating_system"
    DEPENDABILITY_SERVICE = "dependability_service"
    GATEWAY_SERVICE = "gateway_service"
    INTERFACE = "interface"
    APPLICATION = "application"


class TopologyError(ValueError):
    """Raised for violations of the layering rules."""


@dataclass
class PlatformModule:
    """One module placed on the topology."""

    name: str
    layer: Layer
    kind: ModuleKind
    #: Optional second layer for modules that span two layers (the OSEK
    #: OS "is integrated across L2 and L3").
    spans: Optional[Layer] = None
    provides: Set[str] = field(default_factory=set)
    consumes: Set[str] = field(default_factory=set)

    def layer_range(self) -> Tuple[Layer, Layer]:
        """(lowest, highest) layer occupied."""
        if self.spans is None:
            return (self.layer, self.layer)
        low, high = sorted((self.layer, self.spans))
        return (Layer(low), Layer(high))


class SoftwareTopology:
    """The module/interface graph of one ECU's software platform."""

    def __init__(self, name: str = "EASIS") -> None:
        self.name = name
        self.modules: Dict[str, PlatformModule] = {}
        #: interface name → providing module name.
        self.interface_providers: Dict[str, str] = {}
        #: (consumer, interface) connections.
        self.connections: List[Tuple[str, str]] = []

    # ------------------------------------------------------------------
    def add_module(
        self,
        name: str,
        layer: Layer,
        kind: ModuleKind,
        *,
        spans: Optional[Layer] = None,
    ) -> PlatformModule:
        """Place a module on the topology."""
        if name in self.modules:
            raise TopologyError(f"duplicate module {name!r}")
        if spans is not None and abs(int(spans) - int(layer)) != 1:
            raise TopologyError(
                f"module {name!r}: a module may span only adjacent layers"
            )
        module = PlatformModule(name=name, layer=layer, kind=kind, spans=spans)
        self.modules[name] = module
        return module

    def provide(self, module_name: str, interface: str) -> None:
        """Declare that a module provides a named interface."""
        module = self._module(module_name)
        if interface in self.interface_providers:
            raise TopologyError(f"interface {interface!r} already provided")
        module.provides.add(interface)
        self.interface_providers[interface] = module_name

    def connect(self, consumer_name: str, interface: str) -> None:
        """Connect a consumer module to a provided interface.

        Enforces the layering rule: the consumer must occupy the
        provider's layer or the layer directly above it.
        """
        consumer = self._module(consumer_name)
        provider_name = self.interface_providers.get(interface)
        if provider_name is None:
            raise TopologyError(f"interface {interface!r} is not provided")
        provider = self._module(provider_name)
        if not self._layering_ok(consumer, provider):
            raise TopologyError(
                f"{consumer_name!r} (L{int(consumer.layer)}) may not use "
                f"{interface!r} provided by {provider_name!r} "
                f"(L{int(provider.layer)}): layering violation"
            )
        consumer.consumes.add(interface)
        self.connections.append((consumer_name, interface))

    # ------------------------------------------------------------------
    def provider_of(self, interface: str) -> PlatformModule:
        """The module providing an interface."""
        name = self.interface_providers.get(interface)
        if name is None:
            raise TopologyError(f"interface {interface!r} is not provided")
        return self.modules[name]

    def validate(self) -> None:
        """Re-check every connection against the layering rule."""
        for consumer_name, interface in self.connections:
            consumer = self._module(consumer_name)
            provider = self.provider_of(interface)
            if not self._layering_ok(consumer, provider):
                raise TopologyError(
                    f"connection {consumer_name!r} -> {interface!r} violates layering"
                )

    # ------------------------------------------------------------------
    def _module(self, name: str) -> PlatformModule:
        module = self.modules.get(name)
        if module is None:
            raise TopologyError(f"unknown module {name!r}")
        return module

    @staticmethod
    def _layering_ok(consumer: PlatformModule, provider: PlatformModule) -> bool:
        """A consumer may use interfaces of its own layer(s) or one below."""
        c_low, c_high = consumer.layer_range()
        p_low, p_high = provider.layer_range()
        for c in range(int(c_low), int(c_high) + 1):
            for p in range(int(p_low), int(p_high) + 1):
                if p == c or p == c - 1:
                    return True
        return False


def build_easis_topology() -> SoftwareTopology:
    """The reference topology of Figure 1, with the Software Watchdog's
    two interfaces wired in (§4.4)."""
    topo = SoftwareTopology("EASIS")
    topo.add_module("Microcontroller", Layer.L1_MICROCONTROLLER, ModuleKind.HARDWARE)
    topo.add_module("ISSDrivers", Layer.L2_DRIVERS_MCAL, ModuleKind.DRIVER)
    topo.add_module(
        "OperatingSystem",
        Layer.L2_DRIVERS_MCAL,
        ModuleKind.OPERATING_SYSTEM,
        spans=Layer.L3_ISS_SERVICES,
    )
    topo.add_module(
        "SoftwareWatchdog", Layer.L3_ISS_SERVICES, ModuleKind.DEPENDABILITY_SERVICE
    )
    topo.add_module(
        "FaultManagementFramework",
        Layer.L3_ISS_SERVICES,
        ModuleKind.DEPENDABILITY_SERVICE,
    )
    topo.add_module("GatewayServices", Layer.L3_ISS_SERVICES, ModuleKind.GATEWAY_SERVICE)
    topo.add_module(
        "ISSApplicationInterface", Layer.L4_APPLICATION_INTERFACE, ModuleKind.INTERFACE
    )
    topo.add_module("Applications", Layer.L5_APPLICATIONS, ModuleKind.APPLICATION)

    topo.provide("Microcontroller", "hw.core")
    topo.provide("ISSDrivers", "drivers.io")
    topo.provide("OperatingSystem", "os.services")
    topo.provide("SoftwareWatchdog", "watchdog.heartbeat_indication")
    topo.provide("FaultManagementFramework", "fmf.fault_report")
    topo.provide("GatewayServices", "gateway.interdomain")
    topo.provide("ISSApplicationInterface", "iss.api")

    topo.connect("ISSDrivers", "hw.core")
    topo.connect("OperatingSystem", "drivers.io")
    topo.connect("SoftwareWatchdog", "os.services")
    topo.connect("SoftwareWatchdog", "fmf.fault_report")
    topo.connect("FaultManagementFramework", "os.services")
    topo.connect("GatewayServices", "os.services")
    topo.connect("ISSApplicationInterface", "watchdog.heartbeat_indication")
    topo.connect("ISSApplicationInterface", "gateway.interdomain")
    topo.connect("Applications", "iss.api")
    topo.validate()
    return topo
