"""Inter-domain gateway node.

The EASIS architecture validator includes "a gateway node, which
connects different vehicle domains of TCP/IP, CAN and FlexRay" (§4.1),
and the platform's L3 hosts "ISS gateway services [providing] secured
inter-domain communication services".  This module provides both:

* :class:`TcpLink` — a simple reliable ordered message channel standing
  in for the TCP/IP telematics domain (fixed latency, in-order
  delivery),
* :class:`Gateway` — a routing table over CAN and TCP ports mapping
  (source port, frame id) to destination ports, with optional
  per-route signal translation and an authorization whitelist (the
  "secured" aspect: only whitelisted frame ids cross domain borders;
  everything else is dropped and counted).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..kernel.scheduler import Kernel
from ..kernel.tracing import TraceKind
from .can import CanController
from .frames import FrameSpec, Message

Receiver = Callable[[Message], None]


class TcpLink:
    """Reliable ordered point-to-point channel (telematics stand-in)."""

    def __init__(self, name: str, kernel: Kernel, *, latency: int = 1000) -> None:
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.name = name
        self.kernel = kernel
        self.latency = latency
        self._receivers: List[Receiver] = []
        self.sent_count = 0
        self.delivered_count = 0

    def on_receive(self, receiver: Receiver) -> None:
        self._receivers.append(receiver)

    def send(self, spec: FrameSpec, values: Dict[str, float], source: str = "") -> Message:
        """Send a message; it arrives after the configured latency."""
        message = Message(
            spec=spec,
            payload=spec.pack(values),
            timestamp=self.kernel.clock.now,
            source=source or self.name,
        )
        self.sent_count += 1
        self.kernel.queue.schedule(
            self.kernel.clock.now + self.latency,
            lambda: self._deliver(message),
            label=f"tcp:{self.name}",
            persistent=True,
        )
        return message

    def _deliver(self, message: Message) -> None:
        self.delivered_count += 1
        for receiver in self._receivers:
            receiver(message)


@dataclass
class GatewayPort:
    """One attachment of the gateway to a domain network."""

    name: str
    send: Callable[[Message], None]
    #: Called by the underlying network when a message arrives here.
    description: str = ""


@dataclass
class Route:
    """One routing rule."""

    source_port: str
    frame_id: int
    destination_port: str
    #: Optional re-mapping of the frame onto a different spec at the
    #: destination (signal translation across domains).
    translate: Optional[Callable[[Message], Tuple[FrameSpec, Dict[str, float]]]] = None


class Gateway:
    """Routes whitelisted frames between domain networks."""

    def __init__(self, name: str, kernel: Kernel, *, forwarding_latency: int = 100) -> None:
        self.name = name
        self.kernel = kernel
        self.forwarding_latency = forwarding_latency
        self.ports: Dict[str, GatewayPort] = {}
        self.routes: Dict[Tuple[str, int], List[Route]] = {}
        self.forwarded_count = 0
        self.dropped_count = 0

    # ------------------------------------------------------------------
    # port attachment helpers
    # ------------------------------------------------------------------
    def add_can_port(self, name: str, controller: CanController) -> GatewayPort:
        """Attach a CAN controller as a gateway port."""
        port = GatewayPort(
            name=name,
            send=lambda msg: controller.send(msg.spec, msg.values()),
            description=f"CAN via {controller.name}",
        )
        controller.on_receive(lambda msg: self.on_message(name, msg))
        self.ports[name] = port
        return port

    def add_tcp_port(self, name: str, link: TcpLink) -> GatewayPort:
        """Attach a TCP link as a gateway port."""
        port = GatewayPort(
            name=name,
            send=lambda msg: link.send(msg.spec, msg.values(), source=self.name),
            description=f"TCP via {link.name}",
        )
        link.on_receive(lambda msg: self.on_message(name, msg))
        self.ports[name] = port
        return port

    # ------------------------------------------------------------------
    def add_route(self, route: Route) -> None:
        """Whitelist and route a frame id across a domain border."""
        if route.source_port not in self.ports:
            raise ValueError(f"unknown source port {route.source_port!r}")
        if route.destination_port not in self.ports:
            raise ValueError(f"unknown destination port {route.destination_port!r}")
        key = (route.source_port, route.frame_id)
        self.routes.setdefault(key, []).append(route)

    def on_message(self, port_name: str, message: Message) -> None:
        """Entry point for messages arriving at a port."""
        routes = self.routes.get((port_name, message.frame_id))
        if not routes:
            self.dropped_count += 1
            return
        for route in routes:
            self.kernel.queue.schedule(
                self.kernel.clock.now + self.forwarding_latency,
                lambda r=route, m=message: self._forward(r, m),
                label=f"gw:{self.name}",
                persistent=True,
            )

    def _forward(self, route: Route, message: Message) -> None:
        destination = self.ports[route.destination_port]
        if route.translate is not None:
            spec, values = route.translate(message)
            message = Message(
                spec=spec,
                payload=spec.pack(values),
                timestamp=self.kernel.clock.now,
                source=self.name,
            )
        self.forwarded_count += 1
        self.kernel.trace.record(
            self.kernel.clock.now,
            TraceKind.CUSTOM,
            f"gw:{self.name}",
            event="forward",
            frame=message.spec.name,
            to=route.destination_port,
        )
        destination.send(message)
