"""Tests for the TCP link and the inter-domain gateway."""

import pytest

from repro.kernel import Kernel, ms
from repro.network import (
    CanBus,
    FrameSpec,
    Gateway,
    Route,
    SignalSpec,
    TcpLink,
)


def frame(name="F", frame_id=0x100):
    spec = FrameSpec(name, frame_id)
    spec.add_signal(SignalSpec("v", 0, 16, scale=0.01))
    return spec


class TestTcpLink:
    def test_delivery_after_latency(self, kernel):
        link = TcpLink("tcp", kernel, latency=ms(3))
        got = []
        link.on_receive(lambda m: got.append(kernel.clock.now))
        link.send(frame(), {"v": 1.0})
        kernel.run_until(ms(10))
        assert got == [ms(3)]
        assert link.sent_count == 1
        assert link.delivered_count == 1

    def test_in_order_delivery(self, kernel):
        link = TcpLink("tcp", kernel, latency=ms(1))
        got = []
        link.on_receive(lambda m: got.append(round(m.values()["v"])))
        for v in (1, 2, 3):
            link.send(frame(), {"v": v})
        kernel.run_until(ms(10))
        assert got == [1, 2, 3]

    def test_negative_latency_rejected(self, kernel):
        with pytest.raises(ValueError):
            TcpLink("tcp", kernel, latency=-1)


class TestGatewayRouting:
    def build(self, kernel):
        can = CanBus("can", kernel)
        tcp = TcpLink("tcp", kernel, latency=ms(1))
        gw = Gateway("gw", kernel, forwarding_latency=ms(1))
        gw_can = can.attach("gw")
        gw.add_can_port("can", gw_can)
        gw.add_tcp_port("tcp", tcp)
        return can, tcp, gw

    def test_route_tcp_to_can(self, kernel):
        can, tcp, gw = self.build(kernel)
        rx = can.attach("rx")
        got = []
        rx.on_receive(lambda m: got.append(m.values()["v"]))
        gw.add_route(Route(source_port="tcp", frame_id=0x100, destination_port="can"))
        tcp.send(frame(), {"v": 42.0})
        kernel.run_until(ms(10))
        assert got and got[0] == pytest.approx(42.0, abs=0.01)
        assert gw.forwarded_count == 1

    def test_unwhitelisted_frame_dropped(self, kernel):
        can, tcp, gw = self.build(kernel)
        rx = can.attach("rx")
        got = []
        rx.on_receive(got.append)
        tcp.send(frame("other", 0x999), {"v": 1.0})
        kernel.run_until(ms(10))
        assert got == []
        assert gw.dropped_count == 1

    def test_translation_rewrites_frame(self, kernel):
        can, tcp, gw = self.build(kernel)
        rx = can.attach("rx")
        got = []
        rx.on_receive(lambda m: got.append((m.spec.name, m.values()["v"])))
        out_spec = frame("Translated", 0x200)

        def translate(message):
            return out_spec, {"v": message.values()["v"] * 2}

        gw.add_route(
            Route(source_port="tcp", frame_id=0x100, destination_port="can",
                  translate=translate)
        )
        tcp.send(frame(), {"v": 10.0})
        kernel.run_until(ms(10))
        assert got == [("Translated", pytest.approx(20.0, abs=0.01))]

    def test_route_can_to_tcp(self, kernel):
        can, tcp, gw = self.build(kernel)
        sender = can.attach("sender")
        got = []
        tcp.on_receive(lambda m: got.append(m.values()["v"]))
        gw.add_route(Route(source_port="can", frame_id=0x100, destination_port="tcp"))
        sender.send(frame(), {"v": 5.0})
        kernel.run_until(ms(10))
        assert got and got[0] == pytest.approx(5.0, abs=0.01)

    def test_unknown_port_rejected(self, kernel):
        _, _, gw = self.build(kernel)
        with pytest.raises(ValueError):
            gw.add_route(Route(source_port="ghost", frame_id=1, destination_port="can"))
        with pytest.raises(ValueError):
            gw.add_route(Route(source_port="can", frame_id=1, destination_port="ghost"))

    def test_forwarding_latency_applied(self, kernel):
        can, tcp, gw = self.build(kernel)
        rx = can.attach("rx")
        arrival = []
        rx.on_receive(lambda m: arrival.append(kernel.clock.now))
        gw.add_route(Route(source_port="tcp", frame_id=0x100, destination_port="can"))
        tcp.send(frame(), {"v": 1.0})
        kernel.run_until(ms(10))
        # tcp latency (1 ms) + gateway forwarding (1 ms) + CAN wire time.
        assert arrival[0] >= ms(2)
