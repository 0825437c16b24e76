"""Tests for the CAN bus simulation."""

import pytest

from repro.kernel import Kernel, ms
from repro.network import CanBus, FrameSpec, SignalSpec, can_frame_bits


def make_bus(kernel, **kwargs):
    return CanBus("test", kernel, **kwargs)


def frame(name="F", frame_id=0x100):
    spec = FrameSpec(name, frame_id)
    spec.add_signal(SignalSpec("v", 0, 16, scale=0.01))
    return spec


class TestFrameBits:
    def test_standard_frame_size(self):
        assert can_frame_bits(8) == 47 + 64

    def test_stuffing_adds_bits(self):
        assert can_frame_bits(8, worst_case_stuffing=True) > can_frame_bits(8)


class TestDelivery:
    def test_broadcast_to_other_controllers(self, kernel):
        bus = make_bus(kernel)
        tx = bus.attach("tx")
        rx = bus.attach("rx")
        got = []
        rx.on_receive(got.append)
        tx.send(frame(), {"v": 50.0})
        kernel.run_until(ms(10))
        assert len(got) == 1
        assert got[0].values()["v"] == pytest.approx(50.0, abs=0.01)

    def test_sender_does_not_receive_own_frame(self, kernel):
        bus = make_bus(kernel)
        tx = bus.attach("tx")
        got = []
        tx.on_receive(got.append)
        tx.send(frame(), {"v": 1.0})
        kernel.run_until(ms(10))
        assert got == []

    def test_transmission_takes_wire_time(self, kernel):
        bus = make_bus(kernel, bitrate_bps=500_000)
        tx = bus.attach("tx")
        rx = bus.attach("rx")
        arrival = []
        rx.on_receive(lambda m: arrival.append(kernel.clock.now))
        tx.send(frame(), {"v": 1.0})
        kernel.run_until(ms(10))
        expected = (can_frame_bits(8) * 1_000_000) // 500_000
        assert arrival == [expected]

    def test_acceptance_filter(self, kernel):
        bus = make_bus(kernel)
        tx = bus.attach("tx")
        rx = bus.attach("rx")
        rx.accept(0x200)
        got = []
        rx.on_receive(got.append)
        tx.send(frame("A", 0x100), {"v": 1.0})
        tx.send(frame("B", 0x200), {"v": 2.0})
        kernel.run_until(ms(10))
        assert [m.frame_id for m in got] == [0x200]

    def test_empty_filter_receives_all(self, kernel):
        bus = make_bus(kernel)
        tx = bus.attach("tx")
        rx = bus.attach("rx")
        got = []
        rx.on_receive(got.append)
        tx.send(frame("A", 0x100), {"v": 1.0})
        tx.send(frame("B", 0x200), {"v": 2.0})
        kernel.run_until(ms(10))
        assert len(got) == 2


class TestArbitration:
    def test_lowest_id_wins(self, kernel):
        bus = make_bus(kernel)
        a = bus.attach("a")
        b = bus.attach("b")
        rx = bus.attach("rx")
        order = []
        rx.on_receive(lambda m: order.append(m.frame_id))
        # Occupy the bus so the next two contend.
        a.send(frame("first", 0x50), {"v": 0})
        b.send(frame("hi", 0x300), {"v": 0})
        a.send(frame("lo", 0x100), {"v": 0})
        kernel.run_until(ms(10))
        assert order == [0x50, 0x100, 0x300]

    def test_fifo_within_same_id(self, kernel):
        bus = make_bus(kernel)
        a = bus.attach("a")
        rx = bus.attach("rx")
        values = []
        rx.on_receive(lambda m: values.append(round(m.values()["v"])))
        for v in (1, 2, 3):
            a.send(frame(), {"v": v})
        kernel.run_until(ms(10))
        assert values == [1, 2, 3]

    def test_pending_high_water_mark(self, kernel):
        bus = make_bus(kernel)
        a = bus.attach("a")
        for v in range(5):
            a.send(frame(), {"v": v})
        assert bus.max_pending_seen == 4  # first started immediately


class TestFaults:
    def test_invalid_parameters(self, kernel):
        with pytest.raises(ValueError):
            CanBus("x", kernel, bitrate_bps=0)
