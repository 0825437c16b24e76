"""Tests for the FlexRay TDMA simulation."""

import pytest

from repro.kernel import Kernel, ms
from repro.network import (
    FlexRayBus,
    FlexRayConfigError,
    FlexRaySchedule,
    FrameSpec,
    SignalSpec,
)


def schedule(**kwargs):
    defaults = dict(
        cycle_length=ms(5),
        static_slots=3,
        static_slot_length=ms(1),
        dynamic_minislots=10,
        minislot_length=100,
    )
    defaults.update(kwargs)
    return FlexRaySchedule(**defaults)


def frame(name="F", frame_id=0x10):
    spec = FrameSpec(name, frame_id)
    spec.add_signal(SignalSpec("v", 0, 16, scale=0.001))
    return spec


class TestSchedule:
    def test_invalid_parameters(self):
        with pytest.raises(FlexRayConfigError):
            FlexRaySchedule(cycle_length=0, static_slots=1, static_slot_length=1)

    def test_segments_must_fit_cycle(self):
        with pytest.raises(FlexRayConfigError):
            FlexRaySchedule(
                cycle_length=ms(1), static_slots=5, static_slot_length=ms(1)
            )

    def test_slot_assignment(self):
        s = schedule()
        s.assign_slot(1, "nodeA")
        with pytest.raises(FlexRayConfigError):
            s.assign_slot(1, "nodeB")
        with pytest.raises(FlexRayConfigError):
            s.assign_slot(99, "nodeC")

    def test_slot_offsets(self):
        s = schedule()
        assert s.slot_start_offset(1) == 0
        assert s.slot_start_offset(2) == ms(1)


class TestStaticSegment:
    def build(self, kernel):
        s = schedule()
        s.assign_slot(1, "a")
        s.assign_slot(2, "b")
        bus = FlexRayBus("fr", kernel, s)
        a = bus.attach("a")
        b = bus.attach("b")
        rx = bus.attach("rx")
        return bus, a, b, rx

    def test_staged_frame_sent_in_slot(self, kernel):
        bus, a, b, rx = self.build(kernel)
        got = []
        rx.on_receive(lambda m: got.append((kernel.clock.now, m.spec.name)))
        bus.start()
        a.stage(1, frame("A"), {"v": 1.0})
        kernel.run_until(ms(6))
        # Slot 1 of the first cycle ends at 1 ms.
        assert got == [(ms(1), "A")]

    def test_empty_slot_sends_nothing(self, kernel):
        bus, a, b, rx = self.build(kernel)
        got = []
        rx.on_receive(got.append)
        bus.start()
        kernel.run_until(ms(20))
        assert got == []
        assert bus.cycle_count >= 4

    def test_stage_unowned_slot_rejected(self, kernel):
        bus, a, b, rx = self.build(kernel)
        with pytest.raises(FlexRayConfigError):
            a.stage(2, frame(), {"v": 0})

    def test_latest_value_semantics(self, kernel):
        bus, a, b, rx = self.build(kernel)
        got = []
        rx.on_receive(lambda m: got.append(round(m.values()["v"], 3)))
        bus.start()
        a.stage(1, frame("A"), {"v": 0.1})
        a.stage(1, frame("A"), {"v": 0.2})  # overwrites before the slot
        kernel.run_until(ms(6))
        assert got == [pytest.approx(0.2)]
        assert a.missed_updates == 1

    def test_periodic_staging_every_cycle(self, kernel):
        bus, a, b, rx = self.build(kernel)
        got = []
        rx.on_receive(lambda m: got.append(kernel.clock.now))

        def stage_loop():
            a.stage(1, frame("A"), {"v": 1.0})
            kernel.queue.schedule(kernel.clock.now + ms(5), stage_loop)

        kernel.queue.schedule(0, stage_loop)
        bus.start()
        kernel.run_until(ms(26))
        assert got == [ms(1), ms(6), ms(11), ms(16), ms(21), ms(26)]

    def test_sender_does_not_hear_itself(self, kernel):
        bus, a, b, rx = self.build(kernel)
        got = []
        a.on_receive(got.append)
        bus.start()
        a.stage(1, frame(), {"v": 1.0})
        kernel.run_until(ms(6))
        assert got == []

    def test_duplicate_controller_rejected(self, kernel):
        bus, a, b, rx = self.build(kernel)
        with pytest.raises(FlexRayConfigError):
            bus.attach("a")
