"""FlexRay bus simulation: the TDMA static segment.

FlexRay divides time into fixed-length *communication cycles*; each
cycle begins with a **static segment** of equally sized slots assigned
at design time to single senders (contention-free, the property that
makes FlexRay attractive for x-by-wire), followed by a **dynamic
segment** of minislots in which lower slot numbers win access, bounded
by the segment length.

The simulation schedules slot boundaries on the kernel's event queue.
Senders publish into transmit buffers; at a sender's static slot the
buffered frame (if any) is broadcast to every receiver.  The dynamic
segment is part of the validated cycle layout but carries no traffic:
every frame of the reproduced system is static.  A cycle counter is
exposed — the validator uses it for the FlexRay schedule of the
steer-by-wire path (§4.1).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..kernel.scheduler import Kernel
from ..kernel.tracing import TraceKind
from .frames import FrameSpec, Message

Receiver = Callable[[Message], None]


class FlexRayConfigError(ValueError):
    """Raised for invalid schedule configuration."""


class FlexRaySchedule:
    """Static design-time configuration of one FlexRay cluster."""

    def __init__(
        self,
        *,
        cycle_length: int,
        static_slots: int,
        static_slot_length: int,
        dynamic_minislots: int = 0,
        minislot_length: int = 0,
    ) -> None:
        if cycle_length <= 0 or static_slots <= 0 or static_slot_length <= 0:
            raise FlexRayConfigError("cycle/slot parameters must be positive")
        static_segment = static_slots * static_slot_length
        dynamic_segment = dynamic_minislots * minislot_length
        if static_segment + dynamic_segment > cycle_length:
            raise FlexRayConfigError(
                "static + dynamic segments exceed the cycle length"
            )
        self.cycle_length = cycle_length
        self.static_slots = static_slots
        self.static_slot_length = static_slot_length
        self.dynamic_minislots = dynamic_minislots
        self.minislot_length = minislot_length
        #: static slot number (1-based) → sender node name.
        self.slot_owner: Dict[int, str] = {}

    def assign_slot(self, slot: int, owner: str) -> None:
        """Assign a static slot to a sending node."""
        if not 1 <= slot <= self.static_slots:
            raise FlexRayConfigError(f"slot {slot} out of range")
        if slot in self.slot_owner:
            raise FlexRayConfigError(f"slot {slot} already assigned")
        self.slot_owner[slot] = owner

    def slot_start_offset(self, slot: int) -> int:
        """Offset of a static slot's start within the cycle."""
        return (slot - 1) * self.static_slot_length


class FlexRayController:
    """One node's attachment to a FlexRay cluster."""

    def __init__(self, name: str, bus: "FlexRayBus") -> None:
        self.name = name
        self.bus = bus
        self._receivers: List[Receiver] = []
        #: static slot → frame staged for the next occurrence of the slot.
        self._tx_buffers: Dict[int, Message] = {}
        self.rx_count = 0
        self.tx_count = 0
        self.missed_updates = 0

    def on_receive(self, receiver: Receiver) -> None:
        self._receivers.append(receiver)

    def stage(self, slot: int, spec: FrameSpec, values: Dict[str, float]) -> Message:
        """Stage a frame into the transmit buffer of a static slot.

        Overwrites any previous staging (latest-value semantics, like a
        real communication buffer); the frame goes out at the slot's next
        occurrence.
        """
        owner = self.bus.schedule.slot_owner.get(slot)
        if owner != self.name:
            raise FlexRayConfigError(
                f"{self.name!r} does not own static slot {slot}"
            )
        if slot in self._tx_buffers:
            self.missed_updates += 1
        message = Message(
            spec=spec,
            payload=spec.pack(values),
            timestamp=self.bus.kernel.clock.now,
            source=self.name,
        )
        self._tx_buffers[slot] = message
        return message

    # ------------------------------------------------------------------
    def _take(self, slot: int) -> Optional[Message]:
        return self._tx_buffers.pop(slot, None)

    def _deliver(self, message: Message) -> None:
        if message.source == self.name:
            return
        self.rx_count += 1
        for receiver in self._receivers:
            receiver(message)


class FlexRayBus:
    """A FlexRay cluster driven by the kernel's event queue."""

    def __init__(self, name: str, kernel: Kernel, schedule: FlexRaySchedule) -> None:
        self.name = name
        self.kernel = kernel
        self.schedule = schedule
        self.controllers: Dict[str, FlexRayController] = {}
        self.cycle_count = 0
        self.static_frames_sent = 0
        self._started = False

    # ------------------------------------------------------------------
    def attach(self, name: str) -> FlexRayController:
        if name in self.controllers:
            raise FlexRayConfigError(f"duplicate controller {name!r}")
        controller = FlexRayController(name, self)
        self.controllers[name] = controller
        return controller

    def start(self, offset: int = 0) -> None:
        """Begin the TDMA schedule ``offset`` ticks from now."""
        if self._started:
            return
        self._started = True
        self.kernel.queue.schedule(
            self.kernel.clock.now + offset, self._run_cycle, label=f"fr:{self.name}", persistent=True
        )

    # ------------------------------------------------------------------
    def _run_cycle(self) -> None:
        cycle_start = self.kernel.clock.now
        self.cycle_count += 1
        for slot in range(1, self.schedule.static_slots + 1):
            owner = self.schedule.slot_owner.get(slot)
            if owner is None:
                continue
            self.kernel.queue.schedule(
                cycle_start + self.schedule.slot_start_offset(slot)
                + self.schedule.static_slot_length,
                self._make_static_sender(slot, owner),
                label=f"fr:{self.name}:slot{slot}",
                persistent=True,
            )
        self.kernel.queue.schedule(
            cycle_start + self.schedule.cycle_length,
            self._run_cycle,
            label=f"fr:{self.name}",
        )

    def _make_static_sender(self, slot: int, owner: str) -> Callable[[], None]:
        def fire() -> None:
            controller = self.controllers.get(owner)
            if controller is None:
                return
            message = controller._take(slot)
            if message is None:
                return  # empty slot: null frame on the wire
            controller.tx_count += 1
            self.static_frames_sent += 1
            self._broadcast(message, f"slot{slot}")

        return fire

    def _broadcast(self, message: Message, where: str) -> None:
        self.kernel.trace.record(
            self.kernel.clock.now,
            TraceKind.CUSTOM,
            f"fr:{self.name}",
            event="frame",
            frame=message.spec.name,
            where=where,
        )
        for controller in self.controllers.values():
            controller._deliver(message)
