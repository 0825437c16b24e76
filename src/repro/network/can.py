"""CAN bus simulation with identifier-based arbitration.

The model follows CAN 2.0A semantics at message granularity:

* the bus is a broadcast medium; at every bus-idle instant the pending
  frame with the *lowest identifier* wins arbitration (bitwise-dominant
  arbitration collapses to a priority queue at this abstraction level),
* frame transmission occupies the bus for ``bits / bitrate``; the frame
  size model includes the standard overhead (SOF, arbitration, control,
  CRC, ACK, EOF, interframe space) plus worst-case bit stuffing,
* receivers with matching acceptance filters get the message at the end
  of transmission,
* a controller that is *bus-off* sends nothing (a node that dropped off
  the bus).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..kernel.scheduler import Kernel
from .frames import FrameSpec, Message

Receiver = Callable[[Message], None]

#: Fixed protocol overhead of a standard (11-bit id) CAN data frame, bits.
_CAN_FRAME_OVERHEAD_BITS = 47


def can_frame_bits(length_bytes: int, *, worst_case_stuffing: bool = False) -> int:
    """Wire size of a standard CAN data frame in bits."""
    data_bits = length_bytes * 8
    bits = _CAN_FRAME_OVERHEAD_BITS + data_bits
    if worst_case_stuffing:
        # One stuff bit per 4 bits of the stuffed region (34 + data bits).
        bits += (34 + data_bits) // 4
    return bits


class CanController:
    """One node's attachment to a CAN bus."""

    def __init__(self, name: str, bus: "CanBus") -> None:
        self.name = name
        self.bus = bus
        #: Acceptance filter: frame ids this controller receives; empty
        #: set means receive-all (promiscuous).
        self.acceptance: set = set()
        self._receivers: List[Receiver] = []
        self.rx_count = 0
        self.tx_count = 0
        self.bus_off = False

    # ------------------------------------------------------------------
    def accept(self, *frame_ids: int) -> None:
        """Add frame ids to the acceptance filter."""
        self.acceptance.update(frame_ids)

    def on_receive(self, receiver: Receiver) -> None:
        """Register a receive callback (runs in kernel/ISR context)."""
        self._receivers.append(receiver)

    def send(self, spec: FrameSpec, values: Dict[str, float]) -> Optional[Message]:
        """Pack and queue a frame for transmission.

        Returns the queued message, or ``None`` when the controller is
        bus-off (it silently drops, as real hardware does until reset).
        """
        if self.bus_off:
            return None
        message = Message(
            spec=spec,
            payload=spec.pack(values),
            timestamp=self.bus.kernel.clock.now,
            source=self.name,
        )
        self.bus.queue_transmission(self, message)
        return message

    # ------------------------------------------------------------------
    def deliver(self, message: Message) -> None:
        if self.acceptance and message.frame_id not in self.acceptance:
            return
        if message.source == self.name:
            return
        self.rx_count += 1
        for receiver in self._receivers:
            receiver(message)

    def _transmit_succeeded(self) -> None:
        self.tx_count += 1


class CanBus:
    """A broadcast CAN segment shared by several controllers."""

    def __init__(
        self,
        name: str,
        kernel: Kernel,
        *,
        bitrate_bps: int = 500_000,
    ) -> None:
        if bitrate_bps <= 0:
            raise ValueError("bitrate must be > 0")
        self.name = name
        self.kernel = kernel
        self.bitrate_bps = bitrate_bps
        self.controllers: List[CanController] = []
        self._pending: List[tuple] = []  # (frame_id, seq, controller, message)
        self._seq = 0
        self._busy = False
        self.delivered_count = 0
        self.max_pending_seen = 0

    # ------------------------------------------------------------------
    def attach(self, name: str) -> CanController:
        """Attach a new controller to the bus."""
        controller = CanController(name, self)
        self.controllers.append(controller)
        return controller

    def transmission_ticks(self, message: Message) -> int:
        """Bus occupancy of one frame in simulated ticks (µs)."""
        bits = can_frame_bits(message.spec.length_bytes)
        return max(1, (bits * 1_000_000) // self.bitrate_bps)

    # ------------------------------------------------------------------
    def queue_transmission(self, controller: CanController, message: Message) -> None:
        """Enter a frame into arbitration."""
        self._seq += 1
        self._pending.append((message.frame_id, self._seq, controller, message))
        self.max_pending_seen = max(self.max_pending_seen, len(self._pending))
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._pending:
            self._busy = False
            return
        # Arbitration: lowest identifier wins; FIFO within an id.
        self._pending.sort(key=lambda entry: (entry[0], entry[1]))
        frame_id, _seq, controller, message = self._pending.pop(0)
        self._busy = True
        duration = self.transmission_ticks(message)
        self.kernel.queue.schedule(
            self.kernel.clock.now + duration,
            lambda: self._complete(controller, message),
            label=f"can:{self.name}:{frame_id:#x}",
            persistent=True,
        )

    def _complete(self, controller: CanController, message: Message) -> None:
        controller._transmit_succeeded()
        self.delivered_count += 1
        for receiver in self.controllers:
            receiver.deliver(message)
        self._start_next()
