"""Distributed supervision: watchdogs across ECU borders (outlook).

EASIS targets *Integrated Safety Systems* spanning several ECUs and
vehicle domains.  A local Software Watchdog cannot report the death of
its own ECU — when the node hangs, the reporter hangs with it.  The
paper's outlook ("mapping and application of the Software Watchdog to
meet the individual dependability requirements of different safety
systems") points at exactly this gap, which this module closes:

* :class:`SupervisionPublisher` — runs on a supervised ECU; every local
  watchdog check cycle it broadcasts a *supervision frame* on the bus:
  a node-level heartbeat carrying the derived ECU state and the error
  counts, so peers see both "I am alive" and "how healthy I am",
* :class:`RemoteSupervisor` — runs on a supervising ECU; per peer it
  keeps the same AC/CCA counter pair the local unit keeps per runnable,
  flags **node aliveness** errors when a peer's frames stop arriving,
  and mirrors the peer's self-reported state,
* :func:`make_supervision_frame_spec` — the frame layout (fits a single
  8-byte CAN frame).

The design deliberately reuses the paper's counter semantics at node
granularity: the supervision hierarchy is runnable → task → application
→ ECU (local units) → vehicle network (this module).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..network.frames import FrameSpec, Message, SignalSpec
from .reports import MONITOR_STATE_RANK, ErrorType, MonitorState, worst_state
from .watchdog import SoftwareWatchdog

#: Default CAN identifier region for supervision frames (one id per node).
SUPERVISION_BASE_ID = 0x700

_CODE_STATE = {code: state for state, code in MONITOR_STATE_RANK.items()}


def make_supervision_frame_spec(node_index: int, node_name: str = "") -> FrameSpec:
    """The supervision frame layout for one node.

    Eight bytes: sequence counter, self-reported ECU state, saturating
    error counts per error type, and the count of faulty tasks.
    """
    spec = FrameSpec(
        name=f"Supervision_{node_name or node_index}",
        frame_id=SUPERVISION_BASE_ID + node_index,
        length_bytes=8,
    )
    spec.add_signal(SignalSpec("sequence", 0, 16))
    spec.add_signal(SignalSpec("ecu_state", 16, 2))
    spec.add_signal(SignalSpec("aliveness_errors", 18, 10))
    spec.add_signal(SignalSpec("arrival_errors", 28, 10))
    spec.add_signal(SignalSpec("flow_errors", 38, 10))
    spec.add_signal(SignalSpec("faulty_tasks", 48, 6))
    return spec


class SupervisionPublisher:
    """Broadcasts a node's watchdog state as a bus heartbeat.

    Attach :meth:`publish` to the local watchdog's check cycle (or any
    periodic context).  Publishing from the *watchdog task itself* makes
    the frame a meaningful node heartbeat: if the OS, the scheduler or
    the watchdog die, the stream stops.
    """

    def __init__(
        self,
        watchdog: SoftwareWatchdog,
        spec: FrameSpec,
        send: Callable[[FrameSpec, Dict[str, float]], object],
    ) -> None:
        self.watchdog = watchdog
        self.spec = spec
        self._send = send
        self.sequence = 0
        self.published_count = 0

    def publish(self) -> None:
        """Send one supervision frame reflecting the current state."""
        watchdog = self.watchdog
        self.sequence = (self.sequence + 1) % 0x10000
        self._send(
            self.spec,
            {
                "sequence": float(self.sequence),
                "ecu_state": float(MONITOR_STATE_RANK[watchdog.ecu_state()]),
                "aliveness_errors": float(
                    min(1023, watchdog.detected[ErrorType.ALIVENESS])
                ),
                "arrival_errors": float(
                    min(1023, watchdog.detected[ErrorType.ARRIVAL_RATE])
                ),
                "flow_errors": float(
                    min(1023, watchdog.detected[ErrorType.PROGRAM_FLOW])
                ),
                "faulty_tasks": float(min(63, len(watchdog.tsi.faulty_tasks))),
            },
        )
        self.published_count += 1


@dataclass
class PeerStatus:
    """The supervisor's view of one remote node."""

    node: str
    frame_id: int
    #: node-level aliveness counters (same semantics as the runnable AC/CCA).
    ac: int = 0
    cca: int = 0
    last_sequence: Optional[int] = None
    last_seen: Optional[int] = None
    frames_received: int = 0
    sequence_gaps: int = 0
    reported_state: MonitorState = MonitorState.OK
    reported_errors: Dict[str, int] = field(default_factory=dict)
    #: node aliveness verdict derived by the supervisor.
    alive: bool = True
    node_aliveness_errors: int = 0


@dataclass(frozen=True)
class NodeAlivenessError:
    """Raised by the supervisor when a peer's heartbeat stream starves."""

    time: int
    node: str
    ac: int
    min_frames: int


class RemoteSupervisor:
    """Monitors peer ECUs' supervision-frame streams.

    ``cycle()`` follows the local HBM design: it is called periodically
    (typically from the supervising node's own watchdog task) and checks,
    per peer, that at least ``min_frames`` supervision frames arrived
    within ``check_period`` cycles; the counters then reset — including
    on error, per the paper's counter semantics.
    """

    def __init__(
        self,
        name: str = "RemoteSupervisor",
        *,
        check_period: int = 3,
        min_frames: int = 1,
    ) -> None:
        if check_period < 1 or min_frames < 0:
            raise ValueError("check_period >= 1 and min_frames >= 0 required")
        self.name = name
        self.check_period = check_period
        self.min_frames = min_frames
        self.peers: Dict[str, PeerStatus] = {}
        self._by_frame_id: Dict[int, PeerStatus] = {}
        self._listeners: List[Callable[[NodeAlivenessError], None]] = []
        self.cycle_count = 0

    # ------------------------------------------------------------------
    def watch(self, node: str, frame_id: int) -> PeerStatus:
        """Register a peer node by its supervision frame id."""
        if node in self.peers:
            raise ValueError(f"already watching {node!r}")
        status = PeerStatus(node=node, frame_id=frame_id)
        self.peers[node] = status
        self._by_frame_id[frame_id] = status
        return status

    def add_listener(self, listener: Callable[[NodeAlivenessError], None]) -> None:
        """Subscribe to node-aliveness errors (feeds the local FMF)."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        """Bus receive hook: ingest supervision frames."""
        status = self._by_frame_id.get(message.frame_id)
        if status is None:
            return
        values = message.values()
        sequence = int(values["sequence"])
        if status.last_sequence is not None:
            expected = (status.last_sequence + 1) % 0x10000
            if sequence != expected:
                status.sequence_gaps += 1
        status.last_sequence = sequence
        status.last_seen = message.timestamp
        status.frames_received += 1
        status.ac += 1
        status.reported_state = _CODE_STATE.get(
            int(values["ecu_state"]), MonitorState.FAULTY
        )
        status.reported_errors = {
            "aliveness": int(values["aliveness_errors"]),
            "arrival_rate": int(values["arrival_errors"]),
            "program_flow": int(values["flow_errors"]),
            "faulty_tasks": int(values["faulty_tasks"]),
        }

    def cycle(self, time: int) -> List[NodeAlivenessError]:
        """One supervision check cycle over all peers."""
        self.cycle_count += 1
        errors: List[NodeAlivenessError] = []
        for status in self.peers.values():
            status.cca += 1
            if status.cca >= self.check_period:
                if status.ac < self.min_frames:
                    status.alive = False
                    status.node_aliveness_errors += 1
                    errors.append(
                        NodeAlivenessError(
                            time=time,
                            node=status.node,
                            ac=status.ac,
                            min_frames=self.min_frames,
                        )
                    )
                else:
                    status.alive = True
                status.ac = 0
                status.cca = 0
        for error in errors:
            for listener in self._listeners:
                listener(error)
        return errors

    # ------------------------------------------------------------------
    def peer_state(self, node: str) -> MonitorState:
        """Combined verdict: dead peers are FAULTY regardless of their
        last self-report; live peers report for themselves."""
        status = self.peers[node]
        if not status.alive:
            return MonitorState.FAULTY
        return status.reported_state

    def network_state(self) -> MonitorState:
        """Worst state over every watched peer."""
        return worst_state([self.peer_state(node) for node in self.peers])
