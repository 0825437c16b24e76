"""Fleet rollup: shard task states into the existing state machine.

The local supervision hierarchy is runnable → task → application → ECU
(the TSI unit); distributed supervision added ECU → vehicle network
(:class:`~repro.core.distributed.RemoteSupervisor`).  The live service
adds one more level with the same semantics: registration → shard →
fleet.  Each registration's watchdog already derives its own ECU state;
the :class:`Fleet` mirrors :meth:`RemoteSupervisor.network_state` and
rolls the worst registration state up into a fleet verdict, emitting
the existing :class:`~repro.core.reports.EcuStateChange` record on
every transition so downstream consumers (the FMF, the DETECTION push
channel, telemetry) see the service exactly like a very large ECU.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.reports import EcuStateChange, MonitorState, RunnableError
from .supervisor import HypothesisCache, Registration, SupervisorShard

__all__ = ["Fleet"]

_STATE_RANK = {
    MonitorState.OK: 0,
    MonitorState.SUSPICIOUS: 1,
    MonitorState.FAULTY: 2,
}


def _worst(states) -> MonitorState:
    worst = MonitorState.OK
    for state in states:
        if _STATE_RANK[state] > _STATE_RANK[worst]:
            worst = state
    return worst


class Fleet:
    """N supervisor shards plus the fleet-level state rollup."""

    def __init__(
        self,
        shards: int = 1,
        *,
        strict: bool = False,
        telemetry=None,
        event_sink=None,
    ) -> None:
        if shards < 1:
            raise ValueError("a fleet needs at least one shard")
        self.shards: List[SupervisorShard] = [
            SupervisorShard(
                index,
                strict=strict,
                telemetry=telemetry,
                event_sink=event_sink,
            )
            for index in range(shards)
        ]
        #: One compile-once cache for the whole fleet: a hypothesis
        #: submitted to any shard is parsed and linted once.
        self.hypotheses = HypothesisCache()
        for shard in self.shards:
            shard.hypotheses = self.hypotheses
        self._shard_of: Dict[str, SupervisorShard] = {}
        self._next_shard = 0
        self.state = MonitorState.OK
        self.state_changes: List[EcuStateChange] = []
        self._fleet_state_listeners: List[Callable[[EcuStateChange], None]] = []
        for shard in self.shards:
            shard.add_detection_listener(self._forward_detection)
            shard.add_task_fault_listener(self._forward_task_fault)
        self._detection_listeners: List[Callable[[str, RunnableError], None]] = []
        self._task_fault_listeners: List[Callable[[str, Any], None]] = []

    # ------------------------------------------------------------------
    # registration routing
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        hypothesis_dict: Dict[str, Any],
        *,
        app_of_task: Optional[Dict[str, str]] = None,
    ) -> Registration:
        """Admit (or rebind) one registration, round-robin across shards."""
        shard = self._shard_of.get(name)
        if shard is None:
            shard = self.shards[self._next_shard]
            registration = shard.register(
                name, hypothesis_dict, app_of_task=app_of_task
            )
            # Only claim the slot once the shard admitted the
            # hypothesis — a rejected REGISTER must not skew the
            # round-robin placement of the next client.
            self._shard_of[name] = shard
            self._next_shard = (self._next_shard + 1) % len(self.shards)
            return registration
        return shard.register(name, hypothesis_dict, app_of_task=app_of_task)

    def registration(self, name: str) -> Optional[Registration]:
        shard = self._shard_of.get(name)
        if shard is None:
            return None
        return shard.registrations.get(name)

    def shard_for(self, name: str) -> Optional[SupervisorShard]:
        """The shard hosting ``name`` (``None`` if unregistered)."""
        return self._shard_of.get(name)

    def deregister(self, name: str) -> None:
        self._shard_of[name].deregister(name)

    @property
    def registration_count(self) -> int:
        """Number of registrations across shards, without merging them."""
        return sum(len(shard.registrations) for shard in self.shards)

    @property
    def registrations(self) -> Dict[str, Registration]:
        """All registrations across shards, in registration order."""
        merged: Dict[str, Registration] = {}
        for shard in self.shards:
            merged.update(shard.registrations)
        return merged

    # ------------------------------------------------------------------
    # supervised interfaces
    # ------------------------------------------------------------------
    def heartbeat(
        self, registration: str, runnable: str, time: int,
        task: Optional[str] = None,
    ) -> None:
        shard = self._shard_of.get(registration)
        if shard is not None:
            shard.heartbeat(registration, runnable, time, task)

    def task_start(self, registration: str, task: str) -> None:
        shard = self._shard_of.get(registration)
        if shard is not None:
            shard.task_start(registration, task)

    def tick(self, time: int) -> List[Tuple[str, RunnableError]]:
        """One check cycle over every shard, then the state rollup."""
        errors: List[Tuple[str, RunnableError]] = []
        for shard in self.shards:
            errors.extend(shard.tick(time))
        self._roll_up(time)
        return errors

    # ------------------------------------------------------------------
    # rollup
    # ------------------------------------------------------------------
    def registration_states(self) -> Dict[str, MonitorState]:
        """Each registration's derived ECU state (its local rollup)."""
        return {
            name: entry.watchdog.ecu_state()
            for name, entry in self.registrations.items()
        }

    def task_states(self) -> Dict[str, Dict[str, MonitorState]]:
        """Task states of every registration, keyed by registration."""
        merged: Dict[str, Dict[str, MonitorState]] = {}
        for shard in self.shards:
            merged.update(shard.task_states())
        return merged

    def fleet_state(self) -> MonitorState:
        """Worst state over every registration (the service verdict)."""
        return _worst(self.registration_states().values())

    def _roll_up(self, time: int) -> None:
        new_state = self.fleet_state()
        if new_state is self.state:
            return
        faulty = tuple(
            f"{registration}.{task}"
            for registration, tasks in self.task_states().items()
            for task, state in tasks.items()
            if state is MonitorState.FAULTY
        )
        change = EcuStateChange(
            time=time,
            old_state=self.state,
            new_state=new_state,
            faulty_tasks=faulty,
        )
        self.state = new_state
        self.state_changes.append(change)
        for listener in self._fleet_state_listeners:
            listener(change)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Full JSON-compatible fleet state: every shard's snapshot plus
        the routing table, round-robin cursor and rollup history."""
        return {
            "shards": [shard.snapshot() for shard in self.shards],
            "shard_of": {
                name: shard.index for name, shard in self._shard_of.items()
            },
            "next_shard": self._next_shard,
            "state": self.state.value,
            "state_changes": [
                change.to_dict() for change in self.state_changes
            ],
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Rebuild the fleet from a :meth:`snapshot` capture.

        The shard count must match the captured one — the state
        directory pins the daemon's ``--shards`` topology, because
        registrations were placed (and their indications routed) by
        shard index.  The fleet must be empty.
        """
        if self._shard_of:
            raise ValueError("restore() needs an empty fleet")
        captured = state["shards"]
        if len(captured) != len(self.shards):
            raise ValueError(
                f"snapshot was taken with {len(captured)} shards, this "
                f"daemon runs {len(self.shards)} — restart with the "
                "original --shards value"
            )
        for shard, shard_state in zip(self.shards, captured):
            shard.restore(shard_state)
        self._shard_of = {
            name: self.shards[index]
            for name, index in state["shard_of"].items()
        }
        self._next_shard = int(state["next_shard"]) % len(self.shards)
        self.state = MonitorState(state["state"])
        self.state_changes = [
            EcuStateChange.from_dict(change)
            for change in state["state_changes"]
        ]

    # ------------------------------------------------------------------
    # push channels
    # ------------------------------------------------------------------
    def add_detection_listener(
        self, listener: Callable[[str, RunnableError], None]
    ) -> None:
        """Subscribe to every detection: ``(registration name, error)``."""
        self._detection_listeners.append(listener)

    def add_task_fault_listener(
        self, listener: Callable[[str, Any], None]
    ) -> None:
        self._task_fault_listeners.append(listener)

    def add_fleet_state_listener(
        self, listener: Callable[[EcuStateChange], None]
    ) -> None:
        self._fleet_state_listeners.append(listener)

    def attach_fmf(self, fmf) -> None:
        """Feed detections and task faults into a Fault Management
        Framework instance (observe-only unless it has ECU actions)."""
        self.add_detection_listener(
            lambda _name, error: fmf.on_runnable_error(error)
        )
        self.add_task_fault_listener(
            lambda _name, event: fmf.on_task_fault(event)
        )

    def _forward_detection(self, registration: str, error: RunnableError) -> None:
        for listener in self._detection_listeners:
            listener(registration, error)

    def _forward_task_fault(self, registration: str, event) -> None:
        for listener in self._task_fault_listeners:
            listener(registration, event)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        regs = self.registrations
        return {
            "shards": len(self.shards),
            "registrations": len(regs),
            "active_registrations": sum(1 for r in regs.values() if r.active),
            "indications": sum(r.indications for r in regs.values()),
            "task_starts": sum(r.task_starts for r in regs.values()),
            "detections": sum(r.detections for r in regs.values()),
            "ticks": max((s.tick_count for s in self.shards), default=0),
            "fleet_state": self.state.value,
            "hypotheses_compiled": self.hypotheses.compiles,
            "register_cache_hits": self.hypotheses.hits,
        }
