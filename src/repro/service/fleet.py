"""Fleet rollup: registration states into the existing state machine.

The local supervision hierarchy is runnable → task → application → ECU
(the TSI unit); distributed supervision added ECU → vehicle network
(:class:`~repro.core.distributed.RemoteSupervisor`).  The live service
adds one more level with the same semantics: registration → fleet.
Each registration's watchdog already derives its own ECU state; the
:class:`Fleet` mirrors :meth:`RemoteSupervisor.network_state` and
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
    """The supervision table plus the fleet-level state rollup."""

    def __init__(
        self,
        *,
        strict: bool = False,
        telemetry=None,
        event_sink=None,
    ) -> None:
        self.table = SupervisorShard(
            strict=strict,
            telemetry=telemetry,
            event_sink=event_sink,
        )
        #: Every registration, in registration order (the table's dict).
        self.registrations: Dict[str, Registration] = self.table.registrations
        #: The compile-once cache: a hypothesis is parsed and linted once.
        self.hypotheses: HypothesisCache = self.table.hypotheses
        self.state = MonitorState.OK
        self.state_changes: List[EcuStateChange] = []
        self._fleet_state_listeners: List[Callable[[EcuStateChange], None]] = []

    # ------------------------------------------------------------------
    # registrations
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        hypothesis_dict: Dict[str, Any],
        *,
        app_of_task: Optional[Dict[str, str]] = None,
    ) -> Registration:
        """Admit (or rebind) one registration."""
        return self.table.register(
            name, hypothesis_dict, app_of_task=app_of_task)

    def registration(self, name: str) -> Optional[Registration]:
        return self.registrations.get(name)

    def deregister(self, name: str) -> None:
        self.table.deregister(name)

    # ------------------------------------------------------------------
    # supervised interfaces
    # ------------------------------------------------------------------
    def heartbeat(
        self, registration: str, runnable: str, time: int,
        task: Optional[str] = None,
    ) -> None:
        self.table.heartbeat(registration, runnable, time, task)

    def task_start(self, registration: str, task: str) -> None:
        self.table.task_start(registration, task)

    def tick(self, time: int) -> List[Tuple[str, RunnableError]]:
        """One check cycle over the table, then the state rollup."""
        errors = self.table.tick(time)
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
        return self.table.task_states()

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
        """Full JSON-compatible fleet state: the table's snapshot plus
        the rollup history."""
        state = self.table.snapshot()
        state["state"] = self.state.value
        state["state_changes"] = [
            change.to_dict() for change in self.state_changes
        ]
        return state

    def restore(self, state: Dict[str, Any]) -> None:
        """Rebuild the fleet from a :meth:`snapshot` capture.

        A schema-1 capture holds one table per shard (``shards``).  Its
        registration records are concatenated in shard-index order, the
        order the sharded fleet ticked them in, so detections within a
        cycle keep their order.  The fleet must be empty.
        """
        if self.registrations:
            raise ValueError("restore() needs an empty fleet")
        table_state = state
        if "shards" in state:
            shards = state["shards"]
            table_state = {
                "tick_count": max(
                    (int(shard["tick_count"]) for shard in shards),
                    default=0),
                "registrations": [
                    record for shard in shards
                    for record in shard["registrations"]
                ],
            }
        self.table.restore(table_state)
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
        self.table.add_detection_listener(listener)

    def add_task_fault_listener(
        self, listener: Callable[[str, Any], None]
    ) -> None:
        self.table.add_task_fault_listener(listener)

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

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        regs = self.registrations
        return {
            "registrations": len(regs),
            "active_registrations": sum(1 for r in regs.values() if r.active),
            "indications": sum(r.indications for r in regs.values()),
            "task_starts": sum(r.task_starts for r in regs.values()),
            "detections": sum(r.detections for r in regs.values()),
            "ticks": self.table.tick_count,
            "fleet_state": self.state.value,
            "hypotheses_compiled": self.hypotheses.compiles,
            "register_cache_hits": self.hypotheses.hits,
        }
