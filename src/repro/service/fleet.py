"""Fleet rollup: registration states into the existing state machine.

The local supervision hierarchy is runnable → task → application → ECU
(the TSI unit); distributed supervision added ECU → vehicle network
(:class:`~repro.core.distributed.RemoteSupervisor`).  The live service
adds one more level with the same semantics: registration → fleet.
Each registration's watchdog already derives its own ECU state; the
:class:`Fleet` mirrors :meth:`RemoteSupervisor.network_state` and
rolls the worst registration state up into a fleet verdict, emitting
the existing :class:`~repro.core.reports.EcuStateChange` record on
every transition so downstream consumers (the DETECTION push channel,
telemetry) see the service exactly like a very large ECU.

:class:`Fleet` *is* the supervision table: a
:class:`~repro.service.supervisor.SupervisorShard` subclass that adds
only the rollup, the rollup's share of :meth:`Fleet.tick`, the fleet
fields of a snapshot and the schema-1 merge on restore.  Registration,
the supervised interfaces and the per-registration listeners are the
table's own.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..core.reports import (
    EcuStateChange,
    MonitorState,
    RunnableError,
    worst_state,
)
from .supervisor import Registration, SupervisorShard

__all__ = ["Fleet"]

class Fleet(SupervisorShard):
    """The supervision table plus the fleet-level state rollup."""

    def __init__(self, **table_options: Any) -> None:
        super().__init__(**table_options)
        self.state = MonitorState.OK
        self._fleet_state_listeners: List[Callable[[EcuStateChange], None]] = []

    def registration(self, name: str) -> Optional[Registration]:
        return self.registrations.get(name)

    def tick(self, time: int) -> List[Tuple[str, RunnableError]]:
        """One check cycle over the table, then the state rollup."""
        errors = super().tick(time)
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

    def fleet_state(self) -> MonitorState:
        """Worst state over every registration (the service verdict)."""
        return worst_state(self.registration_states().values())

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
        for listener in self._fleet_state_listeners:
            listener(change)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Full JSON-compatible fleet state: :meth:`snapshot_stream`
        with its registration records collected into the list."""
        state, records = self.snapshot_stream()
        state["registrations"] = list(records)
        return state

    def snapshot_stream(
            self) -> Tuple[Dict[str, Any], Iterator[Dict[str, Any]]]:
        """The fleet state without its registration list, fixed now,
        and an iterator over that list's records
        (:meth:`SupervisorShard.snapshot_records`), each built when it
        is reached."""
        state = {"tick_count": self.tick_count, "state": self.state.value}
        return state, self.snapshot_records()

    def restore(self, state: Dict[str, Any]) -> None:
        """Rebuild the fleet from a :meth:`snapshot` capture.

        A schema-1 capture holds one table per shard (``shards``).  Its
        registration records are concatenated in shard-index order, the
        order the sharded fleet ticked them in, so detections within a
        cycle keep their order.  The rollup history schemas 1-4 stored
        (``state_changes``) is not read.  The fleet must be empty.
        """
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
        super().restore(table_state)
        self.state = MonitorState(state["state"])

    # ------------------------------------------------------------------
    # push channels
    # ------------------------------------------------------------------
    def add_fleet_state_listener(
        self, listener: Callable[[EcuStateChange], None]
    ) -> None:
        self._fleet_state_listeners.append(listener)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        regs = self.registrations
        return {
            "registrations": len(regs),
            "active_registrations": sum(1 for r in regs.values() if r.active),
            "indications": sum(r.indications for r in regs.values()),
            "task_starts": sum(r.task_starts for r in regs.values()),
            "detections": sum(r.detections for r in regs.values()),
            "ticks": self.tick_count,
            "fleet_state": self.state.value,
            "hypotheses_compiled": self.hypotheses.compiles,
            "register_cache_hits": self.hypotheses.hits,
        }
