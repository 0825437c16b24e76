"""Heartbeat Monitoring (HBM) unit — aliveness and arrival-rate checks.

The unit implements the paper's "passive approach to record and monitor
the runnable updates" (§3.2.1): heartbeats arriving from the glue code
merely increment counters; all judging happens in :meth:`cycle`, the
periodic check executed by the watchdog task "shortly before the next
period begins".

Two fault types are detected:

* **aliveness** — fewer heartbeats than ``min_heartbeats`` within one
  aliveness period (runnable blocked / starved / not dispatched),
* **arrival rate** — more heartbeats than ``max_heartbeats`` within one
  arrival-rate period (runnable excessively dispatched).

An optional *eager* arrival-rate mode flags the overflow on the very
heartbeat that exceeds the bound instead of waiting for the period end;
this is the ablation knob for the detection-latency experiment (E3).
An eager detection resets only the Arrival Rate Counter — the period
boundary (CCAR / the wheel deadline) is left untouched, so the arrival
windows stay aligned to ``arrival_period`` exactly as configured.

Runnable names are interned to integer slots at configuration time and
the unit holds each runnable's window state once, in flat slot-indexed
lists: AC (``ac``), ARC (``arc``), AS (``active``) and the two period
deadlines.  A check cycle does not visit every runnable: an *expiry
wheel* buckets each runnable's aliveness and arrival-rate deadlines by
the absolute cycle index at which they next expire, and a cycle pops
only the bucket that is due, judges those slots and re-arms them one
period ahead.  Per-cycle cost is proportional to the number of *due*
checks, not to the number of monitored runnables.  CCA and CCAR are not
stored: a period began one period length before its deadline, so
``CCA = cycle_count - (alive_due - aliveness_period)`` (likewise CCAR).
``tests/reference_model.py`` states the per-cycle semantics the wheel
must reproduce.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..telemetry import NULL_REGISTRY, Sample, rebase
from .hypothesis import FaultHypothesis, RunnableHypothesis
from .reports import ErrorType, RunnableError

ErrorListener = Callable[[RunnableError], None]

#: Sentinel deadline for a disarmed (deactivated) wheel entry.
_DISARMED = -1

#: A wheel entry is ``slot << 1 | kind``: both deadline kinds share one
#: bucket map, so a slot whose two periods are equal costs one bucket.
_ALIVE, _ARRIVAL = 0, 1

#: The unit's tallies (in ``_tallies`` order), then a gauge.
_TM_FAMILIES = (
    ("wd_hbm_check_cycles_total", "counter", "HBM check cycles executed"),
    ("wd_hbm_heartbeats_total", "counter", "Aliveness indications accepted"),
    ("wd_hbm_unknown_heartbeats_total", "counter",
     "Heartbeats carrying an unknown runnable identifier"),
    ("wd_hbm_slots_checked_total", "counter",
     "Runnable slots judged due and checked"),
    ("wd_hbm_counter_resets_total", "counter",
     "AC/ARC window counter resets at period expiry"),
    ("wd_hbm_active_runnables", "gauge",
     "Runnables with Activation Status true"),
)


class HeartbeatMonitoringUnit:
    """Aliveness and arrival-rate monitoring of independent runnables."""

    __slots__ = (
        "hypothesis", "eager_arrival_detection", "_listeners",
        "cycle_count", "heartbeat_count", "unknown_heartbeats",
        "slots_visited", "counter_resets", "slot_of", "names", "_hyps",
        "ac", "arc", "active", "_alive_due", "_arr_due",
        "_wheel", "telemetry", "_tm_enabled", "_tm_cycle_seconds",
        "_tm_base",
    )

    def __init__(
        self,
        hypothesis: FaultHypothesis,
        *,
        eager_arrival_detection: bool = False,
        telemetry=None,
    ) -> None:
        self.hypothesis = hypothesis
        self.eager_arrival_detection = eager_arrival_detection
        self._listeners: List[ErrorListener] = []
        self.cycle_count = 0
        self.heartbeat_count = 0
        self.unknown_heartbeats = 0
        #: Cumulative number of slots examined by check cycles — the
        #: instrumentation hook for the cycle-cost experiments: it grows
        #: by the number of *due* runnables per cycle, not by the number
        #: of monitored ones.
        self.slots_visited = 0
        #: Cumulative number of window-counter resets (an AC reset at
        #: each aliveness-period expiry, an ARC reset at each
        #: arrival-period expiry or eager detection).  A plain int like
        #: ``slots_visited`` so the tally is free even without telemetry.
        self.counter_resets = 0
        # Slot interning is configuration, shared read-only by every
        # unit built from this hypothesis; only the counters are ours.
        tables = hypothesis.static_tables()
        #: Interned slot index per runnable name (configuration-time).
        self.slot_of: Dict[str, int] = tables.slot_of
        #: Slot index → runnable name / hypothesis (flat, slot-ordered).
        self.names: List[str] = tables.names
        self._hyps: List[RunnableHypothesis] = tables.hyps
        slots = len(self._hyps)
        #: Per slot: AC, ARC (heartbeats in the current aliveness /
        #: arrival-rate period) and AS (monitoring enabled).
        self.ac: List[int] = [0] * slots
        self.arc: List[int] = [0] * slots
        self.active: List[bool] = [hyp.active for hyp in self._hyps]
        # Wheel bookkeeping: each slot's period deadlines, and
        # ``_wheel``, due cycle → wheel entries (``slot << 1 | kind``)
        # expiring then.
        self._arm_all()
        # Telemetry: the registry reads the unit (:meth:`_metrics`); only
        # the cycle duration, which no code keeps, is timed here.
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        self._tm_enabled = self.telemetry.enabled
        self._tm_cycle_seconds = self.telemetry.histogram(
            "wd_hbm_cycle_duration_seconds",
            "Wall-clock cost of one HBM check cycle",
        )
        #: Subtracted from :meth:`_tallies` on export (see ``rebase``).
        self._tm_base = (0, 0, 0, 0, 0)
        self.telemetry.add_source(_TM_FAMILIES, self._metrics)

    # ------------------------------------------------------------------
    def add_listener(self, listener: ErrorListener) -> None:
        """Register a sink for detected runnable errors (the TSI unit)."""
        self._listeners.append(listener)

    def set_activation_status(self, runnable: str, active: bool) -> None:
        """Flip the Activation Status (AS) of one runnable's monitoring.

        Deactivating resets the counters so a later reactivation starts
        from a clean monitoring period.

        Raises
        ------
        ValueError
            If ``runnable`` is not part of the fault hypothesis.  Unlike
            :meth:`heartbeat` — which tolerates unknown names because a
            fault can corrupt the identifier a glue routine reports —
            flipping AS is a deliberate configuration act, so a typo
            here must fail loudly.
        """
        slot = self.slot_of.get(runnable)
        if slot is None:
            known = ", ".join(sorted(self.slot_of))
            raise ValueError(
                f"cannot set activation status of unknown runnable "
                f"{runnable!r}; known runnables: {known or '<none>'}"
            )
        if self.active[slot] != active:
            self.active[slot] = bool(active)
            self.ac[slot] = 0
            self.arc[slot] = 0
            if active:
                self._arm_slot(slot)
            else:
                self._disarm_slot(slot)

    def slot_active(self, slot: int) -> bool:
        """AS value of an interned slot (hot-path accessor)."""
        return self.active[slot]

    # ------------------------------------------------------------------
    def heartbeat(self, runnable: str, time: int, task: Optional[str] = None) -> None:
        """Record one aliveness indication from the glue code.

        Unknown runnables are counted but otherwise ignored — the real
        service would receive indications only from configured glue code,
        but fault injection can corrupt the reported identifier.
        """
        slot = self.slot_of.get(runnable)
        if slot is None:
            self.unknown_heartbeats += 1
            return
        self.heartbeat_slot(slot, time, task)

    def heartbeat_slot(self, slot: int, time: int, task: Optional[str] = None) -> None:
        """Heartbeat ingress by interned slot id — the hot path.

        Callers that already resolved the slot (the watchdog facade does
        one dict lookup per indication) go straight to the flat counter
        lists.
        """
        if not self.active[slot]:
            return
        self.heartbeat_count += 1
        self.ac[slot] += 1
        self.arc[slot] += 1
        if self.eager_arrival_detection:
            hyp = self._hyps[slot]
            if self.arc[slot] > hyp.max_heartbeats:
                self._emit(
                    RunnableError(
                        time=time,
                        runnable=self.names[slot],
                        task=task if task is not None else hyp.task,
                        error_type=ErrorType.ARRIVAL_RATE,
                        details={"arc": self.arc[slot],
                                 "max": hyp.max_heartbeats,
                                 "eager": True},
                    )
                )
                # Only ARC restarts: the arrival *window* (CCAR / the
                # wheel deadline) keeps its configured boundary, so an
                # eager detection does not silently lengthen subsequent
                # windows.
                self.arc[slot] = 0
                self.counter_resets += 1

    # ------------------------------------------------------------------
    def cycle(self, time: int) -> List[RunnableError]:
        """One watchdog check cycle ("shortly before the next period
        begins").

        When a period expires the corresponding bound is checked, errors
        are emitted, and the period counters are reset (also on error,
        per the paper).  Returns the errors detected in this cycle.
        """
        self.cycle_count += 1
        if self._tm_enabled:
            begin = perf_counter()
            errors = self._cycle_wheel(time)
            self._tm_cycle_seconds.observe(perf_counter() - begin)
        else:
            errors = self._cycle_wheel(time)
        for error in errors:
            self._emit(error)
        return errors

    def _tallies(self) -> Tuple[int, ...]:
        return (self.cycle_count, self.heartbeat_count,
                self.unknown_heartbeats, self.slots_visited,
                self.counter_resets)

    def _metrics(self) -> Iterator[Sample]:
        """The registry's read of this unit (a telemetry source)."""
        for (name, _kind, _help), tally, base in zip(
                _TM_FAMILIES, self._tallies(), self._tm_base):
            yield name, (), tally - base
        yield "wd_hbm_active_runnables", (), self.active.count(True)

    def _cycle_wheel(self, time: int) -> List[RunnableError]:
        """Expiry-wheel implementation: visit only the due buckets."""
        now = self.cycle_count
        bucket = self._wheel.pop(now, None)
        if not bucket:
            return []
        active, ac, arc = self.active, self.ac, self.arc
        # A bucket entry is *stale* when the slot was deactivated or
        # re-armed since it was pushed; the deadline arrays are the
        # authority.  ``due`` maps slot → [aliveness_due, arrival_due]
        # so a slot due for both is visited once, aliveness judged
        # first; due slots are judged in slot (registration) order.
        due: Dict[int, List[bool]] = {}
        deadlines = (self._alive_due, self._arr_due)  # indexed by kind
        for entry in bucket:
            slot, kind = entry >> 1, entry & 1
            if active[slot] and deadlines[kind][slot] == now:
                due.setdefault(slot, [False, False])[kind] = True
        errors: List[RunnableError] = []
        for slot in sorted(due):
            aliveness_due, arrival_due = due[slot]
            hyp = self._hyps[slot]
            self.slots_visited += 1
            if aliveness_due:
                if ac[slot] < hyp.min_heartbeats:
                    errors.append(self._aliveness_error(slot, hyp, time))
                ac[slot] = 0
                self.counter_resets += 1
                deadline = now + hyp.aliveness_period
                self._alive_due[slot] = deadline
                self._wheel.setdefault(deadline, []).append(slot << 1 | _ALIVE)
            if arrival_due:
                if arc[slot] > hyp.max_heartbeats:
                    errors.append(self._arrival_error(slot, hyp, time))
                arc[slot] = 0
                self.counter_resets += 1
                deadline = now + hyp.arrival_period
                self._arr_due[slot] = deadline
                self._wheel.setdefault(deadline, []).append(slot << 1 | _ARRIVAL)
        return errors

    # ------------------------------------------------------------------
    def snapshot(self, runnable: str) -> Dict[str, int]:
        """Current AC/ARC/CCA/CCAR/AS of one runnable.
        CCA and CCAR are not ticked: they are the cycles since the
        period began, one period length before its deadline, and 0
        while AS is off."""
        slot = self._slot_for(runnable)
        active = self.active[slot]
        if active:
            hyp = self._hyps[slot]
            now = self.cycle_count
            cca = now - (self._alive_due[slot] - hyp.aliveness_period)
            ccar = now - (self._arr_due[slot] - hyp.arrival_period)
        else:
            cca = ccar = 0
        return {
            "AC": self.ac[slot],
            "ARC": self.arc[slot],
            "CCA": cca,
            "CCAR": ccar,
            "AS": int(active),
        }

    def snapshot_state(self) -> Dict[str, object]:
        """Full JSON-compatible monitoring state (daemon persistence).

        Captures everything :meth:`restore_state` needs to resume
        monitoring bit-identically on a unit built from the same
        hypothesis: cycle index, tallies, AC/ARC/AS under ``counters``
        and the wheel's per-slot deadlines.  The wheel's bucket map is
        *not* captured — it is derived state, rebuilt from the deadline
        lists on restore.  ``names`` is the hypothesis's shared,
        never-mutated slot table, returned by reference.
        """
        return {
            "names": self.names,
            "cycle_count": self.cycle_count,
            "heartbeat_count": self.heartbeat_count,
            "unknown_heartbeats": self.unknown_heartbeats,
            "slots_visited": self.slots_visited,
            "counter_resets": self.counter_resets,
            "counters": {
                "ac": list(self.ac),
                "arc": list(self.arc),
                "active": list(self.active),
            },
            "alive_due": list(self._alive_due),
            "arr_due": list(self._arr_due),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Resume from a :meth:`snapshot_state` capture.

        The unit must have been built from the same hypothesis (same
        slot interning); future check cycles then behave exactly as they
        would have on the captured instance.  Captures that also carry
        period bases or CCA/CCAR lists (schemas 1 and 2) restore the
        same way: those keys are derivable and ignored.

        Raises
        ------
        ValueError
            If the slot layout differs, or a per-slot list does not have
            one entry per slot (a runnable without a deadline would
            never be checked again).
        """
        if list(state["names"]) != self.names:
            raise ValueError(
                "snapshot slot layout does not match this unit's "
                "hypothesis (runnable set or order differs)"
            )
        counters = state["counters"]
        per_slot = {
            "ac": counters["ac"], "arc": counters["arc"],
            "active": counters["active"],
            "alive_due": state["alive_due"], "arr_due": state["arr_due"],
        }
        for key, values in per_slot.items():
            if len(values) != len(self.names):
                raise ValueError(
                    f"snapshot has {len(values)} {key!r} entries, this "
                    f"unit has {len(self.names)} slots"
                )
        before = self._tallies()
        self.cycle_count = int(state["cycle_count"])
        self.heartbeat_count = int(state["heartbeat_count"])
        self.unknown_heartbeats = int(state["unknown_heartbeats"])
        self.slots_visited = int(state["slots_visited"])
        self.counter_resets = int(state["counter_resets"])
        self.ac = [int(v) for v in per_slot["ac"]]
        self.arc = [int(v) for v in per_slot["arc"]]
        self.active = [bool(v) for v in per_slot["active"]]
        self._alive_due = [int(v) for v in per_slot["alive_due"]]
        self._arr_due = [int(v) for v in per_slot["arr_due"]]
        self._rebuild_wheel()
        # Exported counters count only this process's work.
        self._tm_base = rebase(self._tm_base, before, self._tallies())

    def reset(self) -> None:
        """Reset every counter and the cycle count (watchdog restart).

        Activation statuses survive the reset, exactly like before: a
        runnable deactivated by the FMF stays unmonitored until it is
        explicitly reactivated.
        """
        before = self._tallies()
        self.cycle_count = 0
        self.heartbeat_count = 0
        self.unknown_heartbeats = 0
        self.slots_visited = 0
        self.counter_resets = 0
        # Exported counters stay monotonic across the reset.
        self._tm_base = rebase(self._tm_base, before, self._tallies())
        slots = len(self._hyps)
        self.ac = [0] * slots
        self.arc = [0] * slots
        self._arm_all()

    # ------------------------------------------------------------------
    def _arm_all(self) -> None:
        """Schedule every active slot's deadlines one period from now,
        disarm the inactive ones, and rebuild the wheel."""
        now = self.cycle_count
        active = self.active
        self._alive_due: List[int] = [
            now + hyp.aliveness_period if on else _DISARMED
            for hyp, on in zip(self._hyps, active)]
        self._arr_due: List[int] = [
            now + hyp.arrival_period if on else _DISARMED
            for hyp, on in zip(self._hyps, active)]
        self._rebuild_wheel()

    def _rebuild_wheel(self) -> None:
        """Derive the bucket map from the deadline arrays.  Order within
        a bucket is irrelevant (due slots are judged in sorted slot
        order), so a rebuilt wheel behaves exactly like the original."""
        wheel: Dict[int, List[int]] = {}
        for kind, dues in ((_ALIVE, self._alive_due), (_ARRIVAL, self._arr_due)):
            for slot, deadline in enumerate(dues):
                if deadline != _DISARMED:
                    wheel.setdefault(deadline, []).append(slot << 1 | kind)
        self._wheel: Dict[int, List[int]] = wheel

    def _arm_slot(self, slot: int) -> None:
        """Schedule both of a slot's deadlines one period from now."""
        now = self.cycle_count
        hyp = self._hyps[slot]
        alive_deadline = now + hyp.aliveness_period
        arr_deadline = now + hyp.arrival_period
        self._alive_due[slot] = alive_deadline
        self._arr_due[slot] = arr_deadline
        self._wheel.setdefault(alive_deadline, []).append(slot << 1 | _ALIVE)
        self._wheel.setdefault(arr_deadline, []).append(slot << 1 | _ARRIVAL)

    def _disarm_slot(self, slot: int) -> None:
        """Invalidate a slot's deadlines (stale wheel entries are
        skipped when their bucket is popped)."""
        self._alive_due[slot] = _DISARMED
        self._arr_due[slot] = _DISARMED

    def _aliveness_error(
        self, slot: int, hyp: RunnableHypothesis, time: int
    ) -> RunnableError:
        return RunnableError(
            time=time,
            runnable=self.names[slot],
            task=hyp.task,
            error_type=ErrorType.ALIVENESS,
            details={"ac": self.ac[slot], "min": hyp.min_heartbeats},
        )

    def _arrival_error(
        self, slot: int, hyp: RunnableHypothesis, time: int
    ) -> RunnableError:
        return RunnableError(
            time=time,
            runnable=self.names[slot],
            task=hyp.task,
            error_type=ErrorType.ARRIVAL_RATE,
            details={"arc": self.arc[slot], "max": hyp.max_heartbeats},
        )

    def _slot_for(self, runnable: str) -> int:
        slot = self.slot_of.get(runnable)
        if slot is None:
            raise KeyError(f"runnable {runnable!r} is not monitored")
        return slot

    def _emit(self, error: RunnableError) -> None:
        for listener in self._listeners:
            listener(error)
