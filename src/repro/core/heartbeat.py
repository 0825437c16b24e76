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

Check strategies
----------------

Runnable names are interned to integer slots at configuration time and
the counters live in flat slot-indexed arrays
(:class:`~repro.core.counters.SlotCounterArrays`).  Two strategies
decide which slots a check cycle visits:

* ``"wheel"`` (default) — an *expiry wheel*: each runnable's aliveness
  and arrival-rate deadlines are bucketed by the absolute cycle index
  at which they next expire.  A check cycle pops only the buckets that
  are due, judges those slots, and re-arms them one period ahead.
  Per-cycle cost is proportional to the number of *due* checks, not to
  the number of monitored runnables.
* ``"scan"`` — the original implementation: visit every active slot on
  every cycle, increment CCA/CCAR, and check whichever period expired.
  O(runnables) per cycle; kept as the behavioral reference (the two
  strategies are differential-tested for bit-for-bit equal error
  streams).
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional

from ..telemetry import NULL_REGISTRY
from .counters import SlotCounterArrays
from .hypothesis import FaultHypothesis, RunnableHypothesis
from .reports import ErrorType, RunnableError

ErrorListener = Callable[[RunnableError], None]

#: Sentinel deadline for a disarmed (deactivated) wheel entry.
_DISARMED = -1

#: A wheel entry is ``slot << 1 | kind``: both deadline kinds share one
#: bucket map, so a slot whose two periods are equal costs one bucket.
_ALIVE, _ARRIVAL = 0, 1

#: Check cycles between automatic telemetry syncs.  Folding the
#: plain-int tallies into registry counters costs several instrument
#: updates, so it is batched; exporters force a sync before rendering.
_TM_SYNC_INTERVAL = 16


class HeartbeatMonitoringUnit:
    """Aliveness and arrival-rate monitoring of independent runnables."""

    __slots__ = (
        "hypothesis", "eager_arrival_detection", "strategy", "_listeners",
        "cycle_count", "heartbeat_count", "unknown_heartbeats",
        "slots_visited", "counter_resets", "slot_of", "names", "_hyps",
        "counters", "_alive_base", "_arr_base", "_alive_due", "_arr_due",
        "_wheel", "telemetry", "_tm_enabled",
        "_tm_cycle_seconds", "_tm_cycles", "_tm_heartbeats", "_tm_unknown",
        "_tm_slots", "_tm_resets", "_tm_monitored", "_tm_synced",
        "_tm_cycles_unsynced",
    )

    def __init__(
        self,
        hypothesis: FaultHypothesis,
        *,
        eager_arrival_detection: bool = False,
        strategy: str = "wheel",
        telemetry=None,
    ) -> None:
        if strategy not in ("wheel", "scan"):
            raise ValueError(f"unknown check strategy {strategy!r} "
                             "(expected 'wheel' or 'scan')")
        self.hypothesis = hypothesis
        self.eager_arrival_detection = eager_arrival_detection
        self.strategy = strategy
        self._listeners: List[ErrorListener] = []
        self.cycle_count = 0
        self.heartbeat_count = 0
        self.unknown_heartbeats = 0
        #: Cumulative number of slots examined by check cycles — the
        #: instrumentation hook for the cycle-cost experiments: with the
        #: scan strategy this grows by the number of active runnables
        #: every cycle, with the wheel strategy only by the number of
        #: *due* ones.
        self.slots_visited = 0
        #: Cumulative number of window-counter resets (an AC reset at
        #: each aliveness-period expiry, an ARC reset at each
        #: arrival-period expiry or eager detection).  A plain int like
        #: ``slots_visited`` so the tally is strategy-independent and
        #: free even without telemetry.
        self.counter_resets = 0
        # Slot interning is configuration, shared read-only by every
        # unit built from this hypothesis; only the counters are ours.
        tables = hypothesis.static_tables()
        #: Interned slot index per runnable name (configuration-time).
        self.slot_of: Dict[str, int] = tables.slot_of
        #: Slot index → runnable name / hypothesis (flat, slot-ordered).
        self.names: List[str] = tables.names
        self._hyps: List[RunnableHypothesis] = tables.hyps
        self.counters = SlotCounterArrays()
        for hyp in self._hyps:
            self.counters.add_slot(active=hyp.active)
        # Wheel bookkeeping (maintained even under the scan strategy so
        # the strategy could be flipped between cycles if ever needed;
        # the cost is two ints per slot).
        self._alive_base: List[int] = [0] * len(self.names)
        self._arr_base: List[int] = [0] * len(self.names)
        self._alive_due: List[int] = [_DISARMED] * len(self.names)
        self._arr_due: List[int] = [_DISARMED] * len(self.names)
        #: Due cycle → wheel entries (``slot << 1 | kind``) expiring then.
        self._wheel: Dict[int, List[int]] = {}
        for slot in range(len(self.names)):
            if self.counters.active[slot]:
                self._arm_slot(slot)
        # Telemetry: high-frequency tallies stay plain ints on the hot
        # path and are folded into registry counters once per check
        # cycle (sync_telemetry); only the cycle-duration histogram is
        # measured live, gated on ``enabled``.
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        self._tm_enabled = self.telemetry.enabled
        tm = self.telemetry
        self._tm_cycle_seconds = tm.histogram(
            "wd_hbm_cycle_duration_seconds",
            "Wall-clock cost of one HBM check cycle",
            strategy=strategy,
        )
        self._tm_cycles = tm.counter(
            "wd_hbm_check_cycles_total", "HBM check cycles executed")
        self._tm_heartbeats = tm.counter(
            "wd_hbm_heartbeats_total", "Aliveness indications accepted")
        self._tm_unknown = tm.counter(
            "wd_hbm_unknown_heartbeats_total",
            "Heartbeats carrying an unknown runnable identifier")
        self._tm_slots = tm.counter(
            "wd_hbm_slots_checked_total",
            "Runnable slots judged due and checked")
        self._tm_resets = tm.counter(
            "wd_hbm_counter_resets_total",
            "AC/ARC window counter resets at period expiry")
        # Units sharing a registry (a daemon's fleet) share this series,
        # so each contributes deltas and the gauge sums over the fleet.
        self._tm_monitored = tm.gauge(
            "wd_hbm_active_runnables",
            "Runnables with Activation Status true")
        self._tm_monitored.inc(sum(1 for a in self.counters.active if a))
        #: Last-synced values of (cycles, heartbeats, unknown, slots, resets).
        self._tm_synced = (0, 0, 0, 0, 0)
        self._tm_cycles_unsynced = 0

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
        if self.counters.active[slot] != active:
            self.counters.active[slot] = active
            self.counters.reset_slot(slot)
            self._tm_monitored.inc(1 if active else -1)
            if active:
                self._arm_slot(slot)
            else:
                self._disarm_slot(slot)

    def activation_status(self, runnable: str) -> bool:
        """Current AS value."""
        return self.counters.active[self._slot_for(runnable)]

    def slot_active(self, slot: int) -> bool:
        """AS value of an interned slot (hot-path accessor)."""
        return self.counters.active[slot]

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
        arrays.
        """
        counters = self.counters
        if not counters.active[slot]:
            return
        self.heartbeat_count += 1
        counters.ac[slot] += 1
        counters.arc[slot] += 1
        if self.eager_arrival_detection:
            hyp = self._hyps[slot]
            if counters.arc[slot] > hyp.max_heartbeats:
                self._emit(
                    RunnableError(
                        time=time,
                        runnable=self.names[slot],
                        task=task if task is not None else hyp.task,
                        error_type=ErrorType.ARRIVAL_RATE,
                        details={"arc": counters.arc[slot],
                                 "max": hyp.max_heartbeats,
                                 "eager": True},
                        runnable_id=slot,
                    )
                )
                # Only ARC restarts: the arrival *window* (CCAR / the
                # wheel deadline) keeps its configured boundary, so an
                # eager detection does not silently lengthen subsequent
                # windows.
                counters.arc[slot] = 0
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
        impl = self._cycle_scan if self.strategy == "scan" else self._cycle_wheel
        if self._tm_enabled:
            begin = perf_counter()
            errors = impl(time)
            self._tm_cycle_seconds.observe(perf_counter() - begin)
            # Folding the plain-int tallies into the registry costs a
            # few instrument updates, so it is amortized over a batch of
            # cycles; counter freshness at render time comes from the
            # explicit sync the exporters perform.
            self._tm_cycles_unsynced += 1
            if self._tm_cycles_unsynced >= _TM_SYNC_INTERVAL:
                self.sync_telemetry()
        else:
            errors = impl(time)
        for error in errors:
            self._emit(error)
        return errors

    def sync_telemetry(self) -> None:
        """Fold the plain-int tallies into the registry counters.

        Runs automatically every ``_TM_SYNC_INTERVAL`` check cycles when
        a live registry is attached; call it directly before rendering
        metrics so the counters include the tail of the run."""
        if not self._tm_enabled:
            return
        self._tm_cycles_unsynced = 0
        last = self._tm_synced
        self._tm_cycles.inc(self.cycle_count - last[0])
        self._tm_heartbeats.inc(self.heartbeat_count - last[1])
        self._tm_unknown.inc(self.unknown_heartbeats - last[2])
        self._tm_slots.inc(self.slots_visited - last[3])
        self._tm_resets.inc(self.counter_resets - last[4])
        self._tm_synced = (
            self.cycle_count, self.heartbeat_count, self.unknown_heartbeats,
            self.slots_visited, self.counter_resets,
        )

    def _cycle_scan(self, time: int) -> List[RunnableError]:
        """Reference implementation: visit every active slot."""
        counters = self.counters
        errors: List[RunnableError] = []
        for slot, hyp in enumerate(self._hyps):
            if not counters.active[slot]:
                continue
            self.slots_visited += 1
            counters.cca[slot] += 1
            counters.ccar[slot] += 1
            if counters.cca[slot] >= hyp.aliveness_period:
                if counters.ac[slot] < hyp.min_heartbeats:
                    errors.append(self._aliveness_error(slot, hyp, time))
                counters.ac[slot] = 0
                counters.cca[slot] = 0
                self.counter_resets += 1
            if counters.ccar[slot] >= hyp.arrival_period:
                if counters.arc[slot] > hyp.max_heartbeats:
                    errors.append(self._arrival_error(slot, hyp, time))
                counters.arc[slot] = 0
                counters.ccar[slot] = 0
                self.counter_resets += 1
        return errors

    def _cycle_wheel(self, time: int) -> List[RunnableError]:
        """Expiry-wheel implementation: visit only the due buckets."""
        now = self.cycle_count
        bucket = self._wheel.pop(now, None)
        if not bucket:
            return []
        counters = self.counters
        # A bucket entry is *stale* when the slot was deactivated or
        # re-armed since it was pushed; the deadline arrays are the
        # authority.  ``due`` maps slot → [aliveness_due, arrival_due]
        # so a slot due for both is visited once, aliveness judged
        # first — the same per-runnable order the scan produces.
        due: Dict[int, List[bool]] = {}
        deadlines = (self._alive_due, self._arr_due)  # indexed by kind
        for entry in bucket:
            slot, kind = entry >> 1, entry & 1
            if counters.active[slot] and deadlines[kind][slot] == now:
                due.setdefault(slot, [False, False])[kind] = True
        errors: List[RunnableError] = []
        for slot in sorted(due):
            aliveness_due, arrival_due = due[slot]
            hyp = self._hyps[slot]
            self.slots_visited += 1
            if aliveness_due:
                if counters.ac[slot] < hyp.min_heartbeats:
                    errors.append(self._aliveness_error(slot, hyp, time))
                counters.ac[slot] = 0
                self.counter_resets += 1
                self._alive_base[slot] = now
                deadline = now + hyp.aliveness_period
                self._alive_due[slot] = deadline
                self._wheel.setdefault(deadline, []).append(slot << 1 | _ALIVE)
            if arrival_due:
                if counters.arc[slot] > hyp.max_heartbeats:
                    errors.append(self._arrival_error(slot, hyp, time))
                counters.arc[slot] = 0
                self.counter_resets += 1
                self._arr_base[slot] = now
                deadline = now + hyp.arrival_period
                self._arr_due[slot] = deadline
                self._wheel.setdefault(deadline, []).append(slot << 1 | _ARRIVAL)
        return errors

    # ------------------------------------------------------------------
    def snapshot(self, runnable: str) -> Dict[str, int]:
        """Current counter values of one runnable (for capture/plots)."""
        slot = self._slot_for(runnable)
        if self.strategy == "scan":
            return self.counters.snapshot(slot)
        if not self.counters.active[slot]:
            return self.counters.snapshot(slot, cca=0, ccar=0)
        # The wheel does not tick CCA/CCAR; derive them from the cycle
        # index at which the period was last (re-)armed.
        return self.counters.snapshot(
            slot,
            cca=self.cycle_count - self._alive_base[slot],
            ccar=self.cycle_count - self._arr_base[slot],
        )

    def snapshot_state(self) -> Dict[str, object]:
        """Full JSON-compatible monitoring state (daemon persistence).

        Captures everything :meth:`restore_state` needs to resume
        monitoring bit-identically on a unit built from the same
        hypothesis: cycle index, tallies, the counter block, and the
        wheel's per-slot period bases and deadlines.  The wheel's bucket
        map is *not* captured — it is derived state, rebuilt from the
        deadline arrays on restore.  ``names`` is the hypothesis's
        shared, never-mutated slot table, returned by reference.
        """
        return {
            "names": self.names,
            "cycle_count": self.cycle_count,
            "heartbeat_count": self.heartbeat_count,
            "unknown_heartbeats": self.unknown_heartbeats,
            "slots_visited": self.slots_visited,
            "counter_resets": self.counter_resets,
            "counters": self.counters.dump_state(),
            "alive_base": list(self._alive_base),
            "arr_base": list(self._arr_base),
            "alive_due": list(self._alive_due),
            "arr_due": list(self._arr_due),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Resume from a :meth:`snapshot_state` capture.

        The unit must have been built from the same hypothesis (same
        slot interning); future check cycles then behave exactly as they
        would have on the captured instance.
        """
        if list(state["names"]) != self.names:
            raise ValueError(
                "snapshot slot layout does not match this unit's "
                "hypothesis (runnable set or order differs)"
            )
        self.cycle_count = int(state["cycle_count"])
        self.heartbeat_count = int(state["heartbeat_count"])
        self.unknown_heartbeats = int(state["unknown_heartbeats"])
        self.slots_visited = int(state["slots_visited"])
        self.counter_resets = int(state["counter_resets"])
        active_before = sum(1 for a in self.counters.active if a)
        self.counters.load_state(state["counters"])
        self._alive_base = [int(v) for v in state["alive_base"]]
        self._arr_base = [int(v) for v in state["arr_base"]]
        self._alive_due = [int(v) for v in state["alive_due"]]
        self._arr_due = [int(v) for v in state["arr_due"]]
        # Rebuild the wheel from the deadline arrays; bucket-internal
        # order is irrelevant (due slots are judged in sorted slot
        # order), so this reconstruction is behavior-identical.
        self._wheel.clear()
        for kind, dues in ((_ALIVE, self._alive_due), (_ARRIVAL, self._arr_due)):
            for slot, deadline in enumerate(dues):
                if deadline != _DISARMED:
                    self._wheel.setdefault(deadline, []).append(slot << 1 | kind)
        # Telemetry: the gauge moves by this unit's change in restored AS
        # flags; the sync marks move to the restored tallies so registry
        # counters only grow by post-restore activity (a restarted
        # daemon's exporters start fresh, they do not re-count the
        # previous process's history).
        self._tm_monitored.inc(
            sum(1 for a in self.counters.active if a) - active_before)
        self._tm_synced = (
            self.cycle_count, self.heartbeat_count, self.unknown_heartbeats,
            self.slots_visited, self.counter_resets,
        )
        self._tm_cycles_unsynced = 0

    def reset(self) -> None:
        """Reset every counter and the cycle count (watchdog restart).

        Activation statuses survive the reset, exactly like before: a
        runnable deactivated by the FMF stays unmonitored until it is
        explicitly reactivated.
        """
        # Fold any unsynced tail first; the registry counters stay
        # monotonic across watchdog restarts, and re-zeroing the sync
        # marks makes future deltas count from the freshly reset ints.
        self.sync_telemetry()
        self.cycle_count = 0
        self.heartbeat_count = 0
        self.unknown_heartbeats = 0
        self.slots_visited = 0
        self.counter_resets = 0
        self._tm_synced = (0, 0, 0, 0, 0)
        self.counters.reset_all()
        self._wheel.clear()
        for slot in range(len(self.names)):
            if self.counters.active[slot]:
                self._arm_slot(slot)
            else:
                self._disarm_slot(slot)

    # ------------------------------------------------------------------
    def _arm_slot(self, slot: int) -> None:
        """Schedule both of a slot's deadlines one period from now."""
        now = self.cycle_count
        hyp = self._hyps[slot]
        self._alive_base[slot] = now
        self._arr_base[slot] = now
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
            details={"ac": self.counters.ac[slot], "min": hyp.min_heartbeats},
            runnable_id=slot,
        )

    def _arrival_error(
        self, slot: int, hyp: RunnableHypothesis, time: int
    ) -> RunnableError:
        return RunnableError(
            time=time,
            runnable=self.names[slot],
            task=hyp.task,
            error_type=ErrorType.ARRIVAL_RATE,
            details={"arc": self.counters.arc[slot], "max": hyp.max_heartbeats},
            runnable_id=slot,
        )

    def _slot_for(self, runnable: str) -> int:
        slot = self.slot_of.get(runnable)
        if slot is None:
            raise KeyError(f"runnable {runnable!r} is not monitored")
        return slot

    def _emit(self, error: RunnableError) -> None:
        for listener in self._listeners:
            listener(error)
