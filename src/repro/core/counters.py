"""Watchdog counter set: AC, ARC, CCA, CCAR and AS.

The paper (§3.2.1) assigns five data resources to every monitored
runnable:

* **AC** — Aliveness Counter: heartbeats recorded in the current
  aliveness monitoring period,
* **ARC** — Arrival Rate Counter: heartbeats recorded in the current
  arrival-rate monitoring period,
* **CCA** — Cycle Counter for Aliveness: elapsed watchdog check cycles
  of the current aliveness period,
* **CCAR** — Cycle Counter for Arrival Rate: elapsed watchdog check
  cycles of the current arrival-rate period,
* **AS** — Activation Status: whether monitoring of this runnable is
  currently enabled.

"All of those counters are reset to zero, if the periods defined in the
fault hypothesis expire or an error is detected in the last cycle."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass
class RunnableCounters:
    """The mutable counter state for one monitored runnable."""

    ac: int = 0
    arc: int = 0
    cca: int = 0
    ccar: int = 0
    active: bool = True

    def record_heartbeat(self) -> None:
        """Count one aliveness indication in both period counters."""
        if self.active:
            self.ac += 1
            self.arc += 1

    def reset_aliveness(self) -> None:
        """Start a fresh aliveness monitoring period."""
        self.ac = 0
        self.cca = 0

    def reset_arrival(self) -> None:
        """Start a fresh arrival-rate monitoring period."""
        self.arc = 0
        self.ccar = 0

    def reset_all(self) -> None:
        """Full reset (activation-status change, watchdog restart)."""
        self.reset_aliveness()
        self.reset_arrival()

    def snapshot(self) -> Dict[str, int]:
        """Copy of the counter values (for ControlDesk-style capture)."""
        return {
            "AC": self.ac,
            "ARC": self.arc,
            "CCA": self.cca,
            "CCAR": self.ccar,
            "AS": int(self.active),
        }


class SlotCounterArrays:
    """Flat, slot-indexed counter storage (struct-of-arrays layout).

    The heartbeat monitoring unit interns runnable names to integer
    slots at configuration time and keeps the per-runnable counters in
    parallel flat lists indexed by slot.  This mirrors how the counter
    block would be laid out on the embedded target (one contiguous
    array per counter kind, for cache locality) and removes per-
    heartbeat dict lookups from the hot path — ingress touches
    ``ac[slot]`` / ``arc[slot]`` directly.

    CCA and CCAR are not stored: the check cycle's expiry wheel derives
    them from its re-arm bookkeeping (see :mod:`repro.core.heartbeat`).
    """

    __slots__ = ("ac", "arc", "active")

    def __init__(self, active: Sequence[bool] = ()) -> None:
        """One zeroed slot per entry of ``active`` (its initial AS)."""
        slots = len(active)
        self.ac: List[int] = [0] * slots
        self.arc: List[int] = [0] * slots
        self.active: List[bool] = list(active)

    def __len__(self) -> int:
        return len(self.ac)

    def reset_slot(self, slot: int) -> None:
        """Zero both heartbeat counters of one slot (AS change, restart)."""
        self.ac[slot] = 0
        self.arc[slot] = 0

    def reset_all(self) -> None:
        """Zero the heartbeat counters of every slot (watchdog restart)."""
        for slot in range(len(self.ac)):
            self.reset_slot(slot)

    def dump_state(self) -> Dict[str, List[int]]:
        """Full JSON-compatible copy of every slot's counters and AS.

        The inverse of :meth:`load_state`; together they make the counter
        block persistable, so a restarted supervision daemon resumes the
        exact monitoring windows a killed one was in.  ``cca`` and
        ``ccar`` are always zero lists: they keep the snapshot format of
        the counter block that stored them.
        """
        return {
            "ac": list(self.ac),
            "arc": list(self.arc),
            "cca": [0] * len(self.ac),
            "ccar": [0] * len(self.ac),
            "active": [bool(a) for a in self.active],
        }

    def load_state(self, state: Dict[str, List[int]]) -> None:
        """Overwrite every slot from a :meth:`dump_state` capture.

        The slot layout (count and order) must match — restoring is only
        defined onto a counter block built from the same hypothesis.
        """
        for key in ("ac", "arc", "active"):
            if len(state[key]) != len(self.ac):
                raise ValueError(
                    f"counter state has {len(state[key])} {key!r} slots, "
                    f"this block has {len(self.ac)}"
                )
        self.ac[:] = [int(v) for v in state["ac"]]
        self.arc[:] = [int(v) for v in state["arc"]]
        self.active[:] = [bool(v) for v in state["active"]]


@dataclass
class CounterHistory:
    """Time series of counter snapshots, the raw material of the paper's
    ControlDesk plots (Figures 5 and 6)."""

    times: List[int] = field(default_factory=list)
    series: Dict[str, List[int]] = field(default_factory=dict)

    def capture(self, time: int, values: Dict[str, int]) -> None:
        """Append one sample; keys may vary between calls, gaps are padded."""
        self.times.append(time)
        for key, value in values.items():
            column = self.series.setdefault(key, [0] * (len(self.times) - 1))
            column.append(value)
        for key, column in self.series.items():
            if len(column) < len(self.times):
                column.append(column[-1] if column else 0)

    def column(self, key: str) -> List[int]:
        """The full series recorded for ``key`` (padded to equal length)."""
        return self.series.get(key, [0] * len(self.times))

    def __len__(self) -> int:
        return len(self.times)
