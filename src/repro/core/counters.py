"""Time series of watchdog counter samples (AC, ARC, CCA, CCAR, AS).

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

The live values are held once, by
:class:`~repro.core.heartbeat.HeartbeatMonitoringUnit` (its
``snapshot()`` reports all five); this module only records samples of
them over time, the raw material of the ControlDesk plots.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class CounterHistory:
    """Time series of counter snapshots, the raw material of the paper's
    ControlDesk plots (Figures 5 and 6)."""

    __slots__ = ("times", "series")

    def __init__(self, times: Optional[List[int]] = None,
                 series: Optional[Dict[str, List[int]]] = None) -> None:
        self.times = [] if times is None else times
        self.series = {} if series is None else series

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
