"""Simulated time base for the discrete-event kernel.

All kernel time is integer **microseconds** so that the simulation is
fully deterministic (no floating point drift across platforms).  Helper
constructors are provided to express durations in the units the paper
uses: the ControlDesk plots of the paper have an x-axis "scalar of 10 ms",
so traces are commonly sampled in 10 ms steps.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Number of simulated ticks per microsecond (the base unit IS a microsecond).
TICKS_PER_US = 1
#: Ticks per millisecond.
TICKS_PER_MS = 1_000
#: Ticks per second.
TICKS_PER_S = 1_000_000


def us(value: float) -> int:
    """Duration of ``value`` microseconds in ticks."""
    return int(round(value * TICKS_PER_US))


def ms(value: float) -> int:
    """Duration of ``value`` milliseconds in ticks."""
    return int(round(value * TICKS_PER_MS))


def seconds(value: float) -> int:
    """Duration of ``value`` seconds in ticks."""
    return int(round(value * TICKS_PER_S))


def to_ms(ticks: int) -> float:
    """Convert ticks back to milliseconds (for reports and plots)."""
    return ticks / TICKS_PER_MS


def to_s(ticks: int) -> float:
    """Convert ticks back to seconds (for reports and plots)."""
    return ticks / TICKS_PER_S


@dataclass
class SimClock:
    """Monotonic simulated clock owned by the kernel.

    Only the kernel's event loop may advance the clock; every other
    component reads it.  ``now`` is the current simulation time in ticks.
    """

    now: int = 0

    def advance_to(self, when: int) -> None:
        """Move the clock forward to ``when``.

        Raises ``ValueError`` on any attempt to move backwards, which
        would indicate a corrupted event queue.
        """
        if when < self.now:
            raise ValueError(
                f"clock cannot move backwards: now={self.now}, requested={when}"
            )
        self.now = when
