"""Fault-tolerant sensing: redundant channels with a median voter.

The validator's "fault-tolerant actuator and sensor nodes" (§4.1) use
channel redundancy.  This module provides the classic 2-out-of-3
arrangement for analogue signals:

* :class:`VotedSensor` — N redundant channel callables, median voting,
  per-channel deviation monitoring with a miscompare threshold, and
  channel lock-out after persistent disagreement,
* the vote degrades gracefully: 3 → 2 channels keeps voting (average),
  a single remaining channel passes through with a degraded flag.

The voter complements the Software Watchdog: the watchdog guarantees
the sensing *runnable executes on schedule*; the voter guarantees the
*value* it reads survives a channel failure.  Tests demonstrate both
layers catching their own fault class and missing the other's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

Channel = Callable[[], float]


@dataclass
class ChannelState:
    """Health bookkeeping for one redundant channel."""

    index: int
    miscompares: int = 0
    consecutive_miscompares: int = 0
    locked_out: bool = False
    last_value: float = 0.0


@dataclass
class VoteResult:
    """Outcome of one voting round."""

    value: float
    healthy_channels: int
    degraded: bool
    miscomparing: List[int] = field(default_factory=list)


class VotedSensor:
    """Median voter over redundant channels with lock-out."""

    def __init__(
        self,
        channels: List[Channel],
        *,
        miscompare_tolerance: float,
        lockout_after: int = 3,
    ) -> None:
        if len(channels) < 2:
            raise ValueError("redundancy needs at least two channels")
        if miscompare_tolerance <= 0:
            raise ValueError("miscompare_tolerance must be > 0")
        if lockout_after < 1:
            raise ValueError("lockout_after must be >= 1")
        self.channels = list(channels)
        self.tolerance = miscompare_tolerance
        self.lockout_after = lockout_after
        self.states = [ChannelState(i) for i in range(len(channels))]
        self.vote_count = 0
        self.last_result: Optional[VoteResult] = None

    # ------------------------------------------------------------------
    def read(self) -> VoteResult:
        """Sample every live channel and vote."""
        self.vote_count += 1
        live: List[ChannelState] = []
        for state, channel in zip(self.states, self.channels):
            if state.locked_out:
                continue
            state.last_value = float(channel())
            live.append(state)

        if not live:
            # Total sensor loss: hold the last vote, flag fully degraded.
            previous = self.last_result.value if self.last_result else 0.0
            result = VoteResult(value=previous, healthy_channels=0, degraded=True)
            self.last_result = result
            return result

        values = sorted(state.last_value for state in live)
        voted = values[len(values) // 2] if len(values) % 2 == 1 else (
            0.5 * (values[len(values) // 2 - 1] + values[len(values) // 2])
        )

        miscomparing: List[int] = []
        for state in live:
            if abs(state.last_value - voted) > self.tolerance:
                state.miscompares += 1
                state.consecutive_miscompares += 1
                miscomparing.append(state.index)
                if state.consecutive_miscompares >= self.lockout_after:
                    state.locked_out = True
            else:
                state.consecutive_miscompares = 0

        result = VoteResult(
            value=voted,
            healthy_channels=sum(1 for s in live if not s.locked_out),
            degraded=len(live) < len(self.channels),
            miscomparing=miscomparing,
        )
        self.last_result = result
        return result

    # ------------------------------------------------------------------
    def locked_out_channels(self) -> List[int]:
        """Indices of channels removed from the vote."""
        return [s.index for s in self.states if s.locked_out]

    def as_channel(self) -> Channel:
        """Adapter: use the voter wherever a plain channel is expected
        (e.g. as a SafeSpeed sensor port component)."""
        return lambda: self.read().value
