"""Summary metrics for campaigns and experiment reports."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from ..faults.campaigns import CampaignResult
from .plots import format_table


@dataclass
class LatencyStats:
    """Distribution summary of detection latencies (ticks)."""

    count: int
    mean: float
    p50: float
    p95: float
    maximum: int

    @classmethod
    def from_values(cls, values: Sequence[int]) -> Optional["LatencyStats"]:
        if not values:
            return None
        ordered = sorted(values)
        return cls(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            p50=percentile(ordered, 50.0),
            p95=percentile(ordered, 95.0),
            maximum=ordered[-1],
        )


def percentile(ordered: Sequence[int], q: float) -> float:
    """Linear-interpolation percentile of a pre-sorted sequence.

    ``q`` must lie in [0, 100]; the endpoints map exactly to the first
    and last element (``rank = (q/100) * (len-1)`` stays inside the
    index range, so neither endpoint nor a duplicate-heavy input can
    index out of bounds).  ``ordered`` only needs ``__len__`` and
    non-negative ``__getitem__``.
    """
    if not len(ordered):
        raise ValueError("empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(math.ceil(rank), len(ordered) - 1)
    if low == high:
        return float(ordered[low])
    weight = rank - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


def coverage_report(result: CampaignResult) -> str:
    """Human-readable coverage × latency table of a campaign."""
    rows = []
    for row in result.coverage_table():
        mean_latency = row["mean_latency"]
        rows.append(
            {
                "fault_class": row["fault_class"],
                "detector": row["detector"],
                "coverage_%": round(100.0 * float(row["coverage"]), 1),
                "mean_latency_ms": (
                    None if mean_latency is None else round(float(mean_latency) / 1000.0, 2)
                ),
                "runs": row["runs"],
            }
        )
    return format_table(
        rows, columns=["fault_class", "detector", "coverage_%", "mean_latency_ms", "runs"]
    )


def latency_stats(
    result: CampaignResult, detector: str, fault_class: Optional[str] = None
) -> Optional[LatencyStats]:
    """Latency distribution of one detector in a campaign."""
    return LatencyStats.from_values(result.latencies(detector, fault_class))
