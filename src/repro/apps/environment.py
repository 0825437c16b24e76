"""Environment simulation: road geometry, speed-limit zones, lane model.

The validator's environment node supplies the externally commanded
maximum speed for SafeSpeed ("a system to automatically limit the
vehicle speed to an externally commanded maximum value") and the lane
geometry SafeLane monitors for departures.

The road is a 1-D arc-length model: piecewise speed-limit zones and
piecewise-constant curvature segments.  Given the vehicle's travelled
distance the environment answers the current limit, the local road
heading and the vehicle's lateral offset from the lane centre.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import List, Optional

from .vehicle import VehicleState


@dataclass(frozen=True)
class SpeedLimitZone:
    """A speed limit applying from ``start_m`` onwards."""

    start_m: float
    limit_kph: float


@dataclass(frozen=True)
class CurvatureSegment:
    """Constant road curvature (1/m) from ``start_m`` onwards."""

    start_m: float
    curvature: float


@dataclass
class Road:
    """Piecewise road description ordered by arc length."""

    speed_zones: List[SpeedLimitZone] = field(default_factory=list)
    curvature_segments: List[CurvatureSegment] = field(default_factory=list)
    lane_width_m: float = 3.5
    length_m: float = 10_000.0

    def __post_init__(self) -> None:
        if not self.speed_zones:
            self.speed_zones = [SpeedLimitZone(0.0, 130.0)]
        if not self.curvature_segments:
            self.curvature_segments = [CurvatureSegment(0.0, 0.0)]
        self.speed_zones.sort(key=lambda z: z.start_m)
        self.curvature_segments.sort(key=lambda s: s.start_m)
        if self.speed_zones[0].start_m > 0:
            self.speed_zones.insert(0, SpeedLimitZone(0.0, 130.0))
        if self.curvature_segments[0].start_m > 0:
            self.curvature_segments.insert(0, CurvatureSegment(0.0, 0.0))

    # ------------------------------------------------------------------
    def speed_limit_at(self, distance_m: float) -> float:
        """Speed limit (km/h) in force at the given arc length."""
        starts = [z.start_m for z in self.speed_zones]
        index = max(0, bisect.bisect_right(starts, distance_m) - 1)
        return self.speed_zones[index].limit_kph

    def heading_at(self, distance_m: float) -> float:
        """Road tangent heading at the given arc length (integrated
        piecewise-constant curvature)."""
        heading = 0.0
        previous = self.curvature_segments[0]
        for segment in self.curvature_segments[1:]:
            if segment.start_m >= distance_m:
                break
            heading += previous.curvature * (segment.start_m - previous.start_m)
            previous = segment
        heading += previous.curvature * (distance_m - previous.start_m)
        return heading


@dataclass
class EnvironmentSimulation:
    """Live environment view used by the sensor node and the apps."""

    road: Road = field(default_factory=Road)
    #: Additional externally commanded speed cap (telematics), km/h;
    #: ``None`` means no external command active.
    commanded_limit_kph: Optional[float] = None

    def effective_speed_limit(self, distance_m: float) -> float:
        """The binding limit: road zone or external command (minimum)."""
        limit = self.road.speed_limit_at(distance_m)
        if self.commanded_limit_kph is not None:
            limit = min(limit, self.commanded_limit_kph)
        return limit

    def lateral_offset(self, state: VehicleState) -> float:
        """Vehicle's lateral offset from the lane centre (m).

        Approximated as the cross-track deviation of the vehicle's
        (x, y) position from a straight reference lane along the road
        heading at the travelled distance.  Positive = left of centre.
        """
        road_heading = self.road.heading_at(state.distance_m)
        # Reference lane point at the same arc length along the road.
        ref_x = state.distance_m * math.cos(road_heading)
        ref_y = state.distance_m * math.sin(road_heading)
        dx = state.x_m - ref_x
        dy = state.y_m - ref_y
        return -dx * math.sin(road_heading) + dy * math.cos(road_heading)
