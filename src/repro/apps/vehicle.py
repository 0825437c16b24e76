"""Longitudinal + lateral vehicle dynamics (the driving-dynamics node).

The EASIS architecture validator contains a "driving dynamics control
[and] environment simulation" node (§4.1) that closes the loop around
the safety applications: SafeSpeed actuates throttle/brake, SafeLane
observes the lane position, steer-by-wire actuates the road wheels.

The model is a standard single-track ("bicycle") vehicle:

* longitudinal: ``m·a = F_drive − F_brake − ½ρc_dA·v² − c_r·m·g``,
* lateral (kinematic bicycle): ``ω = v/L · tan(δ)``, heading and
  position integrate from speed and yaw rate.

It is deliberately simple — the watchdog never sees the physics, only
the timing of the runnables processing it — but it produces realistic
closed-loop signal traffic for the validator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class VehicleParameters:
    """Physical parameters of the simulated vehicle."""

    mass_kg: float = 1500.0
    wheelbase_m: float = 2.7
    max_drive_force_n: float = 6000.0
    max_brake_force_n: float = 12000.0
    drag_coefficient: float = 0.32
    frontal_area_m2: float = 2.2
    rolling_resistance: float = 0.012
    air_density: float = 1.225
    gravity: float = 9.81
    max_steer_rad: float = 0.6

    def drag_force(self, speed_mps: float) -> float:
        """Aerodynamic drag at the given speed."""
        return (
            0.5
            * self.air_density
            * self.drag_coefficient
            * self.frontal_area_m2
            * speed_mps
            * speed_mps
        )

    def rolling_force(self) -> float:
        """Rolling resistance force (speed-independent approximation)."""
        return self.rolling_resistance * self.mass_kg * self.gravity


@dataclass
class VehicleState:
    """Complete dynamic state of the vehicle."""

    x_m: float = 0.0
    y_m: float = 0.0
    heading_rad: float = 0.0
    speed_mps: float = 0.0
    acceleration_mps2: float = 0.0
    yaw_rate_rps: float = 0.0
    steering_rad: float = 0.0
    distance_m: float = 0.0

    @property
    def speed_kph(self) -> float:
        return self.speed_mps * 3.6


@dataclass
class ActuatorCommands:
    """Command interface the actuator node writes into."""

    throttle: float = 0.0  # 0..1
    brake: float = 0.0  # 0..1
    steering_rad: float = 0.0

    def clamp(self, max_steer_rad: float) -> None:
        self.throttle = min(max(self.throttle, 0.0), 1.0)
        self.brake = min(max(self.brake, 0.0), 1.0)
        self.steering_rad = min(max(self.steering_rad, -max_steer_rad), max_steer_rad)


@dataclass
class Vehicle:
    """The integrating vehicle model."""

    params: VehicleParameters = field(default_factory=VehicleParameters)
    state: VehicleState = field(default_factory=VehicleState)
    commands: ActuatorCommands = field(default_factory=ActuatorCommands)
    step_count: int = 0

    def step(self, dt_s: float) -> VehicleState:
        """Integrate the dynamics by ``dt_s`` seconds."""
        if dt_s <= 0:
            raise ValueError("dt must be > 0")
        p, s, c = self.params, self.state, self.commands
        c.clamp(p.max_steer_rad)

        drive = c.throttle * p.max_drive_force_n
        brake = c.brake * p.max_brake_force_n if s.speed_mps > 0 else 0.0
        resistive = p.drag_force(s.speed_mps) + (
            p.rolling_force() if s.speed_mps > 0.01 else 0.0
        )
        force = drive - brake - resistive
        s.acceleration_mps2 = force / p.mass_kg
        new_speed = max(0.0, s.speed_mps + s.acceleration_mps2 * dt_s)

        s.steering_rad = c.steering_rad
        if new_speed > 0.01:
            s.yaw_rate_rps = new_speed / p.wheelbase_m * math.tan(s.steering_rad)
        else:
            s.yaw_rate_rps = 0.0
        s.heading_rad += s.yaw_rate_rps * dt_s
        mean_speed = 0.5 * (s.speed_mps + new_speed)
        s.x_m += mean_speed * math.cos(s.heading_rad) * dt_s
        s.y_m += mean_speed * math.sin(s.heading_rad) * dt_s
        s.distance_m += mean_speed * dt_s
        s.speed_mps = new_speed
        self.step_count += 1
        return s
