"""The EASIS architecture validator (hardware-in-the-loop rig, §4.1–4.2).

Assembles the full rig on one shared simulated time base:

* plant: vehicle dynamics + environment simulation,
* networks: chassis CAN, x-by-wire FlexRay, telematics TCP link,
  connected by the gateway node,
* nodes: driving dynamics (publishes sensed state), actuator node
  (applies commands, staleness guard), environment node (commanded speed
  limit over telematics), driver node (handwheel profile), light control
  node (warning lamp),
* the central node — the simulated AutoBox — an :class:`Ecu` hosting
  SafeSpeed, SafeLane and (optionally) the steer-by-wire controller
  under Software Watchdog supervision,
* ControlDesk-style parameter store and capture.

All application I/O travels over the simulated buses; the central ECU
has no direct reference to the vehicle model.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..apps.environment import EnvironmentSimulation, Road, SpeedLimitZone
from ..apps.safelane import SafeLaneApp
from ..apps.safespeed import SafeSpeedApp
from ..apps.steer_by_wire import SteerByWireApp
from ..apps.vehicle import Vehicle
from ..kernel.clock import ms
from ..kernel.scheduler import Kernel
from ..network.can import CanBus
from ..network.flexray import FlexRayBus, FlexRaySchedule
from ..network.frames import Message
from ..network.gateway import Gateway, Route, TcpLink
from ..platform.ecu import Ecu
from ..platform.fmf import FmfPolicy
from ..platform.application import TaskMapping, TaskSpec
from .controldesk import Capture, ParameterStore
from .nodes import (
    ActuatorNode,
    DriverNode,
    DrivingDynamicsNode,
    EnvironmentNode,
    ID_SPEED_COMMAND,
    ID_TELEMATICS_LIMIT,
    LightControlNode,
    SLOT_HANDWHEEL,
    SLOT_ROADWHEEL,
    SLOT_STEER_CMD,
    SignalStore,
    build_validator_catalog,
)

#: Default task configuration of the central node.
SAFESPEED_TASK = "SafeSpeedTask"
SAFELANE_TASK = "SafeLaneTask"
STEERING_TASK = "SteeringTask"


class HilValidator:
    """The complete simulated EASIS validator rig."""

    def __init__(
        self,
        *,
        watchdog_period: int = ms(10),
        include_steering: bool = True,
        fmf_policy: Optional[FmfPolicy] = None,
        fmf_auto_treatment: bool = True,
        road: Optional[Road] = None,
        initial_speed_kph: float = 0.0,
        driver_profile: Optional[Callable[[float], float]] = None,
        eager_arrival_detection: bool = False,
        lint: str = "warn",
        telemetry=None,
        event_sink=None,
    ) -> None:
        self.kernel = Kernel()
        self.catalog = build_validator_catalog()
        self.vehicle = Vehicle()
        self.vehicle.state.speed_mps = initial_speed_kph / 3.6
        self.environment = EnvironmentSimulation(
            road=road
            or Road(
                speed_zones=[
                    SpeedLimitZone(0.0, 100.0),
                    SpeedLimitZone(2000.0, 60.0),
                    SpeedLimitZone(4000.0, 100.0),
                ]
            )
        )

        # --- networks -------------------------------------------------
        self.can = CanBus("chassis", self.kernel, bitrate_bps=500_000)
        self.flexray = FlexRayBus(
            "xbywire",
            self.kernel,
            FlexRaySchedule(
                cycle_length=ms(5),
                static_slots=4,
                static_slot_length=ms(1),
                dynamic_minislots=10,
                minislot_length=100,
            ),
        )
        self.tcp = TcpLink("telematics", self.kernel, latency=ms(2))

        self.flexray.schedule.assign_slot(SLOT_HANDWHEEL, "driver")
        self.flexray.schedule.assign_slot(SLOT_STEER_CMD, "central")
        self.flexray.schedule.assign_slot(SLOT_ROADWHEEL, "dynamics")

        central_can = self.can.attach("central")
        central_fr = self.flexray.attach("central")
        dynamics_can = self.can.attach("dynamics")
        dynamics_fr = self.flexray.attach("dynamics")
        actuator_can = self.can.attach("actuator")
        actuator_fr = self.flexray.attach("actuator")
        driver_fr = self.flexray.attach("driver")
        light_can = self.can.attach("light")
        gateway_can = self.can.attach("gateway")

        # --- gateway: telematics limit -> chassis CAN -------------------
        self.gateway = Gateway("domain-gw", self.kernel, forwarding_latency=100)
        self.gateway.add_tcp_port("tcp", self.tcp)
        self.gateway.add_can_port("can", gateway_can)

        def translate_limit(message: Message):
            return (
                self.catalog.by_name("SpeedCommand"),
                {"limit_kph": message.values()["limit_kph"]},
            )

        self.gateway.add_route(
            Route(
                source_port="tcp",
                frame_id=ID_TELEMATICS_LIMIT,
                destination_port="can",
                translate=translate_limit,
            )
        )

        # --- central node application I/O (bus-facing ports) -----------
        self.central_store = SignalStore()
        central_can.on_receive(self.central_store.ingest)
        central_fr.on_receive(self.central_store.ingest)

        store = self.central_store

        def speed_sensor() -> Tuple[float, float]:
            return (
                store.value("VehicleSpeed", "speed_kph"),
                store.value("SpeedCommand", "limit_kph", default=130.0),
            )

        def speed_actuator(throttle: float, brake: float) -> None:
            central_can.send(
                self.catalog.by_name("ActuatorCmd"),
                {"throttle": throttle, "brake": brake},
            )

        def lane_sensor() -> Tuple[float, float, float]:
            return (
                store.value("LanePosition", "offset_m"),
                store.value("LanePosition", "lat_vel_mps"),
                store.value("LanePosition", "half_width_m", default=1.75),
            )

        def lane_warner(active: bool, side: int) -> None:
            central_can.send(
                self.catalog.by_name("Warning"),
                {"active": 1.0 if active else 0.0, "side": float(side)},
            )

        self.safespeed = SafeSpeedApp(speed_sensor, speed_actuator)
        self.safelane = SafeLaneApp(lane_sensor, lane_warner)

        applications = [
            self.safespeed.build_application(wcets=[1000, 2000, 1000]),
            self.safelane.build_application(wcets=[1000, 1500, 500]),
        ]

        self.steering: Optional[SteerByWireApp] = None
        if include_steering:

            def handwheel() -> float:
                return store.value("Handwheel", "angle_rad")

            def roadwheel() -> float:
                return store.value("RoadWheel", "angle_rad")

            def steer_actuator(angle: float) -> None:
                central_fr.stage(
                    SLOT_STEER_CMD,
                    self.catalog.by_name("SteerCmd"),
                    {"angle_rad": angle},
                )

            self.steering = SteerByWireApp(handwheel, roadwheel, steer_actuator)
            applications.append(
                self.steering.build_application(wcets=[200, 600, 200])
            )

        # --- task mapping of the central node ---------------------------
        mapping = TaskMapping(applications)
        mapping.add_task(TaskSpec(SAFESPEED_TASK, priority=5, period=ms(10)))
        mapping.map_sequence(
            SAFESPEED_TASK, ["GetSensorValue", "SAFE_CC_process", "Speed_process"]
        )
        mapping.add_task(TaskSpec(SAFELANE_TASK, priority=4, period=ms(20)))
        mapping.map_sequence(
            SAFELANE_TASK, ["GetLanePosition", "LDW_process", "Warn_process"]
        )
        if include_steering:
            mapping.add_task(TaskSpec(STEERING_TASK, priority=8, period=ms(5)))
            mapping.map_sequence(
                STEERING_TASK,
                ["ReadHandwheel", "SteeringControl", "ApplySteering"],
            )

        central_can.accept(
            self.catalog.by_name("VehicleSpeed").frame_id,
            self.catalog.by_name("LanePosition").frame_id,
            ID_SPEED_COMMAND,
        )

        self.ecu = Ecu(
            "central",
            mapping,
            kernel=self.kernel,
            watchdog_period=watchdog_period,
            watchdog_check_cost=50,
            fmf_policy=fmf_policy,
            fmf_auto_treatment=fmf_auto_treatment,
            eager_arrival_detection=eager_arrival_detection,
            lint=lint,
            telemetry=telemetry,
            event_sink=event_sink,
        )

        # --- peripheral nodes -------------------------------------------
        self.dynamics_node = DrivingDynamicsNode(
            self.kernel,
            self.vehicle,
            self.environment,
            self.catalog,
            dynamics_can,
            dynamics_fr,
        )
        self.actuator_node = ActuatorNode(
            self.kernel, self.vehicle, self.catalog, actuator_can, actuator_fr
        )
        self.environment_node = EnvironmentNode(
            self.kernel, self.environment, self.vehicle, self.catalog, self.tcp
        )
        self.driver_node = DriverNode(
            self.kernel, self.catalog, driver_fr, profile=driver_profile
        )
        self.light_node = LightControlNode(light_can)

        # --- ControlDesk ------------------------------------------------
        self.parameters = ParameterStore(self.kernel)
        self.capture = Capture(self.kernel, sample_period=ms(10))
        self._register_default_instruments()
        self._started = False

    # ------------------------------------------------------------------
    def _register_default_instruments(self) -> None:
        # --- sliders (the ControlDesk instruments of §4.5) -------------
        # The paper's Figure 5 slider: "a time scalar is connected to a
        # slider instrument to change the execution frequency".
        alarm = self.ecu.alarms.alarms[f"{SAFESPEED_TASK}Alarm"]
        nominal_cycle = alarm.cycle

        def set_scalar(value: float) -> None:
            if value <= 0:
                raise ValueError("time scalar must be > 0")
            new_cycle = max(1, int(round(nominal_cycle * value)))
            if alarm.armed:
                alarm.cancel()
            alarm.set_rel(new_cycle, new_cycle)

        self.parameters.register(
            "safespeed.time_scalar", set_scalar,
            description="SafeSpeed task period multiplier (Figure 5 slider)",
        )

        # --- capture probes ---------------------------------------------
        watchdog = self.ecu.watchdog
        self.capture.add_probe(
            "speed_kph", lambda: self.vehicle.state.speed_kph
        )
        self.capture.add_probe(
            "limit_kph",
            lambda: self.central_store.value("SpeedCommand", "limit_kph", 130.0),
        )
        from ..core.reports import ErrorType, MonitorState

        self.capture.add_probe(
            "AM_Result", lambda: watchdog.detected[ErrorType.ALIVENESS]
        )
        self.capture.add_probe(
            "ARM_Result", lambda: watchdog.detected[ErrorType.ARRIVAL_RATE]
        )
        self.capture.add_probe(
            "PFC_Result", lambda: watchdog.detected[ErrorType.PROGRAM_FLOW]
        )
        self.capture.add_probe(
            "TaskState_SafeSpeed",
            lambda: float(
                watchdog.task_state(SAFESPEED_TASK) is MonitorState.FAULTY
            ),
        )

    def probe_counters(self, runnable: str) -> None:
        """Add AC/CCA/ARC/CCAR probes for one runnable (Figure 5 layout)."""
        watchdog = self.ecu.watchdog
        for key in ("AC", "CCA", "ARC", "CCAR"):
            self.capture.add_probe(
                f"{runnable}.{key}",
                lambda key=key: watchdog.hbm.snapshot(runnable)[key],
            )

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start buses, nodes and capture (idempotent)."""
        if self._started:
            return
        self._started = True
        self.flexray.start()
        self.dynamics_node.start()
        self.actuator_node.start()
        self.environment_node.start()
        self.driver_node.start()
        self.capture.start()

    def run(self, duration: int) -> None:
        """Run the whole rig for ``duration`` ticks."""
        self.start()
        self.kernel.run_for(duration)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Key outcomes for reports and tests."""
        from ..core.reports import ErrorType

        watchdog = self.ecu.watchdog
        return {
            "time_ms": self.kernel.clock.now / 1000.0,
            "vehicle_speed_kph": round(self.vehicle.state.speed_kph, 2),
            "distance_m": round(self.vehicle.state.distance_m, 1),
            "aliveness_errors": watchdog.detected[ErrorType.ALIVENESS],
            "arrival_rate_errors": watchdog.detected[ErrorType.ARRIVAL_RATE],
            "program_flow_errors": watchdog.detected[ErrorType.PROGRAM_FLOW],
            "ecu_state": watchdog.ecu_state().value,
            "can_frames": self.can.delivered_count,
            "flexray_cycles": self.flexray.cycle_count,
            "gateway_forwards": self.gateway.forwarded_count,
            "lamp_activations": self.light_node.activations,
            "resets": len(self.ecu.reset_times),
        }
