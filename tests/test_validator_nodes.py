"""Tests for the validator node models and the rig frame catalogue."""

import pytest

from repro.apps import EnvironmentSimulation, Road, SpeedLimitZone, Vehicle
from repro.kernel import Kernel, ms, seconds
from repro.network import CanBus, Message
from repro.network.gateway import TcpLink
from repro.validator import SignalStore, build_validator_catalog
from repro.validator.nodes import (
    ActuatorNode,
    DrivingDynamicsNode,
    EnvironmentNode,
    ID_ACTUATOR_CMD,
    ID_VEHICLE_SPEED,
    LightControlNode,
)


@pytest.fixture
def catalog():
    return build_validator_catalog()


class TestCatalog:
    def test_all_frames_defined(self, catalog):
        for name in ("VehicleSpeed", "ActuatorCmd", "SpeedCommand",
                     "LanePosition", "Warning", "Handwheel", "SteerCmd",
                     "RoadWheel", "TelematicsLimit"):
            assert catalog.by_name(name) is not None

    def test_speed_resolution(self, catalog):
        spec = catalog.by_name("VehicleSpeed")
        payload = spec.pack({"speed_kph": 123.45, "accel_mps2": -2.5})
        values = spec.unpack(payload)
        assert values["speed_kph"] == pytest.approx(123.45, abs=0.01)
        assert values["accel_mps2"] == pytest.approx(-2.5, abs=0.002)

    def test_warning_side_encoding(self, catalog):
        spec = catalog.by_name("Warning")
        for side in (-1.0, 0.0, 1.0):
            values = spec.unpack(spec.pack({"active": 1.0, "side": side}))
            assert values["side"] == side


class TestSignalStore:
    def make_message(self, catalog, name="VehicleSpeed", timestamp=5, **values):
        spec = catalog.by_name(name)
        return Message(spec=spec, payload=spec.pack(values), timestamp=timestamp)

    def test_latest_value_semantics(self, catalog):
        store = SignalStore()
        store.ingest(self.make_message(catalog, speed_kph=10.0))
        store.ingest(self.make_message(catalog, speed_kph=20.0, timestamp=9))
        assert store.value("VehicleSpeed", "speed_kph") == pytest.approx(20.0, abs=0.01)
        assert store.received_count == 2

    def test_default_before_first_receipt(self, catalog):
        store = SignalStore()
        assert store.value("VehicleSpeed", "speed_kph", default=99.0) == 99.0

    def test_age(self, catalog):
        store = SignalStore()
        assert store.age("VehicleSpeed", now=100) is None
        store.ingest(self.make_message(catalog, timestamp=40, speed_kph=1.0))
        assert store.age("VehicleSpeed", now=100) == 60


class TestDrivingDynamicsNode:
    def test_publishes_speed_and_lane(self, kernel, catalog):
        can = CanBus("c", kernel)
        tx = can.attach("dyn")
        rx = can.attach("rx")
        store = SignalStore()
        rx.on_receive(store.ingest)
        vehicle = Vehicle()
        vehicle.state.speed_mps = 10.0
        node = DrivingDynamicsNode(
            kernel, vehicle, EnvironmentSimulation(), catalog, tx
        )
        node.start()
        kernel.run_until(ms(50))
        assert store.value("VehicleSpeed", "speed_kph") > 30.0
        assert "LanePosition" in store._latest
        assert vehicle.step_count >= 9

    def test_step_period_respected(self, kernel, catalog):
        can = CanBus("c", kernel)
        node = DrivingDynamicsNode(
            kernel, Vehicle(), EnvironmentSimulation(), catalog,
            can.attach("dyn"), step_period=ms(20),
        )
        node.start()
        kernel.run_until(ms(100))
        assert node.published_count == 5


class TestActuatorNode:
    def test_applies_received_commands(self, kernel, catalog):
        can = CanBus("c", kernel)
        ctrl = can.attach("central")
        act = can.attach("act")
        vehicle = Vehicle()
        ActuatorNode(kernel, vehicle, catalog, act)
        ctrl.send(catalog.by_name("ActuatorCmd"), {"throttle": 0.5, "brake": 0.0})
        kernel.run_until(ms(10))
        assert vehicle.commands.throttle == pytest.approx(0.5, abs=0.01)

    def test_staleness_guard_releases_throttle(self, kernel, catalog):
        """The fault-tolerant actuator node decays to a safe state when
        the command stream dies (the paper's fault-tolerant actuator)."""
        can = CanBus("c", kernel)
        ctrl = can.attach("central")
        act = can.attach("act")
        vehicle = Vehicle()
        node = ActuatorNode(kernel, vehicle, catalog, act, timeout=ms(100))
        node.start()
        ctrl.send(catalog.by_name("ActuatorCmd"), {"throttle": 0.8, "brake": 0.0})
        kernel.run_until(ms(50))
        assert vehicle.commands.throttle > 0.7
        # Command stream stops: guard zeroes the throttle after timeout.
        kernel.run_until(ms(300))
        assert vehicle.commands.throttle == 0.0
        assert node.safe_state_entries == 1


class TestEnvironmentNode:
    def test_sends_effective_limit_over_tcp(self, kernel, catalog):
        env = EnvironmentSimulation(road=Road(speed_zones=[SpeedLimitZone(0, 70)]))
        vehicle = Vehicle()
        tcp = TcpLink("t", kernel, latency=ms(1))
        got = []
        tcp.on_receive(lambda m: got.append(m.values()["limit_kph"]))
        EnvironmentNode(kernel, env, vehicle, catalog, tcp, period=ms(50)).start()
        kernel.run_until(ms(200))
        assert got and got[0] == pytest.approx(70.0, abs=0.01)

    def test_commanded_limit_caps(self, kernel, catalog):
        env = EnvironmentSimulation(road=Road(speed_zones=[SpeedLimitZone(0, 100)]))
        env.commanded_limit_kph = 30.0
        tcp = TcpLink("t", kernel, latency=ms(1))
        got = []
        tcp.on_receive(lambda m: got.append(m.values()["limit_kph"]))
        EnvironmentNode(kernel, env, Vehicle(), catalog, tcp, period=ms(50)).start()
        kernel.run_until(ms(120))
        assert got[-1] == pytest.approx(30.0, abs=0.01)


class TestLightControlNode:
    def test_lamp_follows_warnings(self, kernel, catalog):
        can = CanBus("c", kernel)
        central = can.attach("central")
        light = LightControlNode(can.attach("light"))
        spec = catalog.by_name("Warning")
        central.send(spec, {"active": 1.0, "side": 1.0})
        kernel.run_until(ms(5))
        assert light.lamp_on
        assert light.activations == 1
        central.send(spec, {"active": 0.0, "side": 0.0})
        kernel.run_until(ms(10))
        assert not light.lamp_on
        # Re-activation counts a new rising edge.
        central.send(spec, {"active": 1.0, "side": -1.0})
        kernel.run_until(ms(15))
        assert light.activations == 2
