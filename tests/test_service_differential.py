"""Differential acceptance: the socket path must equal the direct path.

One indication stream — heartbeats, flow indications, a crash window, a
recovery — is applied twice:

* **direct**: straight into a :func:`repro.service.build_watchdog`
  instance (the same constructor the daemon uses),
* **service**: through the SDK, over a real loopback socket, into the
  daemon (manual-tick mode: every client's ``sync()`` before every
  ``server.tick``).

The detection sequences and final task/ECU states must be
*bit-identical*.  Any divergence means the wire path reorders, drops,
or re-times indications — exactly the class of bug a supervision
service must not have.
"""

import asyncio
import json

import pytest

from repro.core import FaultHypothesis, RunnableHypothesis
from repro.core.config_io import hypothesis_to_dict
from repro.service import (
    Fleet, SupervisionServer, WatchdogClient, build_watchdog,
)
from repro.telemetry import MetricsRegistry


def make_hypothesis(prefix=""):
    hyp = FaultHypothesis()
    hyp.add_runnable(RunnableHypothesis(
        f"{prefix}sense", task=f"{prefix}T", aliveness_period=2,
        min_heartbeats=1, arrival_period=2, max_heartbeats=8))
    hyp.add_runnable(RunnableHypothesis(
        f"{prefix}act", task=f"{prefix}T", aliveness_period=2,
        min_heartbeats=1, arrival_period=2, max_heartbeats=8))
    hyp.allow_sequence([f"{prefix}sense", f"{prefix}act"])
    return hyp


def make_script(prefix=""):
    """One deterministic indication script: (op, *args) tuples plus
    interleaved check cycles.  Covers a healthy phase, a crash window
    (silence), and a recovery phase."""
    script = []
    # Healthy: both runnables heartbeat every cycle.
    for cycle in range(1, 6):
        t = cycle * 10
        script.append(("task_start", f"{prefix}T", t))
        script.append(("hb", f"{prefix}sense", t, f"{prefix}T"))
        script.append(("hb", f"{prefix}act", t + 1, f"{prefix}T"))
        script.append(("tick", t + 5))
    # Crash window: four silent check cycles.
    for cycle in range(6, 10):
        script.append(("tick", cycle * 10))
    # Recovery: heartbeats resume.
    for cycle in range(10, 14):
        t = cycle * 10
        script.append(("task_start", f"{prefix}T", t))
        script.append(("hb", f"{prefix}sense", t, f"{prefix}T"))
        script.append(("hb", f"{prefix}act", t + 1, f"{prefix}T"))
        script.append(("tick", t + 5))
    return script


def snapshot(watchdog, hypothesis):
    tasks = sorted({r.task for r in hypothesis.runnables.values()})
    return {
        "task_states": {
            task: watchdog.tsi.task_state(task) for task in tasks
        },
        "ecu_state": watchdog.tsi.ecu_state(),
    }


def run_direct(prefix=""):
    """Apply the script straight to a build_watchdog() instance."""
    hypothesis = make_hypothesis(prefix)
    watchdog = build_watchdog(f"direct-{prefix or 'p'}", hypothesis)
    detections = []
    watchdog.add_fault_listener(detections.append)
    for step in make_script(prefix):
        if step[0] == "hb":
            watchdog.heartbeat_indication(step[1], step[2], task=step[3])
        elif step[0] == "task_start":
            watchdog.notify_task_start(step[1])
        else:
            watchdog.check_cycle(step[1])
    return {"detections": detections, **snapshot(watchdog, hypothesis)}


async def run_service(names):
    """Apply the same script(s) through SDK + loopback + daemon."""
    server = SupervisionServer(port=0, tick_interval=None)
    await server.start()
    loop = asyncio.get_running_loop()
    detections = {name: [] for name in names}
    server.fleet.add_detection_listener(
        lambda name, error: detections[name].append(error))
    try:
        clients = {}

        def setup(name):
            client = WatchdogClient((server.host, server.port),
                                    client_name=name, batch_size=7)
            client.connect()
            client.register(name, hypothesis_to_dict(make_hypothesis(name)))
            return client

        for name in names:
            clients[name] = await loop.run_in_executor(None, setup, name)

        # Interleave the scripts cycle-aligned: every client sends its
        # indications for a timestamp, then the daemon runs the shared
        # check cycle — the service analogue of one OS schedule round.
        scripts = {name: make_script(name) for name in names}
        for step_index in range(len(next(iter(scripts.values())))):
            tick_at = None
            for name in names:
                step = scripts[name][step_index]
                client = clients[name]
                if step[0] == "hb":
                    await loop.run_in_executor(
                        None, client.heartbeat, step[1], step[2], step[3])
                elif step[0] == "task_start":
                    await loop.run_in_executor(
                        None, client.task_start, step[1], step[2])
                else:
                    tick_at = step[1]
            if tick_at is not None:
                for client in clients.values():
                    assert await loop.run_in_executor(None, client.sync)
                server.tick(tick_at)

        results = {}
        for name in names:
            registration = server.fleet.registration(name)
            results[name] = {
                "detections": detections[name],
                **snapshot(registration.watchdog, registration.hypothesis),
            }
        for client in clients.values():
            await loop.run_in_executor(None, client.close)
        return results
    finally:
        await server.stop()


def assert_identical(direct, service):
    # Bit-identical detection sequence: RunnableError's == compares
    # every field (time, runnable, task, error type, details).
    assert service["detections"] == direct["detections"]
    assert len(service["detections"]) > 0  # the crash window must show
    assert service["task_states"] == direct["task_states"]
    assert service["ecu_state"] == direct["ecu_state"]


class TestDifferential:
    def test_single_registration_serial_shard(self):
        direct = run_direct("p.")
        service = asyncio.run(run_service(["p."]))
        assert_identical(direct, service["p."])

    def test_three_registrations_one_table(self):
        # Three independent processes in one table: each must still
        # equal its own direct run — registrations must not leak state
        # into each other.
        names = ["alpha.", "beta.", "gamma."]
        service = asyncio.run(run_service(names))
        for name in names:
            direct = run_direct(name)
            assert_identical(direct, service[name])

    def test_detection_details_carry_counters(self):
        direct = run_direct("d.")
        service = asyncio.run(run_service(["d."]))
        assert direct["detections"]
        for direct_error, service_error in zip(
                direct["detections"], service["d."]["detections"]):
            assert direct_error.details == service_error.details


async def run_service_crash(name, state_dir, crash_after_ticks):
    """Apply the script through a daemon that is killed mid-script and
    restored from its state directory — the differential proof that a
    restored daemon equals one that never died."""
    loop = asyncio.get_running_loop()
    detections = []
    hook = lambda _name, error: detections.append(error)

    def make_server():
        return SupervisionServer(
            port=0, tick_interval=None,
            state_dir=state_dir, snapshot_interval=None)

    server = make_server()
    await server.start()
    server.fleet.add_detection_listener(hook)

    def setup(port):
        client = WatchdogClient(("127.0.0.1", port), client_name=name,
                                batch_size=7)
        client.connect()
        client.register(name, hypothesis_to_dict(make_hypothesis(name)))
        return client

    client = await loop.run_in_executor(None, setup, server.port)
    ticks = 0
    try:
        for step in make_script(name):
            if step[0] == "hb":
                await loop.run_in_executor(
                    None, client.heartbeat, step[1], step[2], step[3])
            elif step[0] == "task_start":
                await loop.run_in_executor(
                    None, client.task_start, step[1], step[2])
            else:
                assert await loop.run_in_executor(None, client.sync)
                server.tick(step[1])
                ticks += 1
                if ticks == crash_after_ticks:
                    # Crash: snapshot happens to be fresh (the periodic
                    # loop's job in production), then the process dies
                    # without any farewell to its clients.
                    server.write_snapshot()
                    pre_crash = server.fleet.snapshot()
                    await server.stop(save=False)
                    await loop.run_in_executor(
                        None, client._drop_connection)
                    server = make_server()
                    await server.start()
                    # Bit-identical restore: the whole fleet state —
                    # counters mid-window, wheel deadlines, declared
                    # faults, bookkeeping — survives the death.
                    assert server.fleet.snapshot() == pre_crash
                    server.fleet.add_detection_listener(hook)
                    await loop.run_in_executor(None, client.close)
                    client = await loop.run_in_executor(
                        None, setup, server.port)
        registration = server.fleet.registration(name)
        result = {
            "detections": detections,
            **snapshot(registration.watchdog, registration.hypothesis),
        }
        await loop.run_in_executor(None, client.close)
        return result
    finally:
        await server.stop(save=False)


def run_fleet_exports(names, crash_after_ticks=None):
    """Apply the scripts to a :class:`Fleet` on its own registry, each
    registration with a second task ``Q`` whose runnable never misses;
    with ``crash_after_ticks``, the fleet is snapshotted then and the
    rest runs on a fleet restored onto a fresh registry.  Returns the
    exported series and every gauge's value."""
    def build():
        registry = MetricsRegistry()
        return registry, Fleet(telemetry=registry)

    registry, fleet = build()
    for name in names:
        hypothesis = make_hypothesis(name)
        hypothesis.add_runnable(RunnableHypothesis(
            f"{name}steady", task=f"{name}Q", aliveness_period=2,
            min_heartbeats=1, arrival_period=2, max_heartbeats=8))
        fleet.register(name, hypothesis_to_dict(hypothesis), app_of_task={
            f"{name}T": f"{name}app", f"{name}Q": f"{name}steady_app"})
    scripts = [make_script(name) for name in names]
    ticks = 0
    for steps in zip(*scripts):
        for name, step in zip(names, steps):
            if step[0] == "hb":
                fleet.heartbeat(name, step[1], step[2], step[3])
            elif step[0] == "task_start":
                fleet.task_start(name, step[1])
            else:
                fleet.heartbeat(name, f"{name}steady", step[1], f"{name}Q")
        if steps[0][0] == "tick":
            fleet.tick(steps[0][1])
            ticks += 1
            if ticks == crash_after_ticks:
                state = json.loads(json.dumps(fleet.snapshot()))
                registry, fleet = build()
                fleet.restore(state)
    exported = registry.snapshot()["metrics"]
    series = {(family["name"], tuple(sorted(entry["labels"].items())))
              for family in exported for entry in family["series"]}
    gauges = {(family["name"], tuple(sorted(entry["labels"].items()))):
              entry["value"]
              for family in exported if family["type"] == "gauge"
              for entry in family["series"]}
    return series, gauges


class TestCrashRecoveryDifferential:
    def test_restored_fleet_exports_what_one_that_never_died_does(self):
        """The same series, every gauge equal: a task that never erred
        has its state series whether or not the fleet was restored.
        (Counters differ by design: a restored process counts only its
        own work.)"""
        names = ["x.", "y."]
        series, gauges = run_fleet_exports(names)
        assert ("wd_tsi_task_state",
                (("task", "x.Q"), ("watchdog", "x."))) in series
        assert run_fleet_exports(names, crash_after_ticks=7) == (
            series, gauges)

    def test_restored_daemon_equals_one_that_never_died(self, tmp_path):
        """kill mid-crash-window, restore, finish the script: detections
        and final states must equal the uninterrupted direct run."""
        direct = run_direct("c.")
        service = asyncio.run(
            run_service_crash("c.", str(tmp_path), crash_after_ticks=7))
        assert_identical(direct, service)

    def test_crash_in_healthy_phase_also_identical(self, tmp_path):
        direct = run_direct("h.")
        service = asyncio.run(
            run_service_crash("h.", str(tmp_path), crash_after_ticks=3))
        assert_identical(direct, service)
