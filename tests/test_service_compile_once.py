"""Compile once, supervise many: identical REGISTERs share one compiled
hypothesis and its static tables, and still behave exactly like
independently built watchdogs."""

import gc
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import repro
from repro.core import FaultHypothesis, RunnableHypothesis
from repro.core.config_io import hypothesis_from_dict, hypothesis_to_dict
from repro.core.reports import ErrorType, RunnableError
from repro.service import Fleet, RegistrationError, SupervisorShard
from repro.service.supervisor import build_watchdog
from repro.telemetry import MetricsRegistry

N = 6
CYCLES = 40


def pipeline_dict():
    """Two tasks: a three-runnable flow on T1 and a lone monitor on T2."""
    hyp = FaultHypothesis()
    for name, task in (("read", "T1"), ("calc", "T1"), ("write", "T1"),
                       ("mon", "T2")):
        hyp.add_runnable(RunnableHypothesis(
            name, task=task, aliveness_period=2, min_heartbeats=1,
            arrival_period=2, max_heartbeats=3))
    hyp.allow_sequence(["read", "calc", "write"])
    hyp.allow_flow(None, "mon")
    return hypothesis_to_dict(hyp)


def wide_dict(runnables=4):
    """The shape of a wdbench ``wide_fleet`` registration."""
    hyp = FaultHypothesis()
    for index in range(runnables):
        hyp.add_runnable(RunnableHypothesis(
            f"r{index}", task="T", aliveness_period=50, min_heartbeats=1,
            arrival_period=50, max_heartbeats=20))
    return hypothesis_to_dict(hyp)


def wire(data):
    """A fresh dict per REGISTER, as a decoded frame would carry."""
    return json.loads(json.dumps(data))


def script(index, cycle):
    """The indications registration ``index`` sends in ``cycle``:
    ``(kind, runnable-or-task)`` pairs covering healthy flow, flow
    violations, arrival-rate floods and aliveness silences."""
    steps = [("start", "T1")]
    if index % 2 == 0 and cycle % 7 == 3:
        steps += [("hb", "read"), ("hb", "write"), ("hb", "calc")]
    else:
        steps += [("hb", "read"), ("hb", "calc"), ("hb", "write")]
    silent = index % 3 == 1 and 10 <= cycle < 20
    if not silent:
        steps.append(("hb", "mon"))
    if index % 3 == 0 and cycle == 25:
        steps += [("hb", "mon")] * 6
    return steps


def drive_fleet(fleet, names):
    for cycle in range(CYCLES):
        time = cycle * 1000
        for index, name in enumerate(names):
            for kind, subject in script(index, cycle):
                if kind == "start":
                    fleet.task_start(name, subject)
                else:
                    task = "T2" if subject == "mon" else "T1"
                    fleet.heartbeat(name, subject, time + index, task)
        fleet.tick(time + 999)


def drive_reference(watchdogs):
    for cycle in range(CYCLES):
        time = cycle * 1000
        for index, wd in enumerate(watchdogs):
            for kind, subject in script(index, cycle):
                if kind == "start":
                    wd.notify_task_start(subject)
                else:
                    task = "T2" if subject == "mon" else "T1"
                    wd.heartbeat_indication(subject, time + index, task)
        for wd in watchdogs:
            wd.check_cycle(time + 999)


class TestSharedCompilation:
    def shared_fleet(self):
        fleet = Fleet()
        names = [f"app{i}" for i in range(N)]
        seen = {name: [] for name in names}
        fleet.add_detection_listener(
            lambda name, error: seen[name].append(error.to_dict()))
        for name in names:
            fleet.register(name, wire(pipeline_dict()))
        return fleet, names, seen

    def test_identical_registers_compile_once(self):
        fleet, names, _ = self.shared_fleet()
        assert (fleet.hypotheses.compiles, fleet.hypotheses.hits) == (1, N - 1)
        regs = [fleet.registration(name) for name in names]
        first = regs[0]
        for reg in regs[1:]:
            assert reg.hypothesis is first.hypothesis
            assert reg.hypothesis_dict is first.hypothesis_dict
            assert reg.watchdog.pfc.table is first.watchdog.pfc.table
            assert reg.watchdog.hbm.slot_of is first.watchdog.hbm.slot_of
            assert reg.watchdog.hbm.ac is not first.watchdog.hbm.ac
        stats = fleet.stats()
        assert stats["hypotheses_compiled"] == 1
        assert stats["register_cache_hits"] == N - 1

    def test_bit_identical_to_separately_parsed_watchdogs(self):
        fleet, names, seen = self.shared_fleet()
        reference = [
            build_watchdog(name, hypothesis_from_dict(wire(pipeline_dict())))
            for name in names
        ]
        expected = {name: [] for name in names}
        for name, wd in zip(names, reference):
            wd.add_fault_listener(
                lambda error, _n=name: expected[_n].append(error.to_dict()))
        drive_fleet(fleet, names)
        drive_reference(reference)

        assert seen == expected
        kinds = {e["error_type"] for errors in seen.values() for e in errors}
        assert kinds == {et.value for et in ErrorType}
        assert fleet.task_states() == {
            name: {task: wd.task_state(task)
                   for task in wd.hypothesis.tasks()}
            for name, wd in zip(names, reference)
        }
        for name, wd in zip(names, reference):
            assert (fleet.registration(name).watchdog.snapshot_state()
                    == wd.snapshot_state())

    def test_shared_hypothesis_unchanged_by_supervision(self):
        fleet, names, seen = self.shared_fleet()
        original = pipeline_dict()
        shared = fleet.registration(names[0]).hypothesis
        tables = shared.static_tables()
        task_map = dict(tables.task_of_runnable)
        drive_fleet(fleet, names)
        assert sum(len(errors) for errors in seen.values()) > 50
        # An error naming a runnable outside the hypothesis teaches one
        # TSI unit a new attribution: it must copy, not write through.
        wd = fleet.registration(names[0]).watchdog
        wd.tsi.record_error(RunnableError(
            time=0, runnable="ghost", task="TX",
            error_type=ErrorType.PROGRAM_FLOW))
        assert wd.tsi.task_of_runnable["ghost"] == "TX"
        assert "ghost" not in fleet.registration(names[1]).watchdog.tsi.task_of_runnable

        assert hypothesis_to_dict(shared) == original
        assert shared.static_tables() is tables
        assert tables.task_of_runnable == task_map
        for name in names:
            assert fleet.registration(name).hypothesis_dict == original

    def test_restore_keeps_the_configured_task_map_shared(self):
        """Regression: every restored TSI unit copied the configured
        runnable-to-task map.  A restored registration that learned no
        attribution shares it; one that learned a ghost keeps the entry
        in a map of its own."""
        fleet, names, _ = self.shared_fleet()
        drive_fleet(fleet, names)
        fleet.registration(names[0]).watchdog.tsi.record_error(RunnableError(
            time=0, runnable="ghost", task="TX",
            error_type=ErrorType.PROGRAM_FLOW))
        state = json.loads(json.dumps(fleet.snapshot()))
        revived = Fleet()
        revived.restore(state)
        tables = revived.registration(names[0]).hypothesis.static_tables()
        learned = revived.registration(names[0]).watchdog.tsi
        assert learned.task_of_runnable == {
            **tables.task_of_runnable, "ghost": "TX"}
        assert "ghost" not in tables.task_of_runnable
        for name in names[1:]:
            tsi = revived.registration(name).watchdog.tsi
            assert tsi.task_of_runnable is tables.task_of_runnable
        assert revived.snapshot() == state


class TestAdmissionRules:
    @staticmethod
    def warning_dict():
        # WD202: min_heartbeats=0 is a vacuous aliveness check (warning).
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis("a", task="T", min_heartbeats=0))
        return hypothesis_to_dict(hyp)

    @staticmethod
    def error_dict():
        # WD201: more heartbeats demanded than tolerated (error).
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis(
            "a", task="T", aliveness_period=2, min_heartbeats=10,
            arrival_period=2, max_heartbeats=1))
        return hypothesis_to_dict(hyp)

    def test_strict_fleet_rejects_every_attempt(self):
        fleet = Fleet(strict=True)
        for name in ("p", "q"):
            with pytest.raises(RegistrationError, match="strict"):
                fleet.register(name, wire(self.warning_dict()))
        assert len(fleet.hypotheses) == 0
        assert fleet.hypotheses.compiles == 2

    def test_warning_cache_hit_still_rejected_by_strict_shard(self):
        lenient = SupervisorShard()
        strict = SupervisorShard(strict=True)
        strict.hypotheses = lenient.hypotheses
        registration = lenient.register("p", wire(self.warning_dict()))
        assert any("WD202" in d for d in registration.lint_diagnostics)
        with pytest.raises(RegistrationError, match="strict") as info:
            strict.register("q", wire(self.warning_dict()))
        assert any("WD202" in reason for reason in info.value.reasons)
        # The strict attempt was served from the cache, not recompiled.
        assert lenient.hypotheses.compiles == 1
        assert "q" not in strict.registrations

    def test_lint_error_rejected_on_every_attempt(self):
        fleet = Fleet()
        for attempt in range(3):
            with pytest.raises(RegistrationError, match="WD201"):
                fleet.register(f"p{attempt}", wire(self.error_dict()))
        assert fleet.hypotheses.compiles == 3
        assert len(fleet.hypotheses) == 0
        assert len(fleet.registrations) == 0

    def test_equal_json_but_unequal_dicts_are_not_merged(self):
        fleet = Fleet()
        data = wide_dict(1)
        fleet.register("p", data)
        lookalike = dict(data, runnables=tuple(data["runnables"]))
        fleet.register("q", lookalike)
        assert fleet.hypotheses.compiles == 2
        assert fleet.registration("q").hypothesis_dict == lookalike

    def test_non_json_submission_is_admitted_uncached(self):
        fleet = Fleet()
        data = wide_dict(1)
        data["note"] = {1, 2}  # not JSON-serialisable; ignored by parsing
        fleet.register("p", data)
        fleet.register("q", data)
        assert fleet.hypotheses.compiles == 2
        assert len(fleet.hypotheses) == 0


class TestFleetGauges:
    def test_active_runnables_and_faulty_tasks_sum_over_the_fleet(self):
        registry = MetricsRegistry()
        fleet = Fleet(telemetry=registry)
        hyp = FaultHypothesis()
        for index in range(4):
            hyp.add_runnable(RunnableHypothesis(f"r{index}", task="T"))
        data = hypothesis_to_dict(hyp)
        for name in ("a", "b", "c"):
            fleet.register(name, wire(data))
        assert registry.value("wd_hbm_active_runnables") == 12
        fleet.deregister("a")
        fleet.deregister("b")
        assert registry.value("wd_hbm_active_runnables") == 4
        for cycle in range(3):  # silence: c's task crosses its threshold
            fleet.tick(cycle)
        assert registry.value("wd_tsi_faulty_tasks") == 1
        fleet.register("a", wire(data))  # rebind reactivates
        assert registry.value("wd_hbm_active_runnables") == 8
        for cycle in range(3, 6):
            fleet.tick(cycle)
        assert registry.value("wd_tsi_faulty_tasks") == 2

        restored_registry = MetricsRegistry()
        restored = Fleet(telemetry=restored_registry)
        restored.restore(json.loads(json.dumps(fleet.snapshot())))
        assert restored_registry.value("wd_hbm_active_runnables") == 8
        assert restored_registry.value("wd_tsi_faulty_tasks") == 2


def test_identical_registration_memory_budget():
    """Each additional registration of an already compiled hypothesis
    costs only its run-time state: at most 4 KiB for 4 runnables."""
    data = json.dumps(wide_dict(4))
    fleet = Fleet(telemetry=MetricsRegistry())
    for index in range(3):
        fleet.register(f"warm{index}", json.loads(data))
    count = 200
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(count):
            fleet.register(f"app{index:04d}", json.loads(data))
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    per_registration = (after - before) / count
    assert per_registration <= 4096, f"{per_registration:.0f} B/registration"


_DAEMON_PROBE = r"""
import asyncio, json, sys
import repro.service.cli  # the `python -m repro serve` entry point
from repro.service.protocol import FrameDecoder, T_HELLO, T_REGISTER, encode_frame
from repro.service.server import SupervisionServer

async def main():
    server = SupervisionServer(port=0, tick_interval=None)
    await server.start()
    reader, writer = await asyncio.open_connection(server.host, server.port)
    writer.write(encode_frame(T_HELLO, client="probe")
                 + encode_frame(T_REGISTER, name="p",
                                hypothesis=json.loads(sys.argv[1])))
    await writer.drain()
    decoder, acks = FrameDecoder(), []
    while len(acks) < 2:
        acks.extend(decoder.feed(await reader.read(65536)))
    server.tick()
    writer.close()
    await server.stop()
    return acks[1].get("ok")

ok = asyncio.run(main())
print(json.dumps({"ok": ok, "modules": sorted(sys.modules)}))
"""


def test_daemon_never_loads_the_simulator():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", _DAEMON_PROBE, json.dumps(wide_dict(4))],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["ok"]
    packages = {".".join(m.split(".")[:2]) for m in report["modules"]}
    assert "repro.service" in packages
    assert packages.isdisjoint(
        {"repro.kernel", "repro.network", "repro.platform", "repro.apps"})


def test_lazy_core_names_still_resolve():
    import repro.core as core

    for name in ("RemoteSupervisor", "install_heartbeat_glue",
                 "WatchdogTaskBinding", "make_supervision_frame_spec"):
        assert getattr(core, name).__name__ == name
        assert name in dir(core)
    with pytest.raises(AttributeError):
        core.NoSuchName  # noqa: B018
