"""Tests for the picklable run-spec registry."""

import pickle
import random

import pytest

from repro.faults import (
    BlockedRunnableFault,
    Campaign,
    CampaignSystem,
    FaultSpec,
    FaultTarget,
    InvalidBranchFault,
    RunSpec,
    SystemSpec,
    TimeScalarFault,
    register_fault,
    register_system,
    registered_faults,
    registered_systems,
    watchdog_detector,
)
from repro.faults.registry import execute_chunk, execute_run
from repro.kernel import ms
from repro.platform import Ecu, FmfPolicy

from testutil import make_safespeed_mapping


class TestRegistries:
    def test_builtin_faults_registered(self):
        names = registered_faults()
        for expected in ("blocked", "time_scalar", "loop_count", "skip",
                         "invalid_branch", "hb_corrupt", "runaway"):
            assert expected in names

    def test_builtin_systems_registered(self):
        names = registered_systems()
        assert "coverage" in names
        assert "latency" in names

    def test_register_decorator(self):
        @register_fault("test_only_blocked")
        def build(system, runnable):
            return BlockedRunnableFault(runnable)

        assert "test_only_blocked" in registered_faults()
        fault = FaultSpec.of("test_only_blocked", runnable="X").build(None)
        assert isinstance(fault, BlockedRunnableFault)

    def test_unknown_names_raise_with_listing(self):
        with pytest.raises(KeyError, match="nope.*registered"):
            SystemSpec.of("nope").build()
        with pytest.raises(KeyError, match="nope.*registered"):
            FaultSpec.of("nope").build(None)


class TestSpecs:
    def test_fault_spec_is_a_fault_factory(self):
        spec = FaultSpec.of("blocked", runnable="SAFE_CC_process")
        fault = spec(None)
        assert isinstance(fault, BlockedRunnableFault)
        assert fault.runnable == "SAFE_CC_process"

    def test_params_order_insensitive_and_hashable(self):
        a = FaultSpec.of("time_scalar", task="T", scalar=4.0)
        b = FaultSpec.of("time_scalar", scalar=4.0, task="T")
        assert a == b
        assert hash(a) == hash(b)

    def test_specs_pickle_round_trip(self):
        run = RunSpec(
            system=SystemSpec.of("latency", eager=True),
            fault=FaultSpec.of("loop_count", runnable="R", repeat=4),
            warmup=ms(300),
            observation=ms(500),
            transient_duration=ms(100),
            seed=7,
        )
        assert pickle.loads(pickle.dumps(run)) == run

    def test_system_spec_builds_campaign_system(self):
        system = SystemSpec.of("coverage").build()
        assert [d.name for d in system.detectors][0] == "SoftwareWatchdog"


class TestExecuteRun:
    def test_execute_run_matches_chunk(self):
        spec = RunSpec(
            system=SystemSpec.of("coverage"),
            fault=FaultSpec.of("blocked", runnable="SAFE_CC_process"),
            warmup=ms(300),
            observation=ms(500),
        )
        single = execute_run(spec)
        chunked, durations = execute_chunk([spec, spec])
        assert chunked == [single, single]
        assert single.detected_by("SoftwareWatchdog")


def twin_system():
    """A system built by a plain closure, registered below under a name
    so the same builder can also be reached through a SystemSpec."""
    ecu = Ecu(
        "central",
        make_safespeed_mapping(),
        watchdog_period=ms(10),
        fmf_policy=FmfPolicy(ecu_faulty_task_threshold=99,
                             max_app_restarts=10**9),
    )
    return CampaignSystem(
        target=FaultTarget.from_ecu(ecu),
        detectors=[watchdog_detector(ecu.watchdog)],
        run_until=ecu.run_until,
        now=lambda: ecu.now,
    )


def random_scalar(system):
    # Draws from ``random``, so the two paths agree only if each run is
    # seeded the same way.
    return TimeScalarFault("SafeSpeedTask", random.choice([2.0, 3.0, 4.0]))


register_system("test_closure_twin", twin_system)
register_fault("test_random_scalar", random_scalar)


class TestClosureSpecDifferential:
    """Closures and specs run through the same ``execute_run``."""

    def test_closure_campaign_equals_spec_twin(self):
        closures = [
            lambda s: BlockedRunnableFault("SAFE_CC_process"),
            random_scalar,
            lambda s: InvalidBranchFault("SafeSpeedTask", 1, "Speed_process"),
            random_scalar,
            random_scalar,
        ]
        specs = [
            FaultSpec.of("blocked", runnable="SAFE_CC_process"),
            FaultSpec.of("test_random_scalar"),
            FaultSpec.of("invalid_branch", chart="SafeSpeedTask", at_step=1,
                         branch_to="Speed_process"),
            FaultSpec.of("test_random_scalar"),
            FaultSpec.of("test_random_scalar"),
        ]
        kwargs = dict(warmup=ms(200), observation=ms(600),
                      transient_duration=ms(300))
        by_closure = Campaign(twin_system, **kwargs).execute(closures, seed=3)
        by_spec = Campaign("test_closure_twin", **kwargs).execute(specs, seed=3)
        assert by_closure.runs == by_spec.runs
        assert by_closure.runs[0].detected_by("SoftwareWatchdog")
        # Each run is seeded by its index, so the draws differ per run.
        drawn = {by_closure.runs[i].fault_name for i in (1, 3, 4)}
        assert len(drawn) > 1
