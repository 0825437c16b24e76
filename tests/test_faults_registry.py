"""Tests for run specs: the factories that describe one campaign run,
and the one run implementation, ``execute_run``."""

import pickle
import random
from functools import partial

from repro.experiments.coverage import build_coverage_system, standard_fault_specs
from repro.experiments.latency import build_latency_system
from repro.faults import (
    BlockedRunnableFault,
    Campaign,
    CampaignSystem,
    FaultModel,
    FaultTarget,
    InvalidBranchFault,
    LoopCountFault,
    RunSpec,
    TimeScalarFault,
    watchdog_detector,
)
from repro.faults.campaigns import execute_chunk, execute_run
from repro.kernel import ms
from repro.platform import Ecu, FmfPolicy

from testutil import make_safespeed_mapping


class TestSpecs:
    def test_fault_spec_is_a_fault_factory(self):
        """Every catalogue entry is a zero-argument factory that pickles."""
        for factory in standard_fault_specs():
            assert isinstance(factory(), FaultModel)
            assert isinstance(pickle.loads(pickle.dumps(factory))(), FaultModel)

    def test_specs_pickle_round_trip(self):
        """A spec that crossed a process boundary runs to the same result
        (``partial`` has no value equality, so compare the runs)."""
        run = RunSpec(
            system=partial(build_latency_system, eager=True),
            fault=partial(LoopCountFault, "GetSensorValue", 4),
            warmup=ms(300),
            observation=ms(500),
            transient_duration=ms(100),
            seed=7,
        )
        result = execute_run(run)
        assert execute_run(pickle.loads(pickle.dumps(run))) == result
        assert result.detected_by("SW:arrival_rate")

    def test_system_spec_builds_campaign_system(self):
        for build in (build_coverage_system, partial(build_latency_system, eager=True)):
            system = build()
            assert isinstance(system, CampaignSystem)
            assert system.detectors[0].name == "SoftwareWatchdog"


class TestExecuteRun:
    def test_execute_run_matches_chunk(self):
        spec = RunSpec(
            system=build_coverage_system,
            fault=partial(BlockedRunnableFault, "SAFE_CC_process"),
            warmup=ms(300),
            observation=ms(500),
        )
        single = execute_run(spec)
        chunked, durations = execute_chunk([spec, spec])
        assert chunked == [single, single]
        assert len(durations) == 2
        assert single.detected_by("SoftwareWatchdog")


def twin_system():
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


def random_scalar():
    # Draws from ``random``, so two campaigns agree only if each run is
    # seeded the same way.
    return TimeScalarFault("SafeSpeedTask", random.choice([2.0, 3.0, 4.0]))


class TestClosureSpecDifferential:
    """Closures and picklable factories run through the same
    ``execute_run``, in this process or in a worker."""

    def test_closure_campaign_equals_spec_twin(self):
        def local_random_scalar():
            return random_scalar()

        closures = [
            lambda: BlockedRunnableFault("SAFE_CC_process"),
            local_random_scalar,
            lambda: InvalidBranchFault("SafeSpeedTask", 1, "Speed_process"),
            local_random_scalar,
            local_random_scalar,
        ]
        factories = [
            partial(BlockedRunnableFault, "SAFE_CC_process"),
            random_scalar,
            partial(InvalidBranchFault, "SafeSpeedTask", 1, "Speed_process"),
            random_scalar,
            random_scalar,
        ]
        kwargs = dict(warmup=ms(200), observation=ms(600),
                      transient_duration=ms(300))
        by_closure = Campaign(lambda: twin_system(), **kwargs).execute(
            closures, seed=3)
        by_factory = Campaign(twin_system, **kwargs)
        assert by_factory.execute(factories, seed=3).runs == by_closure.runs
        assert by_factory.execute(factories, seed=3, workers=2).runs == \
            by_closure.runs
        assert by_closure.runs[0].detected_by("SoftwareWatchdog")
        # Each run is seeded by its index, so the draws differ per run.
        drawn = {by_closure.runs[i].fault_name for i in (1, 3, 4)}
        assert len(drawn) > 1
