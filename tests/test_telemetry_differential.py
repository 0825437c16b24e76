"""Differential equivalence: telemetry must never perturb behavior.

Observability is read-only.  A run with a live registry and event sink
must produce bit-for-bit the same kernel trace, detections and derived
states as the default (null-registry) run — the instruments only record
what happened, they never change what happens.  Same contract as the
expiry-wheel and parallel-campaign equivalence suites.
"""

from pathlib import Path

import pytest

from repro.core import ErrorType
from repro.core.reports import MONITOR_STATE_RANK
from repro.faults import BlockedRunnableFault, Campaign, ErrorInjector, FaultTarget
from repro.experiments.coverage import standard_fault_specs
from repro.kernel import ms, seconds
from repro.platform import Ecu
from repro.telemetry import InMemorySink, MetricsRegistry

from testutil import make_safespeed_mapping, trace_to_jsonl

#: The sink stream of :func:`run_faulty_ecu`, one record per line.
EVENTS_GOLDEN = Path(__file__).parent / "data" / "faulty_ecu_events.jsonl"


def faulty_ecu(telemetry=None, event_sink=None):
    """One deterministic faulty scenario, armed: a blocked runnable for
    300 ms."""
    ecu = Ecu(
        "central",
        make_safespeed_mapping(),
        watchdog_period=ms(10),
        telemetry=telemetry,
        event_sink=event_sink,
    )
    injector = ErrorInjector(FaultTarget.from_ecu(ecu))
    injector.inject_at(ms(300), BlockedRunnableFault("SAFE_CC_process"),
                       restore_at=ms(600))
    return ecu


def run_faulty_ecu(telemetry=None, event_sink=None):
    ecu = faulty_ecu(telemetry, event_sink)
    ecu.run_until(seconds(1))
    return ecu


@pytest.fixture(scope="module")
def baseline():
    return run_faulty_ecu()


@pytest.fixture(scope="module")
def observed():
    return run_faulty_ecu(telemetry=MetricsRegistry(),
                          event_sink=InMemorySink())


class TestEcuEquivalence:
    def test_kernel_traces_identical(self, baseline, observed):
        base_records = baseline.kernel.trace.filter()
        live_records = observed.kernel.trace.filter()
        assert len(base_records) == len(live_records)
        assert base_records == live_records
        # The serialized form matches too (stable record-by-record).
        assert trace_to_jsonl(baseline.kernel.trace) == trace_to_jsonl(
            observed.kernel.trace
        )

    def test_detections_identical(self, baseline, observed):
        assert observed.watchdog.detected == baseline.watchdog.detected
        assert (observed.watchdog.detected_per_runnable
                == baseline.watchdog.detected_per_runnable)
        assert (observed.watchdog.check_cycle_count
                == baseline.watchdog.check_cycle_count)

    def test_derived_states_identical(self, baseline, observed):
        assert observed.watchdog.ecu_state() is baseline.watchdog.ecu_state()
        assert (observed.watchdog.tsi.error_vectors
                == baseline.watchdog.tsi.error_vectors)

    def test_instruments_agree_with_ground_truth(self, observed):
        registry = observed.watchdog.telemetry
        aliveness = observed.watchdog.detection_count(ErrorType.ALIVENESS)
        # The monotonic counter covers the whole run including any
        # detections wiped by an ECU-reset treatment mid-run.
        assert registry.value("wd_detections_total",
                              error_type="aliveness") >= aliveness
        assert registry.value("wd_detections_total",
                              error_type="aliveness") > 0
        assert aliveness > 0  # the scenario actually exercised detection


class TestEcuEventStream:
    def test_stream_matches_the_pinned_golden(self):
        """Kind, order, time, subject and data of every record —
        detections, task faults, state changes and the FMF's
        treatments — are pinned.  Regenerate the file only for an
        intended change of the stream."""
        sink = InMemorySink()
        run_faulty_ecu(event_sink=sink)
        assert ([event.to_jsonl() for event in sink.events]
                == EVENTS_GOLDEN.read_text(encoding="utf-8").splitlines())


class TestRegistryReadsTheUnits:
    def test_every_cycle_without_a_sync(self):
        """At every check cycle of the faulty run the registry reads
        what the units count.  The ECU-reset treatments restart the HBM
        and TSI tallies while the exported counters stay monotonic, so
        those read the tally plus what the resets carried over."""
        registry = MetricsRegistry()
        ecu = faulty_ecu(telemetry=registry)
        wd = ecu.watchdog
        tallies = {
            "wd_hbm_check_cycles_total": lambda: wd.hbm.cycle_count,
            "wd_hbm_heartbeats_total": lambda: wd.hbm.heartbeat_count,
            "wd_hbm_slots_checked_total": lambda: wd.hbm.slots_visited,
            "wd_tsi_errors_recorded_total": lambda: wd.tsi.errors_recorded,
        }
        carried = dict.fromkeys(tallies, 0)
        resets = 0
        for cycle in range(1, 101):
            ecu.run_until(cycle * ms(10))
            assert (registry.value("wd_pfc_observations_total")
                    == wd.pfc.observation_count)
            assert (registry.value("wd_pfc_violations_total")
                    == wd.pfc.violation_count)
            assert (registry.value("wd_hbm_active_runnables")
                    == wd.hbm.active.count(True))
            assert (registry.value("wd_tsi_faulty_tasks")
                    == len(wd.tsi.faulty_tasks))
            assert (registry.value("wd_tsi_ecu_state", watchdog=wd.name)
                    == MONITOR_STATE_RANK[wd.ecu_state()])
            reset = len(ecu.reset_times) > resets
            resets = len(ecu.reset_times)
            for name, tally in tallies.items():
                exported = registry.value(name)
                if reset:
                    assert exported - tally() >= carried[name]
                    carried[name] = exported - tally()
                assert exported == tally() + carried[name], (name, cycle)
        assert resets and carried["wd_hbm_check_cycles_total"] > 0


class TestCampaignEquivalence:
    def test_telemetered_campaign_runs_identical(self):
        specs = standard_fault_specs(1)[:3]
        plain = Campaign("coverage", warmup=ms(300), observation=ms(500))
        observed = Campaign("coverage", warmup=ms(300), observation=ms(500),
                            telemetry=MetricsRegistry())
        assert observed.execute(specs).runs == plain.execute(specs).runs

    def test_telemetered_parallel_equals_plain_serial(self):
        specs = standard_fault_specs(1)[:3]
        plain = Campaign("coverage", warmup=ms(300), observation=ms(500))
        observed = Campaign("coverage", warmup=ms(300), observation=ms(500),
                            telemetry=MetricsRegistry())
        assert (observed.execute(specs, workers=2).runs
                == plain.execute(specs).runs)
