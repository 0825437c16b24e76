"""Integration tests: telemetry threaded through the watchdog stack.

The ``telemetry=`` knob flows from the facades (:class:`SoftwareWatchdog`,
:class:`Ecu`, :class:`Campaign`) into the three units, and the event
stream subscribes to the watchdog (:class:`WatchdogEvents`, which
``Ecu(event_sink=)`` attaches); these tests assert the instruments and
the structured event stream reflect what actually happened.
"""

import pytest

from repro.core import (
    ErrorType,
    FaultHypothesis,
    MonitorState,
    RunnableHypothesis,
    SoftwareWatchdog,
    ThresholdPolicy,
)
from repro.faults import BlockedRunnableFault, Campaign, ErrorInjector, FaultTarget
from repro.experiments.coverage import build_coverage_system, standard_fault_specs
from repro.kernel import ms, seconds
from repro.lint import LintWarning
from repro.platform import Ecu
from repro.telemetry import (
    InMemorySink,
    KIND_DETECTION,
    KIND_ECU_STATE_CHANGE,
    KIND_LINT_WARNING,
    KIND_TASK_FAULT,
    KIND_TREATMENT,
    MetricsRegistry,
    WatchdogEvents,
)

from testutil import make_safespeed_mapping


def make_instrumented_watchdog(threshold=3):
    registry = MetricsRegistry()
    sink = InMemorySink()
    hyp = FaultHypothesis(thresholds=ThresholdPolicy(default=threshold))
    for name in ("A", "B", "C"):
        hyp.add_runnable(
            RunnableHypothesis(
                name, task="T", aliveness_period=2, min_heartbeats=1,
                arrival_period=2, max_heartbeats=3,
            )
        )
    hyp.allow_sequence(["A", "B", "C"])
    wd = SoftwareWatchdog(hyp, app_of_task={"T": "App"}, telemetry=registry)
    WatchdogEvents(sink).attach(wd)
    return wd, registry, sink


class TestWatchdogInstruments:
    def test_healthy_run_counts_cycles_and_heartbeats(self):
        wd, registry, sink = make_instrumented_watchdog()
        for cycle in range(5):
            base = cycle * 10
            wd.notify_task_start("T")
            for i, name in enumerate(("A", "B", "C")):
                wd.heartbeat_indication(name, base + i, task="T")
            wd.check_cycle(base + 9)
        assert registry.value("wd_hbm_check_cycles_total") == 5
        assert registry.value("wd_hbm_heartbeats_total") == 15
        assert registry.value("wd_pfc_observations_total") == 15
        assert registry.value("wd_pfc_violations_total") == 0
        for et in ErrorType:
            assert registry.value("wd_detections_total",
                                  error_type=et.value) == 0
        # Healthy: no detection/fault narrative, at most lint warnings.
        assert sink.filter(kind=KIND_DETECTION) == []

    def test_detections_counted_by_error_type(self):
        wd, registry, sink = make_instrumented_watchdog()
        wd.heartbeat_indication("B", 1, task="T")  # illegal flow entry
        wd.check_cycle(10)
        wd.check_cycle(20)  # aliveness period expires for all three
        assert registry.value(
            "wd_detections_total", error_type="program_flow"
        ) == wd.detected[ErrorType.PROGRAM_FLOW] == 1
        assert registry.value(
            "wd_detections_total", error_type="aliveness"
        ) == wd.detected[ErrorType.ALIVENESS]

    def test_detection_events_carry_the_error(self):
        wd, _registry, sink = make_instrumented_watchdog()
        wd.heartbeat_indication("B", 7, task="T")
        events = sink.filter(kind=KIND_DETECTION)
        assert len(events) == 1
        event = events[0]
        assert event.subject == "B"
        assert event.time == 7
        assert event.data["error_type"] == "program_flow"
        assert event.data["task"] == "T"

    def test_task_fault_and_ecu_state_events(self):
        wd, registry, sink = make_instrumented_watchdog(threshold=2)
        for t in (10, 20, 30, 40):  # two expiries per runnable
            wd.check_cycle(t)
        assert wd.ecu_state() is MonitorState.FAULTY
        faults = sink.filter(kind=KIND_TASK_FAULT)
        assert faults and faults[0].subject == "T"
        assert faults[0].data["trigger_error_type"] == "aliveness"
        changes = sink.filter(kind=KIND_ECU_STATE_CHANGE)
        assert changes
        assert changes[0].data["old_state"] == "ok"
        assert changes[-1].data["new_state"] == "faulty"
        assert "T" in changes[-1].data["faulty_tasks"]
        # The TSI gauges agree with the derived states.
        wd_label = {"watchdog": wd.name}
        assert registry.value("wd_tsi_task_state", task="T", **wd_label) == 2
        assert registry.value("wd_tsi_application_state", application="App",
                              **wd_label) == 2
        assert registry.value("wd_tsi_ecu_state", **wd_label) == 2
        assert registry.value("wd_tsi_faulty_tasks") == 1

    def test_reset_syncs_then_zeroes(self):
        wd, registry, _sink = make_instrumented_watchdog()
        wd.heartbeat_indication("A", 1, task="T")
        wd.check_cycle(10)
        wd.reset()
        # Pre-reset activity was folded in before the counters zeroed
        # (reset may land mid sync interval).
        assert registry.value("wd_hbm_check_cycles_total") == 1
        assert registry.value("wd_hbm_heartbeats_total") == 1
        assert registry.value("wd_tsi_ecu_state", watchdog=wd.name) == 0
        wd.check_cycle(10)
        assert registry.value("wd_hbm_check_cycles_total") == 2

    def test_lint_warning_events(self):
        registry = MetricsRegistry()
        sink = InMemorySink()
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis(
            "A", task="T", min_heartbeats=0, max_heartbeats=2))
        with pytest.warns(LintWarning):
            wd = SoftwareWatchdog(hyp, name="lintable", telemetry=registry)
        WatchdogEvents(sink).attach(wd)
        warnings = sink.filter(kind=KIND_LINT_WARNING, subject="lintable")
        assert warnings
        assert any(w.data["code"] == "WD202" for w in warnings)
        assert all(w.data["severity"] in ("warning", "error")
                   for w in warnings)


class TestEcuInstruments:
    def test_injected_fault_reaches_fmf_metrics_and_events(self):
        registry = MetricsRegistry()
        sink = InMemorySink()
        ecu = Ecu(
            "central",
            make_safespeed_mapping(),
            watchdog_period=ms(10),
            telemetry=registry,
            event_sink=sink,
        )
        injector = ErrorInjector(FaultTarget.from_ecu(ecu))
        injector.inject_at(ms(300), BlockedRunnableFault("SAFE_CC_process"),
                           restore_at=ms(600))
        ecu.run_until(seconds(1))
        detections = registry.value("wd_detections_total",
                                    error_type="aliveness")
        # Counters are monotonic: an ECU-reset treatment zeroes the
        # watchdog's in-run tallies but never the exported total.
        assert detections >= ecu.watchdog.detection_count(ErrorType.ALIVENESS)
        assert detections > 0
        assert registry.value("fmf_faults_total", category="aliveness") > 0
        treatments = sink.filter(kind=KIND_TREATMENT)
        assert treatments  # the FMF restarted the faulty application
        actions = {t.data["action"] for t in treatments}
        total_treated = sum(
            inst.value for inst in registry.instruments("fmf_treatments_total")
        )
        assert total_treated == len(treatments)
        assert actions  # every event names its action
        assert sink.filter(kind=KIND_DETECTION)


class TestCampaignInstruments:
    def test_serial_campaign_counts_runs(self):
        registry = MetricsRegistry()
        campaign = Campaign(build_coverage_system, warmup=ms(200),
                            observation=ms(300), telemetry=registry)
        specs = standard_fault_specs(1)[:2]
        result = campaign.execute(specs)
        assert len(result.runs) == 2
        histogram = registry.get("campaign_run_seconds")
        assert histogram.count == 2
        assert histogram.sum > 0

    def test_parallel_campaign_reports_utilization(self):
        registry = MetricsRegistry()
        campaign = Campaign(build_coverage_system, warmup=ms(200),
                            observation=ms(300), telemetry=registry)
        specs = standard_fault_specs(1)[:2]
        result = campaign.execute(specs, workers=2)
        assert len(result.runs) == 2
        assert registry.get("campaign_run_seconds").count == 2
        utilization = registry.value("campaign_worker_utilization")
        assert 0.0 < utilization <= 1.0
