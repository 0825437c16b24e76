"""Tests for campaign execution and coverage accounting."""

import pytest

from repro.faults import (
    BlockedRunnableFault,
    Campaign,
    CampaignResult,
    CampaignSystem,
    DetectionRecorder,
    FaultTarget,
    HeartbeatCorruptionFault,
    RunResult,
    TimeScalarFault,
    watchdog_detector,
)
from repro.experiments.coverage import _RunawayFault, build_coverage_system
from repro.kernel import TraceKind, ms, seconds
from repro.platform import Ecu, FmfPolicy

from testutil import make_safespeed_mapping


def system_factory():
    ecu = Ecu(
        "central",
        make_safespeed_mapping(),
        watchdog_period=ms(10),
        fmf_policy=FmfPolicy(ecu_faulty_task_threshold=99, max_app_restarts=10**9),
    )
    detector = watchdog_detector(ecu.watchdog)
    return CampaignSystem(
        target=FaultTarget.from_ecu(ecu),
        detectors=[detector],
        run_until=ecu.run_until,
        now=lambda: ecu.now,
    )


class TestDetectionRecorder:
    def test_first_detection_after(self):
        recorder = DetectionRecorder("d")
        recorder.record(10)
        recorder.record(20)
        assert recorder.first_detection_after(5) == 10
        assert recorder.first_detection_after(15) == 20
        assert recorder.first_detection_after(25) is None

    def test_out_of_order_records_are_sorted(self):
        """Regression: the bisect-based query needs sorted times, so an
        out-of-order ``record`` must insort rather than append."""
        recorder = DetectionRecorder("d")
        for t in (30, 10, 20, 10):
            recorder.record(t)
        assert recorder.times == [10, 10, 20, 30]
        assert recorder.first_detection_after(5) == 10
        assert recorder.first_detection_after(11) == 20
        assert recorder.first_detection_after(21) == 30
        assert recorder.first_detection_after(31) is None

    def test_exact_boundary_is_inclusive(self):
        recorder = DetectionRecorder("d")
        recorder.record(10)
        assert recorder.first_detection_after(10) == 10


class TestRunResult:
    def test_latency_and_detected(self):
        run = RunResult(
            fault_name="f", fault_class="F", expected_error="aliveness",
            inject_time=100, detections={"d": 150, "missed": None},
        )
        assert run.latency("d") == 50
        assert run.detected_by("d")
        assert not run.detected_by("missed")
        assert run.latency("missed") is None


class TestCampaign:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Campaign(system_factory, warmup=-1, observation=10)
        with pytest.raises(ValueError):
            Campaign(system_factory, warmup=0, observation=0)

    def test_single_fault_detected(self):
        campaign = Campaign(system_factory, warmup=ms(200), observation=ms(800))
        result = campaign.execute(
            [lambda: BlockedRunnableFault("SAFE_CC_process")]
        )
        assert len(result.runs) == 1
        run = result.runs[0]
        assert run.fault_class == "BlockedRunnableFault"
        assert run.detected_by("SoftwareWatchdog")
        assert run.latency("SoftwareWatchdog") > 0

    def test_each_run_fresh_system(self):
        seen = []

        def factory():
            system = system_factory()
            seen.append(system)
            return system

        campaign = Campaign(factory, warmup=ms(100), observation=ms(300))
        campaign.execute(
            [
                lambda: BlockedRunnableFault("SAFE_CC_process"),
                lambda: BlockedRunnableFault("GetSensorValue"),
            ]
        )
        assert len(seen) == 2
        assert seen[0] is not seen[1]

    def test_transient_campaign_restores(self):
        campaign = Campaign(
            system_factory, warmup=ms(200), observation=seconds(1),
            transient_duration=ms(300),
        )
        result = campaign.execute([lambda: BlockedRunnableFault("SAFE_CC_process")])
        assert result.runs[0].detected_by("SoftwareWatchdog")

    def test_transient_heartbeat_corruption_is_restored(self):
        """Regression: the corruption fault had no ``_revert``, so the
        restore event raised ``AttributeError`` mid-run."""
        built = []

        def factory():
            built.append(system_factory())
            return built[-1]

        campaign = Campaign(factory, warmup=ms(200), observation=ms(600),
                            transient_duration=ms(100))
        result = campaign.execute(
            [lambda: HeartbeatCorruptionFault("SAFE_CC_process", "Speed_process")]
        )
        assert result.runs[0].detected_by("SoftwareWatchdog")
        [system] = built
        assert system.target.runnables["SAFE_CC_process"].name == "SAFE_CC_process"

    def test_transient_campaign_refuses_unrestorable_fault(self):
        """Regression: a fault without ``_revert`` used to be injected and
        then crash the campaign at its restore event."""
        built = []

        def factory():
            built.append(build_coverage_system())
            return built[-1]

        campaign = Campaign(factory, warmup=ms(200), observation=ms(600),
                            transient_duration=ms(100))
        with pytest.raises(ValueError, match="runaway_task.*cannot be restored"):
            campaign.execute([_RunawayFault])
        [system] = built
        assert system.target.kernel.trace.filter(TraceKind.FAULT_INJECTED) == []

    def test_coverage_aggregation(self):
        campaign = Campaign(system_factory, warmup=ms(200), observation=ms(800))
        result = campaign.execute(
            [
                lambda: BlockedRunnableFault("SAFE_CC_process"),
                lambda: BlockedRunnableFault("Speed_process"),
                lambda: TimeScalarFault("SafeSpeedTask", 4.0),
            ]
        )
        assert result.coverage("SoftwareWatchdog") == 1.0
        assert result.coverage("SoftwareWatchdog", "BlockedRunnableFault") == 1.0
        rows = result.coverage_table()
        assert {row["fault_class"] for row in rows} == {
            "BlockedRunnableFault", "TimeScalarFault",
        }
        assert {row["detector"] for row in rows} == {"SoftwareWatchdog"}

    def test_latency_statistics(self):
        campaign = Campaign(system_factory, warmup=ms(200), observation=ms(800))
        result = campaign.execute(
            [lambda: BlockedRunnableFault("SAFE_CC_process")] * 3
        )
        latencies = result.latencies("SoftwareWatchdog")
        assert len(latencies) == 3
        [row] = result.coverage_table()
        assert row["mean_latency"] == pytest.approx(sum(latencies) / 3)

    def test_coverage_table_rows(self):
        campaign = Campaign(system_factory, warmup=ms(200), observation=ms(600))
        result = campaign.execute(
            [lambda: BlockedRunnableFault("SAFE_CC_process")]
        )
        rows = result.coverage_table()
        assert len(rows) == 1
        assert rows[0]["fault_class"] == "BlockedRunnableFault"
        assert rows[0]["coverage"] == 1.0
        assert rows[0]["runs"] == 1


class TestEmptyResult:
    def test_empty_coverage_zero(self):
        result = CampaignResult()
        assert result.coverage("any") == 0.0
        assert result.coverage_table() == []
