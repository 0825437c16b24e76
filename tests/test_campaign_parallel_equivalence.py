"""Differential equivalence: parallel vs serial campaign execution.

The worker pool is an optimization, not a behavior change: for any
spec-based campaign the merged ``CampaignResult`` from ``workers=N``
must be bit-for-bit identical to the serial run — same ``RunResult``
values, same order — exactly like the expiry-wheel equivalence suite
pins the HBM strategies against each other.
"""

import pytest

from repro.faults import Campaign, FaultSpec, SystemSpec
from repro.faults.campaigns import CampaignResult, RunResult
from repro.kernel import ms
from repro.experiments.coverage import standard_fault_specs


def _small_campaign():
    return Campaign("coverage", warmup=ms(300), observation=ms(500))


@pytest.fixture(scope="module")
def specs():
    return standard_fault_specs(1)


@pytest.fixture(scope="module")
def serial_result(specs):
    return _small_campaign().execute(specs)


class TestDeterminism:
    def test_serial_runs_identical(self, specs, serial_result):
        again = _small_campaign().execute(specs)
        assert again.runs == serial_result.runs

    def test_parallel_equals_serial(self, specs, serial_result):
        parallel = _small_campaign().execute(specs, workers=4)
        assert parallel.runs == serial_result.runs

    def test_workers_zero_means_cpu_count(self, specs, serial_result):
        parallel = _small_campaign().execute(specs, workers=0)
        assert parallel.runs == serial_result.runs

    def test_tiny_chunks_preserve_order(self, specs, serial_result):
        parallel = _small_campaign().execute(specs, workers=4, chunksize=1)
        assert parallel.runs == serial_result.runs

    def test_latency_system_parallel_equals_serial(self):
        campaign = Campaign(
            SystemSpec.of("latency", eager=True),
            warmup=ms(300), observation=ms(500),
        )
        faults = [FaultSpec.of("loop_count", runnable="GetSensorValue",
                               repeat=4)] * 3
        assert campaign.execute(faults).runs == \
            campaign.execute(faults, workers=2).runs


class TestParallelApi:
    def test_progress_reports_monotone_counts(self, specs):
        calls = []
        _small_campaign().execute(
            specs, workers=2, progress=lambda done, total: calls.append((done, total))
        )
        assert calls[-1] == (len(specs), len(specs))
        assert [d for d, _ in calls] == sorted(d for d, _ in calls)

    def test_serial_progress_per_run(self, specs):
        calls = []
        _small_campaign().execute(
            specs, progress=lambda done, total: calls.append((done, total))
        )
        assert calls == [(i + 1, len(specs)) for i in range(len(specs))]

    def test_closures_rejected_in_parallel_mode(self):
        from repro.faults.models import BlockedRunnableFault

        campaign = _small_campaign()
        with pytest.raises(ValueError, match="picklable run specs"):
            campaign.execute(
                [lambda s: BlockedRunnableFault("SAFE_CC_process")], workers=2
            )

    def test_callable_system_factory_rejected_in_parallel_mode(self, specs):
        from repro.experiments.coverage import build_coverage_system

        campaign = Campaign(build_coverage_system, warmup=ms(300),
                            observation=ms(500))
        with pytest.raises(ValueError, match="picklable run specs"):
            campaign.execute(specs, workers=2)

    def test_negative_workers_rejected(self, specs):
        with pytest.raises(ValueError, match="workers"):
            _small_campaign().execute(specs, workers=-1)

    def test_empty_fault_list(self):
        assert _small_campaign().execute([], workers=4).runs == []


def _reference_coverage_table(result):
    """The pre-optimization coverage_table: repeated full-list passes."""
    fault_classes = list(dict.fromkeys(r.fault_class for r in result.runs))
    detectors = list(dict.fromkeys(
        name for r in result.runs for name in r.detections))
    rows = []
    for fault_class in fault_classes:
        for detector in detectors:
            relevant = [r for r in result.runs if r.fault_class == fault_class]
            hits = sum(1 for r in relevant if r.detected_by(detector))
            latencies = [r.latency(detector) for r in relevant
                         if r.latency(detector) is not None]
            rows.append(
                {
                    "fault_class": fault_class,
                    "detector": detector,
                    "coverage": hits / len(relevant) if relevant else 0.0,
                    "mean_latency": (
                        sum(latencies) / len(latencies) if latencies else None
                    ),
                    "runs": len(relevant),
                }
            )
    return rows


class TestCoverageTableEquivalence:
    def test_single_pass_matches_reference(self, serial_result):
        assert serial_result.coverage_table() == \
            _reference_coverage_table(serial_result)

    def test_heterogeneous_detector_sets(self):
        # Runs whose detection dicts disagree: detector "b" never appears
        # in class "Y" runs, so that (class, detector) bucket is empty.
        result = CampaignResult(runs=[
            RunResult("f1", "X", "aliveness", 10, {"a": 15, "b": None}),
            RunResult("f2", "X", "aliveness", 10, {"a": None, "b": 30}),
            RunResult("f3", "Y", "flow", 20, {"a": 21}),
        ])
        assert result.coverage_table() == _reference_coverage_table(result)
