"""Tests for the extension studies (E1–E5, F3)."""

import pytest

from repro.experiments import (
    flow_checking_rows,
    passive_vs_polling_rows,
    run_coverage_campaign,
    run_escalation_sweep,
    run_latency_study,
    run_reconfiguration,
    run_threshold_sweep,
    run_toolchain,
    watchdog_cpu_rows,
)
from repro.kernel import ms, seconds


@pytest.fixture(scope="module")
def coverage():
    return run_coverage_campaign(observation=seconds(1))


class TestCoverageE1:
    def test_software_watchdog_covers_everything(self, coverage):
        for fault_class in {run.fault_class for run in coverage.runs}:
            assert coverage.coverage("SoftwareWatchdog", fault_class) == 1.0, \
                fault_class

    def test_hw_watchdog_blind_to_runnable_faults(self, coverage):
        for fault_class in ("BlockedRunnableFault", "SkipRunnableFault",
                            "InvalidBranchFault", "TimeScalarFault"):
            assert coverage.coverage("HardwareWatchdog", fault_class) == 0.0, \
                fault_class

    def test_hw_watchdog_catches_cpu_starvation(self, coverage):
        assert coverage.coverage("HardwareWatchdog", "_RunawayFault") == 1.0

    def test_deadline_monitor_blind_to_flow_faults(self, coverage):
        for fault_class in ("SkipRunnableFault", "InvalidBranchFault"):
            assert coverage.coverage("DeadlineMonitor", fault_class) == 0.0

    def test_software_watchdog_strictly_dominates(self, coverage):
        """Aggregate coverage ordering: SW watchdog > every baseline."""
        sw = coverage.coverage("SoftwareWatchdog")
        for baseline in ("HardwareWatchdog", "DeadlineMonitor", "ExecTimeMonitor"):
            assert sw > coverage.coverage(baseline)

    def test_sw_latency_bounded_by_monitoring_periods(self, coverage):
        for latency in coverage.latencies("SoftwareWatchdog"):
            assert latency <= ms(50)


class TestOverheadE2:
    def test_lookup_table_order_of_magnitude_cheaper(self):
        rows = {r["technique"]: r for r in flow_checking_rows()}
        assert (
            rows["lookup-table"]["runtime_ops"] * 10
            <= rows["CFCSS"]["runtime_ops"]
        )

    def test_lookup_table_fewer_static_sites(self):
        rows = {r["technique"]: r for r in flow_checking_rows()}
        assert rows["lookup-table"]["static_sites"] < rows["CFCSS"]["static_sites"]

    def test_watchdog_cpu_share_small_at_paper_operating_point(self):
        rows = watchdog_cpu_rows(periods=[ms(10)], check_costs=[50],
                                 horizon=seconds(2))
        assert rows[0]["cpu_share"] < 0.02
        assert rows[0]["false_positives"] == 0

    def test_cpu_share_scales_with_cost_and_period(self):
        rows = watchdog_cpu_rows(periods=[ms(5), ms(20)], check_costs=[10, 200],
                                 horizon=seconds(2))
        by_key = {(r["watchdog_period_ms"], r["check_cost_us"]): r["cpu_share"]
                  for r in rows}
        assert by_key[(5.0, 200)] > by_key[(5.0, 10)]
        assert by_key[(5.0, 200)] > by_key[(20.0, 200)]

    def test_passive_beats_polling_for_slow_tasks(self):
        rows = passive_vs_polling_rows()
        slow = {r["design"]: r["ops"] for r in rows
                if r["scenario"] == "slow 100 ms task"}
        assert slow["passive heartbeats (paper)"] < slow["active polling"]


class TestLatencyE3:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_latency_study(repetitions=1)

    def test_full_detection_everywhere(self, rows):
        assert all(r["detected"] == 1.0 for r in rows)

    def test_eager_arrival_cuts_latency(self, rows):
        by_mode = {
            (r["fault"], r["check_mode"]): r["mean_latency_ms"] for r in rows
        }
        key = "arrival rate (loop counter)"
        assert by_mode[(key, "eager-arrival")] < by_mode[(key, "period-end")]

    def test_flow_latency_shortest(self, rows):
        """Flow errors are flagged on the offending heartbeat itself —
        faster than any period-based check."""
        period_end = [r for r in rows if r["check_mode"] == "period-end"]
        flow = next(r for r in period_end if "program flow" in r["fault"])
        for other in period_end:
            if other is not flow:
                assert flow["mean_latency_ms"] <= other["mean_latency_ms"]


class TestTreatmentE4:
    def test_threshold_sweep_monotone(self):
        rows = run_threshold_sweep(thresholds=[1, 3, 6], observation=seconds(2))
        times = [r.time_to_task_fault_ms for r in rows]
        assert all(t is not None for t in times)
        assert times[0] < times[1] < times[2]

    def test_permanent_fault_escalates_to_reset(self):
        rows = run_escalation_sweep(budgets=[1, 3], observation=seconds(2))
        assert all(r.resets > 0 for r in rows)
        assert rows[0].time_to_first_reset_ms < rows[1].time_to_first_reset_ms
        assert not rows[0].recovered

    def test_transient_fault_recovers_without_further_resets(self):
        rows = run_escalation_sweep(budgets=[3], observation=seconds(2),
                                    transient_duration=ms(400))
        assert rows[0].recovered


class TestReconfigE5:
    @pytest.fixture(scope="class")
    def report(self):
        return run_reconfiguration(observation=seconds(4), settle=seconds(3))

    def test_safelane_terminated_not_ecu_reset(self, report):
        assert report.safelane_terminated
        assert report.ecu_resets == 0

    def test_safespeed_unaffected(self, report):
        assert report.safespeed_state == "ok"
        assert report.speed_regulated

    def test_no_alarm_flood_after_termination(self, report):
        assert report.detections_after_termination == 0


class TestToolchainF3:
    @pytest.fixture(scope="class")
    def report(self):
        return run_toolchain()

    def test_mapping_schedulable(self, report):
        assert report.schedulable
        assert report.utilization < 1.0

    def test_rta_bounds_hold_in_simulation(self, report):
        assert report.bounds_hold
        for task, worst in report.observed_worst.items():
            assert worst <= report.rta_bounds[task]

    def test_system_fully_built(self, report):
        assert report.runnable_count == 9
        assert report.task_count == 3
        assert report.hypothesis_size == 9
