"""Tests for campaign metrics and the overhead model."""

import pytest

from repro.analysis import (
    LatencyStats,
    build_runnable_cfg,
    compare_flow_checking,
    coverage_report,
    latency_stats,
    measure_cfcss,
    measure_lookup_table,
    percentile,
)
from repro.faults.campaigns import CampaignResult, RunResult


def make_result():
    result = CampaignResult()
    result.runs.append(
        RunResult("f1", "Blocked", "aliveness", 100,
                  {"SW": 150, "HW": None})
    )
    result.runs.append(
        RunResult("f2", "Blocked", "aliveness", 100,
                  {"SW": 200, "HW": None})
    )
    result.runs.append(
        RunResult("f3", "Branch", "program_flow", 100,
                  {"SW": 120, "HW": 900})
    )
    return result


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_interpolation(self):
        assert percentile([0, 10], 50) == 5.0

    def test_extremes(self):
        assert percentile([1, 2, 3], 0) == 1
        assert percentile([1, 2, 3], 100) == 3

    def test_single_element(self):
        assert percentile([7], 95) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_q_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1, 2, 3], -0.1)
        with pytest.raises(ValueError):
            percentile([1, 2, 3], 100.1)

    def test_duplicate_heavy_input_stays_in_bounds(self):
        assert percentile([5, 5, 5, 5], 100) == 5.0
        assert percentile([5, 5, 5, 5], 0) == 5.0

    def test_accepts_lazy_sequence_view(self):
        # Only __len__ and non-negative __getitem__ are required.
        class View:
            def __len__(self):
                return 3

            def __getitem__(self, index):
                return [10, 20, 30][index]

        assert percentile(View(), 50) == 20


class TestLatencyStats:
    def test_from_values(self):
        stats = LatencyStats.from_values([10, 20, 30])
        assert stats.count == 3
        assert stats.mean == 20.0
        assert stats.maximum == 30

    def test_empty_is_none(self):
        assert LatencyStats.from_values([]) is None

    def test_via_campaign(self):
        stats = latency_stats(make_result(), "SW")
        assert stats.count == 3
        assert stats.mean == pytest.approx((50 + 100 + 20) / 3)


class TestCoverageViews:
    def test_report_renders(self):
        text = coverage_report(make_result())
        assert "Blocked" in text
        assert "SW" in text
        assert "100.0" in text  # SW coverage on Blocked


class TestOverheadModel:
    def test_cfg_builder_shape(self):
        graph = build_runnable_cfg(["A", "B"], blocks_per_runnable=5)
        # 5 chain blocks + 1 alt block per runnable.
        assert len(graph.blocks()) == 12
        assert graph.is_edge("A.b4", "B.b0")
        assert graph.is_edge("A.b0", "A.alt")

    def test_cfcss_measurement(self):
        result = measure_cfcss(["A", "B"], blocks_per_runnable=5, executions=10)
        assert result.technique == "CFCSS"
        assert result.blocks_executed == 100
        assert result.runtime_ops >= 2 * result.blocks_executed

    def test_lookup_measurement(self):
        from repro.core.flowcheck import FlowTable, ProgramFlowCheckingUnit

        table = FlowTable()
        table.allow_cycle(["A", "B"])
        pfc = ProgramFlowCheckingUnit(table)
        result = measure_lookup_table(pfc, ["A", "B"], blocks_per_runnable=5,
                                      executions=10)
        assert result.runtime_ops == 20  # one probe per heartbeat
        assert result.blocks_executed == 100

    def test_lookup_table_wins_on_runtime(self):
        rows = compare_flow_checking(["A", "B", "C"], blocks_per_runnable=10,
                                     executions=20)
        by_technique = {row["technique"]: row for row in rows}
        cfcss = by_technique["CFCSS"]
        lookup = by_technique["lookup-table"]
        # The paper's claim: an order of magnitude less runtime overhead
        # and far fewer modification sites.
        assert lookup["runtime_ops"] * 10 <= cfcss["runtime_ops"]
        assert lookup["static_sites"] < cfcss["static_sites"]

    def test_overhead_gap_grows_with_block_count(self):
        small = compare_flow_checking(["A", "B"], blocks_per_runnable=5,
                                      executions=10)
        large = compare_flow_checking(["A", "B"], blocks_per_runnable=50,
                                      executions=10)

        def ratio(rows):
            by = {r["technique"]: r for r in rows}
            return by["CFCSS"]["runtime_ops"] / by["lookup-table"]["runtime_ops"]

        assert ratio(large) > ratio(small)
