"""Tests for the CFCSS signature-based control flow checker."""

import pytest

from repro.baselines import (
    BasicBlockGraph,
    CfcssChecker,
    CfgError,
)


def linear_graph(names=("A", "B", "C", "D")):
    graph = BasicBlockGraph()
    graph.add_path(list(names))
    return graph


def diamond_graph():
    """A -> (B | C) -> D : D is a branch-fan-in block."""
    graph = BasicBlockGraph()
    for name in ("A", "B", "C", "D"):
        graph.add_block(name)
    graph.add_edge("A", "B")
    graph.add_edge("A", "C")
    graph.add_edge("B", "D")
    graph.add_edge("C", "D")
    return graph


class TestGraph:
    def test_duplicate_block(self):
        graph = BasicBlockGraph()
        graph.add_block("A")
        with pytest.raises(CfgError):
            graph.add_block("A")

    def test_unknown_edge_endpoint(self):
        graph = BasicBlockGraph()
        graph.add_block("A")
        with pytest.raises(CfgError):
            graph.add_edge("A", "ghost")

    def test_add_path(self):
        graph = linear_graph()
        assert graph.is_edge("A", "B")
        assert graph.predecessors("D") == ["C"]

    def test_duplicate_edge_ignored(self):
        graph = linear_graph()
        graph.add_edge("A", "B")
        assert graph.predecessors("B") == ["A"]


class TestInstrumentation:
    def test_unique_signatures(self):
        checker = CfcssChecker(linear_graph(), "A")
        signatures = list(checker.signatures.values())
        assert len(signatures) == len(set(signatures))

    def test_fan_in_identified(self):
        checker = CfcssChecker(diamond_graph(), "A")
        assert checker.fan_in == {"D"}
        assert ("B", "D") in checker.d_adjust
        assert ("C", "D") in checker.d_adjust

    def test_linear_graph_no_fan_in(self):
        checker = CfcssChecker(linear_graph(), "A")
        assert checker.fan_in == set()

    def test_instrumentation_size(self):
        linear = CfcssChecker(linear_graph(), "A")
        assert linear.instrumentation_size() == 2 * 4
        diamond = CfcssChecker(diamond_graph(), "A")
        assert diamond.instrumentation_size() == 2 * 4 + 1 + 2

    def test_unknown_entry(self):
        with pytest.raises(CfgError):
            CfcssChecker(linear_graph(), "ghost")


class TestLegalWalks:
    def test_linear_walk_clean(self):
        checker = CfcssChecker(linear_graph(), "A")
        assert checker.run_walk(["A", "B", "C", "D"]) == 0

    def test_diamond_both_arms_clean(self):
        checker = CfcssChecker(diamond_graph(), "A")
        assert checker.run_walk(["A", "B", "D"]) == 0
        assert checker.run_walk(["A", "C", "D"]) == 0

    def test_loop_walk_clean(self):
        graph = linear_graph(("A", "B"))
        graph.add_edge("B", "A")
        checker = CfcssChecker(graph, "A")
        assert checker.run_walk(["A", "B", "A", "B", "A"]) == 0

    def test_walk_must_start_at_entry(self):
        checker = CfcssChecker(linear_graph(), "A")
        with pytest.raises(CfgError):
            checker.run_walk(["B", "C"])


class TestIllegalWalks:
    def test_skip_detected(self):
        checker = CfcssChecker(linear_graph(), "A")
        assert checker.run_walk(["A", "C", "D"]) == 1
        assert checker.detections[0] == ("A", "C")

    def test_backward_jump_detected(self):
        checker = CfcssChecker(linear_graph(), "A")
        assert checker.run_walk(["A", "B", "A", "B"]) >= 1

    def test_illegal_jump_into_fan_in_detected(self):
        checker = CfcssChecker(diamond_graph(), "A")
        # A -> D directly is illegal (and A is not a D-predecessor).
        assert checker.run_walk(["A", "D"]) == 1

    def test_resync_continues_checking(self):
        checker = CfcssChecker(linear_graph(), "A")
        checker.run_walk(["A", "C", "D"])  # one detection, resynced
        assert checker.run_walk(["A", "B", "C", "D"]) == 0

    def test_aliasing_limitation_exists(self):
        """CFCSS's documented weakness: with shared predecessors, the
        wrong arm of a fan-in can go undetected (branching to a sibling
        whose signature relationship aliases)."""
        # v1 -> {v3, v4}, v2 -> {v3, v4}: classic aliasing example.
        graph = BasicBlockGraph()
        for name in ("v0", "v1", "v2", "v3", "v4"):
            graph.add_block(name)
        graph.add_edge("v0", "v1")
        graph.add_edge("v0", "v2")
        for src in ("v1", "v2"):
            for dst in ("v3", "v4"):
                graph.add_edge(src, dst)
        checker = CfcssChecker(graph, "v0")
        # All legal walks pass.
        for walk in (["v0", "v1", "v3"], ["v0", "v2", "v4"]):
            assert checker.run_walk(walk) == 0


class TestOverheadAccounting:
    def test_instruction_count_grows_with_walk(self):
        checker = CfcssChecker(linear_graph(), "A")
        checker.run_walk(["A", "B", "C", "D"])
        first = checker.instruction_count
        checker.run_walk(["A", "B", "C", "D"])
        assert checker.instruction_count == 2 * first

    def test_linear_cost_is_two_per_block(self):
        checker = CfcssChecker(linear_graph(), "A")
        checker.run_walk(["A", "B", "C", "D"])
        assert checker.instruction_count == 2 * 4

    def test_fan_in_costs_more(self):
        checker = CfcssChecker(diamond_graph(), "A")
        checker.run_walk(["A", "B", "D"])
        # A:2, B:2 (+1 set D), D:3 -> 8
        assert checker.instruction_count == 8
