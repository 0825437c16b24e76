"""Tests for the program flow checking unit and its look-up table."""

from repro.core import ErrorType, FaultHypothesis, FlowTable, RunnableHypothesis
from repro.core.flowcheck import ProgramFlowCheckingUnit


def make_pfc(sequence=("A", "B", "C"), cycle=False):
    table = FlowTable()
    if cycle:
        table.allow_cycle(list(sequence))
    else:
        table.allow_sequence(list(sequence))
    pfc = ProgramFlowCheckingUnit(table)
    errors = []
    pfc.add_listener(errors.append)
    return pfc, errors


class TestFlowTable:
    def test_allow_and_lookup(self):
        table = FlowTable()
        table.allow("A", "B")
        assert table.is_allowed("A", "B")
        assert not table.is_allowed("B", "A")

    def test_entry_points(self):
        table = FlowTable()
        table.allow_sequence(["A", "B"])
        assert table.is_allowed(None, "A")
        assert not table.is_allowed(None, "B")

    def test_allow_cycle_closes_loop(self):
        table = FlowTable()
        table.allow_cycle(["A", "B", "C"])
        assert table.is_allowed("C", "A")

    def test_monitored_set(self):
        table = FlowTable()
        table.allow_sequence(["A", "B"])
        assert table.is_monitored("A")
        assert table.is_monitored("B")
        assert not table.is_monitored("Z")

    def test_pair_count(self):
        table = FlowTable()
        table.allow_sequence(["A", "B", "C"])
        assert table.pair_count() == 3  # entry + 2 adjacencies

    def test_successors(self):
        table = FlowTable()
        table.allow("A", "B")
        table.allow("A", "C")
        assert table.is_allowed("A", "B") and table.is_allowed("A", "C")
        assert table.pair_count() == 2

    def test_from_hypothesis(self):
        hyp = FaultHypothesis()
        for name in ("A", "B"):
            hyp.add_runnable(RunnableHypothesis(name))
        hyp.allow_sequence(["A", "B"])
        table = FlowTable.from_hypothesis(hyp)
        assert table.is_allowed("A", "B")
        assert table.is_allowed(None, "A")

    def test_empty_sequence_noop(self):
        table = FlowTable()
        table.allow_sequence([])
        assert table.pair_count() == 0


class TestObservation:
    def test_legal_sequence_clean(self):
        pfc, errors = make_pfc()
        for name in ("A", "B", "C"):
            pfc.observe(name, time=1)
        assert errors == []
        assert pfc.violation_count == 0
        assert pfc.observation_count == 3

    def test_illegal_transition_detected(self):
        pfc, errors = make_pfc()
        pfc.observe("A", 1)
        error = pfc.observe("C", 2)  # A -> C skips B
        assert error is not None
        assert error.error_type is ErrorType.PROGRAM_FLOW
        assert error.details == {"previous": "A", "observed": "C"}

    def test_illegal_entry_detected(self):
        pfc, errors = make_pfc()
        error = pfc.observe("B", 1)  # sequence must start at A
        assert error is not None
        assert error.details["previous"] is None

    def test_resync_after_violation(self):
        """One bad branch yields one error, not a cascade."""
        pfc, errors = make_pfc()
        pfc.observe("A", 1)
        pfc.observe("C", 2)  # violation, resync on C
        pfc.reset_stream(None)
        pfc.observe("A", 3)
        pfc.observe("B", 4)
        pfc.observe("C", 5)
        assert len(errors) == 1

    def test_unmonitored_runnable_transparent(self):
        pfc, errors = make_pfc()
        pfc.observe("A", 1)
        pfc.observe("unmonitored", 2)  # not in table: ignored entirely
        pfc.observe("B", 3)
        assert errors == []
        assert pfc.observation_count == 2

    def test_stream_reset_allows_reentry(self):
        pfc, errors = make_pfc()
        for name in ("A", "B", "C"):
            pfc.observe(name, 1)
        pfc.reset_stream(None)
        pfc.observe("A", 2)
        assert errors == []

    def test_no_reset_repeating_sequence_needs_cycle(self):
        pfc, errors = make_pfc()
        for name in ("A", "B", "C", "A"):
            pfc.observe(name, 1)
        assert len(errors) == 1  # C -> A not allowed in a pure sequence

    def test_cycle_table_allows_wraparound(self):
        pfc, errors = make_pfc(cycle=True)
        for name in ("A", "B", "C", "A", "B"):
            pfc.observe(name, 1)
        assert errors == []


class TestPerTaskStreams:
    def test_interleaved_tasks_do_not_interfere(self):
        table = FlowTable()
        table.allow_sequence(["A1", "A2"])
        table.allow_sequence(["B1", "B2"])
        pfc = ProgramFlowCheckingUnit(table)
        errors = []
        pfc.add_listener(errors.append)
        # Preemption interleaves the two tasks' runnables.
        pfc.observe("A1", 1, task="TA")
        pfc.observe("B1", 2, task="TB")
        pfc.observe("A2", 3, task="TA")
        pfc.observe("B2", 4, task="TB")
        assert errors == []

    def test_global_stream_flags_interleaving(self):
        """Without task attribution, interleaving is misdiagnosed — the
        reason the unit keys streams by task."""
        table = FlowTable()
        table.allow_sequence(["A1", "A2"])
        table.allow_sequence(["B1", "B2"])
        pfc = ProgramFlowCheckingUnit(table)
        errors = []
        pfc.add_listener(errors.append)
        pfc.observe("A1", 1)
        pfc.observe("B1", 2)
        assert len(errors) == 1

    def test_task_attribution_fallback(self):
        table = FlowTable()
        table.allow_sequence(["A1", "A2"])
        pfc = ProgramFlowCheckingUnit(table, task_attribution={"A1": "TA", "A2": "TA"})
        error = None
        pfc.observe("A2", 1)  # illegal entry; attributed to TA
        pfc.add_listener(lambda e: None)
        assert pfc.violation_count == 1

    def test_lookup_operation_counting(self):
        pfc, _ = make_pfc()
        pfc.observe("A", 1)
        pfc.observe("B", 2)
        pfc.observe("zzz", 3)  # unmonitored: no lookup
        assert pfc.observation_count == 2

    def test_reset_all(self):
        pfc, errors = make_pfc()
        pfc.observe("A", 1, task="T")
        pfc.reset_all()
        pfc.observe("A", 2, task="T")
        assert errors == []
