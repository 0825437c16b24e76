"""Second batch of hypothesis property tests: extensions and substrates."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.baselines import BasicBlockGraph, CfcssChecker
from repro.core import make_supervision_frame_spec
from repro.core.config_io import hypothesis_from_dict, hypothesis_to_dict
from repro.core.hypothesis import FaultHypothesis, RunnableHypothesis
from repro.kernel import EventQueue, Kernel, ScheduleTable, Segment, Task, TraceKind


# ----------------------------------------------------------------------
# persistent events vs ECU reset
# ----------------------------------------------------------------------
@given(
    flags=st.lists(st.booleans(), min_size=1, max_size=40),
)
def test_clear_transient_keeps_exactly_persistent_events(flags):
    queue = EventQueue()
    for index, persistent in enumerate(flags):
        queue.schedule(index + 1, lambda: None, persistent=persistent)
    queue.clear_transient()
    survivors = []
    while True:
        event = queue.pop_next(10_000)
        if event is None:
            break
        survivors.append(event.when)
    expected = [i + 1 for i, persistent in enumerate(flags) if persistent]
    assert survivors == expected


# ----------------------------------------------------------------------
# hypothesis serialization
# ----------------------------------------------------------------------
@given(st.data())
@settings(max_examples=40)
def test_hypothesis_roundtrip_is_lossless(data):
    hypothesis = FaultHypothesis()
    count = data.draw(st.integers(min_value=1, max_value=6))
    names = [f"r{i}" for i in range(count)]
    for name in names:
        hypothesis.add_runnable(
            RunnableHypothesis(
                name,
                task=data.draw(st.sampled_from(["T1", "T2", None])),
                aliveness_period=data.draw(st.integers(1, 10)),
                min_heartbeats=data.draw(st.integers(0, 5)),
                arrival_period=data.draw(st.integers(1, 10)),
                max_heartbeats=data.draw(st.integers(0, 10)),
                active=data.draw(st.booleans()),
            )
        )
    hypothesis.allow_sequence(names)
    restored = hypothesis_from_dict(hypothesis_to_dict(hypothesis))
    assert hypothesis_to_dict(restored) == hypothesis_to_dict(hypothesis)


# ----------------------------------------------------------------------
# supervision frame encoding
# ----------------------------------------------------------------------
@given(
    sequence=st.integers(min_value=0, max_value=0xFFFF),
    state=st.integers(min_value=0, max_value=2),
    errors=st.integers(min_value=0, max_value=1023),
)
def test_supervision_frame_roundtrip(sequence, state, errors):
    spec = make_supervision_frame_spec(0, "n")
    values = spec.unpack(spec.pack({
        "sequence": sequence, "ecu_state": state,
        "aliveness_errors": errors, "arrival_errors": errors,
        "flow_errors": errors, "faulty_tasks": min(errors, 63),
    }))
    assert values["sequence"] == sequence
    assert values["ecu_state"] == state
    assert values["aliveness_errors"] == errors


# ----------------------------------------------------------------------
# CFCSS on random DAGs: legal walks never flagged
# ----------------------------------------------------------------------
@given(st.data())
@settings(max_examples=40)
def test_cfcss_accepts_every_legal_walk(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    graph = BasicBlockGraph()
    names = [f"b{i}" for i in range(n)]
    for name in names:
        graph.add_block(name)
    # Random forward edges guarantee a DAG; ensure a chain exists.
    for i in range(n - 1):
        graph.add_edge(names[i], names[i + 1])
    for _ in range(data.draw(st.integers(0, n))):
        i = data.draw(st.integers(0, n - 2))
        j = data.draw(st.integers(i + 1, n - 1))
        graph.add_edge(names[i], names[j])

    checker = CfcssChecker(graph, names[0])
    # Walk: start at entry, repeatedly follow a random legal edge.
    walk = [names[0]]
    current = names[0]
    for _ in range(data.draw(st.integers(0, 12))):
        successors = [b for b in names if graph.is_edge(current, b)]
        if not successors:
            break
        current = data.draw(st.sampled_from(sorted(successors)))
        walk.append(current)
    assert checker.run_walk(walk) == 0


# ----------------------------------------------------------------------
# schedule tables: activations land exactly at offsets
# ----------------------------------------------------------------------
@given(
    offsets=st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                     max_size=4, unique=True),
)
@settings(max_examples=30, deadline=None)
def test_schedule_table_fires_at_configured_offsets(offsets):
    kernel = Kernel()

    def body(task):
        yield Segment(1)

    kernel.add_task(Task("T", 5, body, max_activations=10))
    table = ScheduleTable("tbl", kernel, period=10_000)
    for offset in offsets:
        table.add_task_activation(offset * 1000, "T")
    table.start_rel(0)
    kernel.run_until(29_999)
    activations = [
        r.time for r in kernel.trace.filter(kind=TraceKind.TASK_ACTIVATE)
    ]
    expected = sorted(
        offset * 1000 + period_start
        for period_start in (0, 10_000, 20_000)
        for offset in offsets
    )
    assert activations == expected
