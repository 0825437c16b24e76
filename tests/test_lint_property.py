"""Property-based soundness tests for wdlint.

The linter must never cry wolf: a lint-clean hypothesis driven by a
trace that conforms to it produces **zero** watchdog detections, and a
flow table mined from any healthy trace always lints clean (mining and
linting agree about what "observable" means).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FlowTable, SoftwareWatchdog
from repro.core.hypothesis import FaultHypothesis, RunnableHypothesis
from repro.kernel.tracing import TraceKind, TraceRecord
from repro.lint import lint_flow_table, lint_hypothesis


# --- strategy: a multi-task hypothesis plus a conforming drive plan ----

task_shapes = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=3),   # runnables on this task
        st.integers(min_value=1, max_value=3),   # window length K (cycles)
        st.integers(min_value=1, max_value=3),   # activations per window
    ),
    min_size=1,
    max_size=3,
)


#: Per-runnable overrides for :func:`build_hypothesis`: aliveness
#: period, min heartbeats, arrival period, max heartbeats, initial AS.
runnable_bounds = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([True, True, True, False]),
)


def build_hypothesis(shapes, bounds=None):
    """One linear runnable sequence per task, bounds sized so that
    ``n`` in-order activations per ``K``-cycle window conform.

    ``bounds``, a list of :data:`runnable_bounds` tuples, replaces the
    runnables' bounds and initial AS in registration order (cycling);
    the plan's activations then need not conform."""
    hyp = FaultHypothesis()
    plan = []  # (task, [runnable names], window K, activations n)
    for t, (count, window, activations) in enumerate(shapes):
        task = f"T{t}"
        names = [f"T{t}R{i}" for i in range(count)]
        for name in names:
            fields = (window, activations, window, activations, True)
            if bounds:
                fields = bounds[len(hyp.runnables) % len(bounds)]
            alive, least, arrival, most, active = fields
            hyp.add_runnable(RunnableHypothesis(
                name,
                task=task,
                aliveness_period=alive,
                min_heartbeats=least,
                arrival_period=arrival,
                max_heartbeats=most,
                active=active,
            ))
        hyp.allow_sequence(names)
        plan.append((task, names, window, activations))
    return hyp, plan


@settings(max_examples=30, deadline=None)
@given(task_shapes)
def test_lint_clean_plus_conforming_trace_is_silent(shapes):
    hyp, plan = build_hypothesis(shapes)

    report = lint_hypothesis(hyp)
    assert report.clean, report.render_text()

    # A clean hypothesis constructs without LintWarning noise under the
    # default lint="warn" knob.
    watchdog = SoftwareWatchdog(hyp)

    # Drive it: at the start of each task's window, run the declared
    # sequence the declared number of times; check every cycle.  A
    # heartbeat delivered when ``cycle % K == 0`` (before check_cycle)
    # lands inside the window whose deadline the wheel armed at K.
    cycles = 3 * max(window for _, _, window, _ in plan) * 4
    for cycle in range(cycles):
        time = cycle * 10
        for task, names, window, activations in plan:
            if cycle % window == 0:
                for _ in range(activations):
                    watchdog.notify_task_start(task)
                    for name in names:
                        watchdog.heartbeat_indication(name, time, task)
        watchdog.check_cycle(time)

    assert watchdog.detection_count() == 0


# --- strategy: raw healthy traces for the mining path ------------------

trace_shapes = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=4),   # runnables on this task
        st.integers(min_value=1, max_value=4),   # task activations
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=30, deadline=None)
@given(trace_shapes, st.randoms(use_true_random=False))
def test_mined_flow_table_always_lints_clean(shapes, rnd):
    """Whatever healthy execution we mine — including interleaved tasks
    and partial final activations — the resulting table lints clean."""
    task_of = {}
    episodes = []  # each: (task, runnable names executed in order)
    for t, (count, activations) in enumerate(shapes):
        task = f"T{t}"
        names = [f"T{t}R{i}" for i in range(count)]
        for name in names:
            task_of[name] = task
        for a in range(activations):
            # Sometimes a final activation is cut short mid-sequence.
            cut = rnd.randint(1, count)
            episodes.append((task, names[:cut] if a == activations - 1
                             else names))
    rnd.shuffle(episodes)

    records = []
    time = 0
    for task, names in episodes:
        records.append(TraceRecord(time, TraceKind.TASK_ACTIVATE, task))
        for name in names:
            time += 1
            records.append(TraceRecord(
                time, TraceKind.HEARTBEAT, name, {"task": task}))

    table = FlowTable.mine_from_trace(records, task_attribution=task_of)
    report = lint_flow_table(table, task_of=task_of, source="mined")
    assert report.clean, report.render_text()
