"""Property-based soundness tests for wdlint.

The linter must never cry wolf: a lint-clean hypothesis driven by a
trace that conforms to it produces **zero** watchdog detections, a
hypothesis that lints clean against its schedule runs a fault-free
simulated ECU without a detection.
"""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core import SoftwareWatchdog
from repro.core.hypothesis import FaultHypothesis, RunnableHypothesis
from repro.kernel import ms, us
from repro.lint import lint_hypothesis
from repro.platform import (
    Application,
    Ecu,
    RunnableSpec,
    SoftwareComponent,
    TaskMapping,
    TaskSpec,
    is_schedulable,
)


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


# --- strategy: a schedulable ECU and its generated hypothesis ----------

ecu_systems = st.fixed_dictionaries({
    # One (period ms, [runnable WCETs in µs], priority) per task; the
    # priorities are distinct but need not be rate-monotonic.
    "tasks": st.lists(
        st.tuples(
            st.sampled_from([5, 7, 10, 20]),
            st.lists(st.integers(min_value=200, max_value=2000),
                     min_size=1, max_size=3),
            st.integers(min_value=1, max_value=9),
        ),
        min_size=1,
        max_size=3,
        unique_by=lambda task: task[2],
    ),
    "check_ms": st.sampled_from([5, 10]),
    "aliveness_margin": st.floats(min_value=0.5, max_value=3.0),
    "arrival_margin": st.floats(min_value=0.8, max_value=2.0),
})


def build_mapping(tasks):
    """One application; task ``Tt`` runs its runnables ``TtR0..`` in order."""
    swc = SoftwareComponent("Swc")
    sequences = []
    for t, (_, wcets, _) in enumerate(tasks):
        sequences.append([f"T{t}R{i}" for i in range(len(wcets))])
        for name, wcet in zip(sequences[-1], wcets):
            swc.add(RunnableSpec(name, wcet=us(wcet)))
    app = Application("App")
    app.add_component(swc)
    mapping = TaskMapping([app])
    for t, ((period, _, priority), names) in enumerate(zip(tasks, sequences)):
        mapping.add_task(TaskSpec(f"T{t}", priority=priority,
                                  period=ms(period)))
        mapping.map_sequence(f"T{t}", names)
    return mapping


@settings(max_examples=50, deadline=None)
@given(ecu_systems)
@example({
    # A 5 ms task whose 0.2 ms job may complete 0.2 ms after release,
    # watched over one 5 ms cycle: a window that opens just after a
    # completion can close before the next one.  ⌊W/P⌋ = 1 called this
    # clean and it alarmed; ⌊(W − R)/P⌋ = 0 rejects it (WD301).
    "tasks": [(5, [200], 1)],
    "check_ms": 5,
    "aliveness_margin": 1.0,
    "arrival_margin": 1.0,
})
def test_schedule_clean_hypothesis_runs_without_detection(system):
    """WD3xx soundness: if the generated hypothesis lints clean of errors
    against the schedule it runs on, a fault-free second of that
    schedule raises no detection."""
    mapping = build_mapping(system["tasks"])
    assume(is_schedulable(mapping.task_timings()))
    ecu = Ecu("prop", mapping, watchdog_period=ms(system["check_ms"]),
              aliveness_margin=system["aliveness_margin"],
              arrival_margin=system["arrival_margin"], lint="off")
    report = lint_hypothesis(ecu.system.hypothesis, mapping=mapping,
                             watchdog_period=ms(system["check_ms"]))
    assume(report.ok)
    ecu.run_until(ms(1000))
    assert ecu.watchdog.detection_count() == 0, report.render_text()
