"""Four-run property differential against the reference model.

Hypothesis draws a fault hypothesis (``test_lint_property``'s task
shapes, with random bounds, initial AS flags, thresholds, an
application map and eager mode) and a script of heartbeats, task
starts, AS flips, BYEs, rebinds, unknown names, resets and check
cycles.  The script runs through four implementations:

1. the executable reference model (``reference_model.py``);
2. a :class:`~repro.core.watchdog.SoftwareWatchdog`;
3. the daemon's :class:`~repro.service.fleet.Fleet`, two registrations
   of the hypothesis, each running the script;
4. a ``Fleet`` restored mid-script from a snapshot streamed one record
   per slice, with the script's next steps applied to the second
   registration between the slices (its record shows them) and to the
   first one after the restore (its record was written before them).

After every check cycle all runs must agree on every detection (time,
runnable, task, type, details, interned id and order), the task faults,
each runnable's AC/ARC/CCA/CCAR/AS, the task, application and ECU
states and the unknown-heartbeat count; the watchdog's wheel must visit
exactly the runnables the model finds due.  The daemon has no eager
mode and admits only hypotheses wdlint accepts, so an eager or
lint-rejected example runs the first two only.  Loopback ≡ direct
(``test_service_differential.py``) carries the result to the socket.
"""

import tempfile

from hypothesis import given, settings, strategies as st

from reference_model import ReferenceWatchdog
from repro.core import ErrorType, SoftwareWatchdog
from repro.core.config_io import hypothesis_to_dict
from repro.core.hypothesis import ThresholdPolicy
from repro.service import StateStore
from repro.service.fleet import Fleet
from repro.service.supervisor import RegistrationError
from test_lint_property import build_hypothesis, runnable_bounds, task_shapes

REGISTRATIONS = ("a", "b")
APPS = ("A0", "A1")


@st.composite
def scenarios(draw):
    shapes = draw(task_shapes)
    size = sum(count for count, _, _ in shapes)
    bounds = draw(st.none() | st.lists(runnable_bounds, min_size=size,
                                       max_size=size))
    hyp, plan = build_hypothesis(shapes, bounds)
    hyp.thresholds = ThresholdPolicy(
        default=draw(st.integers(1, 3)),
        per_type=draw(st.dictionaries(
            st.sampled_from(list(ErrorType)), st.integers(1, 4),
            max_size=2)))
    tasks = [task for task, _, _, _ in plan]
    app_of_task = draw(st.none() | st.fixed_dictionaries(
        {}, optional={task: st.sampled_from(APPS) for task in tasks}))
    runnables = list(hyp.runnables)
    reported = st.sampled_from([None, *tasks, "T9"])
    op = st.one_of(
        st.tuples(st.just("hb"), st.sampled_from(runnables), reported),
        st.tuples(st.just("hb"), st.just("ghost"), reported),
        st.tuples(st.just("activation"), st.sampled_from(plan)),
        st.tuples(st.just("start"), st.sampled_from(tasks)),
        st.tuples(st.just("as"), st.sampled_from(runnables), st.booleans()),
        st.sampled_from([("bye",), ("rebind",), ("reset",)]),
    )
    length = draw(st.integers(1, 30))
    cycles = draw(st.lists(st.lists(op, max_size=5), min_size=length,
                           max_size=length))
    steps = [step for cycle in cycles for step in (*cycle, ("tick",))]
    # Expand each in-order activation into its task start and beats.
    script = []
    for step in steps:
        if step[0] == "activation":
            task, names, _, _ = step[1]
            script.append(("start", task))
            script.extend(("hb", name, task) for name in names)
        else:
            script.append(step)
    crash_at = draw(st.integers(0, len(script) - 1))
    return hyp, app_of_task, draw(st.booleans()), script, crash_at


# ----------------------------------------------------------------------
# one step on each implementation
# ----------------------------------------------------------------------
def step_model(model, step, time):
    kind = step[0]
    if kind == "hb":
        model.heartbeat(step[1], time, step[2])
    elif kind == "start":
        model.task_start(step[1])
    elif kind == "as":
        model.set_active(step[1], step[2])
    elif kind == "bye":
        for name in model.hyps:
            model.set_active(name, False)
    elif kind == "rebind":
        for name, hyp in model.hyps.items():
            model.set_active(name, hyp.active)
    elif kind == "reset":
        model.reset()
    else:
        model.cycle(time)


def step_watchdog(watchdog, step, time):
    kind = step[0]
    if kind == "hb":
        watchdog.heartbeat_indication(step[1], time, step[2])
    elif kind == "start":
        watchdog.notify_task_start(step[1])
    elif kind == "as":
        watchdog.set_activation_status(step[1], step[2])
    elif kind == "bye":
        for name in watchdog.hypothesis.runnables:
            watchdog.set_activation_status(name, False)
    elif kind == "rebind":
        for name, hyp in watchdog.hypothesis.runnables.items():
            watchdog.set_activation_status(name, hyp.active)
    elif kind == "reset":
        watchdog.reset()
    else:
        watchdog.check_cycle(time)


def step_registration(fleet, name, step, time, submitted):
    """A non-tick step on one registration, through the daemon's paths
    where it has one (heartbeat, task start, BYE, rebind)."""
    kind = step[0]
    if kind == "hb":
        fleet.heartbeat(name, step[1], time, step[2])
    elif kind == "start":
        fleet.task_start(name, step[1])
    elif kind == "bye":
        fleet.deregister(name)
    elif kind == "rebind":
        fleet.register(name, submitted[0], app_of_task=submitted[1])
    elif kind == "as":
        fleet.registration(name).watchdog.set_activation_status(*step[1:])
    else:
        fleet.registration(name).watchdog.reset()


def time_of(index):
    return 10 * index


# ----------------------------------------------------------------------
# what the runs must agree on
# ----------------------------------------------------------------------
def observed(unit, hyp):
    """The state the runs must agree on after a cycle; ``unit`` is the
    model or a SoftwareWatchdog, which share the state queries."""
    if isinstance(unit, ReferenceWatchdog):
        counters, unknown = unit.counter_values, unit.unknown_heartbeats
    else:
        counters, unknown = unit.hbm.snapshot, unit.hbm.unknown_heartbeats
    return {
        "counters": {name: counters(name) for name in hyp.runnables},
        "tasks": {task: unit.task_state(task)
                  for task in [*hyp.tasks(), "T9", "<unmapped>"]},
        "apps": {app: unit.application_state(app) for app in APPS},
        "ecu": unit.ecu_state(),
        "unknown": unknown,
    }


def fault_of(event):
    """A TaskFaultEvent as the model records it."""
    return (event.time, event.task, event.trigger_runnable,
            event.trigger_error_type)


class FleetRun:
    """A Fleet plus the detections and task faults it pushed, per
    registration."""

    def __init__(self, fleet, carried=None):
        self.fleet = fleet
        #: What a restored fleet's registrations pushed before the cut.
        carried = carried or {name: ([], []) for name in REGISTRATIONS}
        self.detections = {name: list(carried[name][0])
                           for name in REGISTRATIONS}
        self.task_faults = {name: list(carried[name][1])
                            for name in REGISTRATIONS}
        fleet.add_detection_listener(
            lambda name, error: self.detections[name].append(error))
        fleet.add_task_fault_listener(
            lambda name, event: self.task_faults[name].append(
                fault_of(event)))

    def pushed(self, name):
        return list(self.detections[name]), list(self.task_faults[name])


def stream_and_restore(live, script, start, stop, submitted):
    """Snapshot ``live`` one record per slice, applying
    ``script[start:stop]`` to registration ``b`` between the slices,
    then restore a new Fleet from the file; its run starts from what
    each registration had pushed when its record was written."""
    with tempfile.TemporaryDirectory() as state_dir:
        store = StateStore(state_dir)
        state, records = live.fleet.snapshot_stream()
        writer = store.open_snapshot(state, records, name="model")
        writer.write(1)  # registration a's record
        carried = {"a": live.pushed("a")}
        for index in range(start, stop):
            step_registration(live.fleet, "b", script[index],
                              time_of(index), submitted)
        while not writer.write(1):
            pass
        carried["b"] = live.pushed("b")
        store.write_snapshot_payload(writer)
        restored = Fleet()
        restored.restore(store.load().snapshot["fleet"])
        store.close()
    return FleetRun(restored, carried)


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_four_runs_agree_with_the_reference_model(scenario):
    hyp, app_of_task, eager, script, crash_at = scenario
    model = ReferenceWatchdog(hyp, eager=eager, app_of_task=app_of_task)
    watchdog = SoftwareWatchdog(hyp, eager_arrival_detection=eager,
                                app_of_task=app_of_task, lint="off")
    detections, task_faults = [], []
    watchdog.add_fault_listener(detections.append)
    watchdog.add_task_fault_listener(
        lambda event: task_faults.append(fault_of(event)))

    submitted = (hypothesis_to_dict(hyp), app_of_task)
    live = restored = None
    if not eager:
        live = FleetRun(Fleet())
        try:
            for name in REGISTRATIONS:
                live.fleet.register(name, submitted[0],
                                    app_of_task=app_of_task)
        except RegistrationError:
            live = None  # wdlint rejects it, so the daemon never runs it
    # The steps applied between the slices: up to the next tick.
    cut_end = next((index for index in range(crash_at, len(script))
                    if script[index][0] == "tick"), len(script))

    def check(at):
        expected = observed(model, hyp)
        assert detections == model.detections, at
        assert task_faults == model.task_faults, at
        assert observed(watchdog, hyp) == expected, at
        for run in (live, restored):
            if run is None:
                continue
            for name in REGISTRATIONS:
                watchdog_of = run.fleet.registration(name).watchdog
                assert run.detections[name] == model.detections, (at, name)
                assert run.task_faults[name] == model.task_faults, (at, name)
                assert observed(watchdog_of, hyp) == expected, (at, name)

    index = 0
    while index < len(script):
        if live is not None and restored is None and index == crash_at:
            restored = stream_and_restore(
                live, script, crash_at, cut_end, submitted)
            for at in range(crash_at, cut_end):
                for run in (live, restored):
                    step_registration(run.fleet, "a", script[at],
                                      time_of(at), submitted)
                step_model(model, script[at], time_of(at))
                step_watchdog(watchdog, script[at], time_of(at))
            index = cut_end
            check(index)
            continue
        step = script[index]
        time = time_of(index)
        step_model(model, step, time)
        visited = watchdog.hbm.slots_visited
        step_watchdog(watchdog, step, time)
        if step[0] == "tick":
            assert (watchdog.hbm.slots_visited - visited
                    == model.due_last_cycle), index
        for run in (live, restored):
            if run is None:
                continue
            if step[0] == "tick":
                run.fleet.tick(time)
            else:
                for name in REGISTRATIONS:
                    step_registration(run.fleet, name, step, time, submitted)
        if step[0] == "tick":
            check(index)
        index += 1
    check("end")
    if restored is not None:
        assert restored.fleet.snapshot() == live.fleet.snapshot()
