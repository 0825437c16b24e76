"""Property-based tests (hypothesis) on core invariants."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import percentile
from repro.core import FaultHypothesis, RunnableHypothesis
from repro.core.flowcheck import FlowTable, ProgramFlowCheckingUnit
from repro.core.heartbeat import HeartbeatMonitoringUnit
from repro.core.reports import ErrorType
from repro.kernel import EventQueue
from repro.network import FrameSpec, SignalSpec


# ----------------------------------------------------------------------
# event queue ordering
# ----------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50))
def test_event_queue_pops_in_time_order(times):
    queue = EventQueue()
    for t in times:
        queue.schedule(t, lambda: None)
    popped = []
    while True:
        event = queue.pop_next(10_000)
        if event is None:
            break
        popped.append(event.when)
    assert popped == sorted(times)


@given(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=30),
    st.data(),
)
def test_event_queue_cancellation_preserves_rest(times, data):
    queue = EventQueue()
    events = [queue.schedule(t, lambda: None) for t in times]
    cancel_index = data.draw(st.integers(min_value=0, max_value=len(events) - 1))
    events[cancel_index].cancel()
    remaining = sorted(t for i, t in enumerate(times) if i != cancel_index)
    popped = []
    while True:
        event = queue.pop_next(10_000)
        if event is None:
            break
        popped.append(event.when)
    assert popped == remaining


# ----------------------------------------------------------------------
# watchdog counters
# ----------------------------------------------------------------------
@given(
    heartbeats_per_cycle=st.lists(
        st.integers(min_value=0, max_value=6), min_size=1, max_size=60
    ),
    aliveness_period=st.integers(min_value=1, max_value=5),
    min_heartbeats=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=60)
def test_heartbeat_monitor_against_reference_model(
    heartbeats_per_cycle, aliveness_period, min_heartbeats
):
    """The HBM unit must agree with a direct re-computation: one
    aliveness error per completed period whose heartbeat sum is below
    the minimum."""
    hyp = FaultHypothesis()
    hyp.add_runnable(
        RunnableHypothesis(
            "R",
            aliveness_period=aliveness_period,
            min_heartbeats=min_heartbeats,
            arrival_period=10_000,  # effectively disabled
            max_heartbeats=10_000,
        )
    )
    unit = HeartbeatMonitoringUnit(hyp)
    errors = []
    unit.add_listener(errors.append)
    for cycle, n in enumerate(heartbeats_per_cycle):
        for _ in range(n):
            unit.heartbeat("R", time=cycle)
        unit.cycle(time=cycle)

    expected = 0
    window = 0
    cycles_in_window = 0
    for n in heartbeats_per_cycle:
        window += n
        cycles_in_window += 1
        if cycles_in_window >= aliveness_period:
            if window < min_heartbeats:
                expected += 1
            window = 0
            cycles_in_window = 0
    aliveness_errors = [e for e in errors if e.error_type is ErrorType.ALIVENESS]
    assert len(aliveness_errors) == expected


@given(
    heartbeats_per_cycle=st.lists(
        st.integers(min_value=0, max_value=8), min_size=1, max_size=60
    ),
    max_heartbeats=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=60)
def test_arrival_rate_monitor_against_reference_model(
    heartbeats_per_cycle, max_heartbeats
):
    hyp = FaultHypothesis()
    hyp.add_runnable(
        RunnableHypothesis(
            "R",
            aliveness_period=10_000,
            min_heartbeats=0,
            arrival_period=1,
            max_heartbeats=max_heartbeats,
        )
    )
    unit = HeartbeatMonitoringUnit(hyp)
    errors = []
    unit.add_listener(errors.append)
    for cycle, n in enumerate(heartbeats_per_cycle):
        for _ in range(n):
            unit.heartbeat("R", time=cycle)
        unit.cycle(time=cycle)
    expected = sum(1 for n in heartbeats_per_cycle if n > max_heartbeats)
    assert len(errors) == expected


# ----------------------------------------------------------------------
# program flow checking
# ----------------------------------------------------------------------
@given(
    length=st.integers(min_value=2, max_value=8),
    repeats=st.integers(min_value=1, max_value=5),
)
def test_legal_cyclic_walks_never_flagged(length, repeats):
    names = [f"r{i}" for i in range(length)]
    table = FlowTable()
    table.allow_cycle(names)
    pfc = ProgramFlowCheckingUnit(table)
    for _ in range(repeats):
        for name in names:
            assert pfc.observe(name, 0) is None
    assert pfc.violation_count == 0


@given(st.data())
def test_single_skip_in_linear_sequence_always_detected(data):
    length = data.draw(st.integers(min_value=3, max_value=8))
    names = [f"r{i}" for i in range(length)]
    table = FlowTable()
    table.allow_sequence(names)
    pfc = ProgramFlowCheckingUnit(table)
    skip_index = data.draw(st.integers(min_value=1, max_value=length - 1))
    violations = 0
    for i, name in enumerate(names):
        if i == skip_index:
            continue
        error = pfc.observe(name, 0)
        if error is not None:
            violations += 1
    if skip_index == length - 1:
        # Skipping the *final* runnable truncates the sequence: there is
        # no illegal transition to observe — that omission is caught by
        # aliveness monitoring, not flow checking.
        assert violations == 0
    else:
        assert violations == 1  # exactly one at the skip point, then resync


@given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=30))
def test_observation_count_only_counts_monitored(walk):
    table = FlowTable()
    table.allow_sequence(["a", "b"])
    pfc = ProgramFlowCheckingUnit(table)
    for name in walk:
        pfc.observe(name, 0)
    monitored = sum(1 for name in walk if name in ("a", "b"))
    assert pfc.observation_count == monitored


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------
@given(
    raw=st.integers(min_value=0, max_value=(1 << 16) - 1),
    scale=st.floats(min_value=0.001, max_value=10.0, allow_nan=False),
    offset=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)
def test_signal_roundtrip_within_half_scale(raw, scale, offset):
    sig = SignalSpec("v", 0, 16, scale=scale, offset=offset)
    physical = sig.decode(raw)
    assert sig.decode(sig.encode(physical)) == pytest.approx(
        physical, abs=scale / 2 + 1e-9
    )


@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=600.0, allow_nan=False),
        min_size=3,
        max_size=3,
    )
)
def test_frame_pack_unpack_all_signals(values):
    frame = FrameSpec("F", 1)
    frame.add_signal(SignalSpec("a", 0, 16, scale=0.01))
    frame.add_signal(SignalSpec("b", 16, 16, scale=0.01))
    frame.add_signal(SignalSpec("c", 32, 16, scale=0.01))
    packed = frame.pack(dict(zip(("a", "b", "c"), values)))
    unpacked = frame.unpack(packed)
    for name, value in zip(("a", "b", "c"), values):
        assert unpacked[name] == pytest.approx(min(value, 655.35), abs=0.011)


# ----------------------------------------------------------------------
# percentile
# ----------------------------------------------------------------------
@given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=100))
def test_percentile_bounds(values):
    ordered = sorted(values)
    assert percentile(ordered, 0) == ordered[0]
    assert percentile(ordered, 100) == ordered[-1]
    p50 = percentile(ordered, 50)
    assert ordered[0] <= p50 <= ordered[-1]


@given(
    st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=50),
    st.floats(min_value=0, max_value=100, allow_nan=False),
)
def test_percentile_monotone_in_q(values, q):
    ordered = sorted(values)
    assume(q <= 99)
    # Tolerate interpolation float jitter on runs of equal values.
    assert percentile(ordered, q) <= percentile(ordered, min(q + 1, 100.0)) + 1e-6


# ----------------------------------------------------------------------
# schedulability analysis vs simulated kernel
# ----------------------------------------------------------------------
import pytest

from repro.analysis import response_times as trace_response_times
from repro.kernel import AlarmTable, Kernel, Runnable, Task, runnable_sequence_body
from repro.platform import TaskTiming, is_schedulable, response_time


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_rta_bounds_simulated_response_times(data):
    """For any schedulable synchronous periodic task set, the simulated
    worst response time never exceeds the RTA bound."""
    n = data.draw(st.integers(min_value=1, max_value=3))
    timings = []
    for i in range(n):
        period = data.draw(st.sampled_from([5_000, 10_000, 20_000, 40_000]))
        wcet = data.draw(st.integers(min_value=500, max_value=max(501, period // 4)))
        timings.append(TaskTiming(f"T{i}", wcet=wcet, period=period, priority=n - i))
    assume(is_schedulable(timings))

    kernel = Kernel()
    alarms = AlarmTable(kernel)
    for t in timings:
        runnable = Runnable(f"{t.name}.r", kernel, wcet=t.wcet)
        kernel.add_task(Task(t.name, t.priority, runnable_sequence_body([runnable])))
        alarms.alarm_activate_task(f"{t.name}A", t.name).set_rel(t.period, t.period)
    kernel.run_until(200_000)

    for t in timings:
        observed = trace_response_times(kernel.trace, t.name)
        if not observed:
            continue
        bound = response_time(t, timings)
        assert bound is not None
        assert max(observed) <= bound
