"""Differential equivalence: expiry-wheel check cycles vs the reference
model.

The wheel is an optimisation of the paper's per-cycle HBM semantics, not
a change to them: over any heartbeat schedule — including
activation-status flips, eager arrival detection, resets, unknown names
and initially-inactive runnables — it must emit a bit-for-bit identical
error stream (type, runnable, time, details, order) and
identical AC/ARC/CCA/CCAR/AS after every cycle to
``reference_model.ReferenceWatchdog``, and visit exactly the runnables
the model finds due.

The schedules here are randomized loops with fixed seeds, so failures
reproduce deterministically.
"""

import random

import pytest

from reference_model import ReferenceWatchdog
from repro.core import ErrorType, FaultHypothesis, RunnableHypothesis
from repro.core.heartbeat import HeartbeatMonitoringUnit


def _random_hypothesis(rng):
    hyp = FaultHypothesis()
    for i in range(rng.randint(1, 8)):
        hyp.add_runnable(
            RunnableHypothesis(
                f"R{i}",
                task=f"T{i % 3}",
                aliveness_period=rng.randint(1, 6),
                min_heartbeats=rng.randint(0, 3),
                arrival_period=rng.randint(1, 6),
                max_heartbeats=rng.randint(0, 4),
                active=rng.random() > 0.2,
            )
        )
    return hyp


def _make_pair(hyp, eager):
    """The wheel and the model over one hypothesis (no flow pairs, so
    the model's PFC never fires), and the wheel's emitted errors."""
    wheel = HeartbeatMonitoringUnit(hyp, eager_arrival_detection=eager)
    model = ReferenceWatchdog(hyp, eager=eager)
    wheel_errors = []
    wheel.add_listener(wheel_errors.append)
    return wheel, model, wheel_errors


def _drive_both(seed, *, eager, cycles=120, with_resets=False):
    """Feed one random schedule into the wheel and the model, comparing
    counters and visits after every cycle and error streams at the end."""
    rng = random.Random(seed)
    hyp = _random_hypothesis(rng)
    wheel, model, wheel_errors = _make_pair(hyp, eager)
    names = list(hyp.runnables)
    for t in range(cycles):
        for _ in range(rng.randint(0, 4)):
            name = rng.choice(names)
            wheel.heartbeat(name, time=t)
            model.heartbeat(name, time=t)
        if rng.random() < 0.15:
            name = rng.choice(names)
            active = rng.random() < 0.5
            wheel.set_activation_status(name, active)
            model.set_active(name, active)
        if rng.random() < 0.02:
            ghost = f"ghost{rng.randint(0, 3)}"
            wheel.heartbeat(ghost, time=t)
            model.heartbeat(ghost, time=t)
        if with_resets and rng.random() < 0.03:
            wheel.reset()
            model.reset()
        visited = wheel.slots_visited
        assert wheel.cycle(time=t) == model.cycle(time=t), (seed, t)
        assert wheel.slots_visited - visited == model.due_last_cycle
        for name in names:
            assert wheel.snapshot(name) == model.counter_values(name), (
                seed, t, name)
    assert wheel_errors == model.detections, seed
    assert wheel.unknown_heartbeats == model.unknown_heartbeats
    return wheel, wheel_errors


@pytest.mark.parametrize("seed", range(25))
def test_randomized_schedules_period_end(seed):
    _drive_both(seed, eager=False)


@pytest.mark.parametrize("seed", range(25))
def test_randomized_schedules_eager(seed):
    _drive_both(seed, eager=True)


@pytest.mark.parametrize("seed", range(10))
def test_randomized_schedules_with_resets(seed):
    _drive_both(seed, eager=seed % 2 == 0, with_resets=True)


def test_errors_name_the_runnable_interned_at_their_slot():
    """Every error the wheel emits names a runnable it interned, by the
    name stored at that runnable's configuration-time slot."""
    wheel, errors = _drive_both(424242, eager=True)
    assert errors, "schedule produced no errors; pick a different seed"
    for error in errors:
        assert wheel.names[wheel.slot_of[error.runnable]] == error.runnable


def test_wheel_visits_only_due_slots():
    """The wheel's per-cycle work tracks due checks, not population:
    with every period equal to p, only one cycle in p visits anything."""
    hyp = FaultHypothesis()
    for i in range(50):
        hyp.add_runnable(
            RunnableHypothesis(f"R{i}", aliveness_period=10, min_heartbeats=0,
                               arrival_period=10, max_heartbeats=100)
        )
    wheel = HeartbeatMonitoringUnit(hyp)
    for t in range(100):
        wheel.cycle(t)
    assert wheel.slots_visited == 50 * 10  # one visit per slot per period


def test_error_order_matches_slot_order():
    """When several runnables fail in the same cycle the wheel reports
    them in slot order, aliveness before arrival — the model's order."""
    hyp = FaultHypothesis()
    for name in ("B_second", "A_first"):  # registration order != sorted
        hyp.add_runnable(
            RunnableHypothesis(name, aliveness_period=2, min_heartbeats=1,
                               arrival_period=2, max_heartbeats=0)
        )
    hyp.add_runnable(RunnableHypothesis("C_silent", aliveness_period=2,
                                        min_heartbeats=1, arrival_period=2,
                                        max_heartbeats=0))
    wheel, model, wheel_errors = _make_pair(hyp, eager=False)
    for unit in (wheel, model):
        unit.heartbeat("B_second", 0)
        unit.heartbeat("A_first", 0)
        unit.cycle(1)
        unit.cycle(2)
    assert [
        (e.runnable, e.error_type) for e in wheel_errors
    ] == [
        ("B_second", ErrorType.ARRIVAL_RATE),
        ("A_first", ErrorType.ARRIVAL_RATE),
        ("C_silent", ErrorType.ALIVENESS),
    ]
    assert wheel_errors == model.detections
