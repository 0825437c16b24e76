"""Fleet check-cycle stage cost (``Fleet.tick``) at idle registrations.

Every ``--tick-ms`` the daemon runs one ``Fleet.tick``: the supervision
table's ``tick`` (every registration's watchdog ``check_cycle``) and
then the fleet rollup (``fleet_state()`` over every registration, and a
compare against the current verdict).  Both parts are linear in the
number of registrations even when nothing is due, which makes this the
baseline any due-scheduling or incremental-rollup change is judged
against.

The fleet is driven in-process with no traffic at all: each
registration has four runnables with 100-cycle aliveness and arrival
windows, and none of them ever beats.  After :data:`WARM` warm-up ticks
(one full window, so the first detections and state changes are behind
us) the benchmark reports, at 1, 100 and 1000 registrations,

* ``tick_ms`` — the median ``Fleet.tick`` wall time over :data:`TICKS`
  ticks;
* ``rollup_ms`` — the median rollup share of a tick (``Fleet._roll_up``:
  ``fleet_state()`` plus the state compare), from a second, instrumented
  pass;
* ``table_ms`` — the median of the rest of each instrumented tick: the
  table's ``tick`` over every watchdog.

The record is appended to ``BENCH_fleet_tick.json``
(:func:`benchutil.record`).
"""

import statistics
import time

from benchutil import record, run_once
from repro.core import FaultHypothesis, RunnableHypothesis
from repro.core.config_io import hypothesis_to_dict
from repro.service.fleet import Fleet

SIZES = (1, 100, 1000)
RUNNABLES = 4
WINDOW_CYCLES = 100
WARM = WINDOW_CYCLES
TICKS = 300
SMOKE_SIZE = 10


def hypothesis_dict():
    hyp = FaultHypothesis()
    for index in range(RUNNABLES):
        hyp.add_runnable(RunnableHypothesis(
            f"r{index}", task="T",
            aliveness_period=WINDOW_CYCLES, min_heartbeats=1,
            arrival_period=WINDOW_CYCLES, max_heartbeats=1000))
    return hypothesis_to_dict(hyp)


def idle_fleet(registrations):
    fleet = Fleet()
    hyp = hypothesis_dict()
    for index in range(registrations):
        fleet.register(f"app{index:04d}", hyp)
    return fleet


def measure(registrations, ticks=TICKS):
    fleet = idle_fleet(registrations)
    cycle = 0
    for _ in range(WARM):
        cycle += 1
        fleet.tick(cycle)

    totals = []
    for _ in range(ticks):
        cycle += 1
        begin = time.perf_counter()
        fleet.tick(cycle)
        totals.append(time.perf_counter() - begin)

    # Instrumented pass: time the rollup inside each tick (an instance
    # attribute shadows the method Fleet.tick calls through ``self``).
    roll_up = fleet._roll_up
    rollups = []

    def timed_roll_up(at):
        begin = time.perf_counter()
        roll_up(at)
        rollups.append(time.perf_counter() - begin)

    fleet._roll_up = timed_roll_up
    tables = []
    for _ in range(ticks):
        cycle += 1
        begin = time.perf_counter()
        fleet.tick(cycle)
        tables.append(time.perf_counter() - begin - rollups[-1])
    return {
        "tick_ms": round(statistics.median(totals) * 1000, 4),
        "table_ms": round(statistics.median(tables) * 1000, 4),
        "rollup_ms": round(statistics.median(rollups) * 1000, 4),
    }


def test_fleet_tick_smoke(benchmark):
    """One short pass of the measured path (the ``bench_smoke`` rot
    check); records nothing."""
    result = run_once(benchmark, measure, SMOKE_SIZE, ticks=20)
    assert result["tick_ms"] > 0
    assert result["rollup_ms"] > 0


def test_bench_fleet_tick(benchmark):
    results = run_once(benchmark, lambda: {
        size: measure(size) for size in SIZES
    })
    metrics = {
        "runnables": RUNNABLES,
        "window_cycles": WINDOW_CYCLES,
        "warm_ticks": WARM,
        "ticks": TICKS,
    }
    for size, result in results.items():
        for key, value in result.items():
            metrics[f"{key}@{size}"] = value
        print(f"\nFleet.tick @ {size} registrations: "
              f"{result['tick_ms']:.4f} ms (table {result['table_ms']:.4f}"
              f" ms, rollup {result['rollup_ms']:.4f} ms)")
    record("fleet_tick", metrics)
