"""HBM check-cycle stage cost: the expiry wheel at growing populations.

The watchdog check task runs once per period on the supervised target,
so its per-cycle cost is the service's core overhead number.  The
expiry wheel visits only the slots whose aliveness or arrival-rate
deadline falls due this cycle.  With phase-staggered periods of
:data:`PERIOD` cycles, 1 % of the runnables fall due on every cycle, so
the visits per cycle must equal ``n / PERIOD`` exactly and must not
grow with the *undue* population.

At 100, 1000 and 4000 runnables the benchmark reports

* ``visits@n`` — slot visits per cycle (deterministic);
* ``us@n`` — the best of :data:`REPEATS` rounds of the mean wall time
  of one ``HeartbeatMonitoringUnit.cycle`` over :data:`CYCLES` cycles.

The record is appended to ``BENCH_check_cycle.json``
(:func:`benchutil.record`).
"""

import time

from benchutil import record, run_once
from repro.core.heartbeat import HeartbeatMonitoringUnit
from repro.experiments.overhead import _staggered_unit

#: Monitoring period in check cycles → with phase-staggered deadlines,
#: 1/PERIOD of the runnables fall due on every cycle (1 %).
PERIOD = 100
CYCLES = 300
REPEATS = 5
SIZES = (100, 1000, 4000)


def measure(unit: HeartbeatMonitoringUnit, cycles: int = CYCLES):
    """Visits per cycle and mean seconds per cycle over ``cycles``."""
    visits = unit.slots_visited
    start_cycle = unit.cycle_count
    begin = time.perf_counter()
    for c in range(cycles):
        unit.cycle(time=start_cycle + c)
    elapsed = time.perf_counter() - begin
    return (unit.slots_visited - visits) / cycles, elapsed / cycles


def test_check_cycle_smoke(benchmark):
    """One short pass of the measured path (the ``bench_smoke`` rot
    check); records nothing."""
    unit = _staggered_unit(250, PERIOD)
    visits, seconds = run_once(benchmark, measure, unit, PERIOD)
    assert visits == 250 / PERIOD
    assert seconds > 0


def test_bench_check_cycle(benchmark):
    """Visits track due checks only (16× the population, 16× the due
    checks, the same visits per due check); the wall time is recorded."""

    def run():
        results = {}
        for size in SIZES:
            unit = _staggered_unit(size, PERIOD)
            rounds = [measure(unit) for _ in range(REPEATS)]
            results[size] = (rounds[0][0], min(s for _, s in rounds))
        return results

    results = run_once(benchmark, run)
    metrics = {"period": PERIOD, "cycles": CYCLES, "repeats": REPEATS}
    for size, (visits, seconds) in results.items():
        assert visits == size / PERIOD
        metrics[f"visits@{size}"] = visits
        metrics[f"us@{size}"] = round(seconds * 1e6, 2)
        print(f"\ncheck cycle @ {size} runnables: {visits:g} visits, "
              f"{seconds * 1e6:.2f} us")
    record("check_cycle", metrics)
