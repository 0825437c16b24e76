"""Instrumentation-overhead benchmark: live registry vs null registry.

Telemetry rides the watchdog's hottest path — the per-period check
cycle — so its cost model matters: high-frequency tallies stay plain
ints and are folded into registry counters once per cycle, and only the
cycle-duration timing runs per cycle when the registry is live.  The
acceptance bound: at 1000 supervised runnables the fully instrumented
cycle must stay within 1.15× of the null-registry cycle.

Both paths also drive a heartbeat per due runnable per cycle so the
comparison covers the heartbeat hot path, not just the check loop.

The two sides are measured in interleaved pairs, the order alternating
each round, and the tests assert on the median of the per-pair ratios:
both halves of a ratio share whatever load the host had at that moment,
where the minimum of each side, taken at different times, does not.
"""

import statistics
import time

from repro.experiments.overhead import _staggered_unit
from repro.telemetry import MetricsRegistry, NullRegistry

RUNNABLES = 1000
#: Monitoring period in check cycles → 1 % of the deadlines due per cycle.
PERIOD = 100
CYCLES = 400
PAIRS = 9


def _per_cycle_seconds(unit, cycles: int = CYCLES) -> float:
    """Wall time per check cycle, heartbeating every due slot first."""
    names = unit.names
    start_cycle = unit.cycle_count
    begin = time.perf_counter()
    for c in range(cycles):
        now = start_cycle + c
        # The slots re-armed at warm-up cycle (now % PERIOD) fall due
        # now — heartbeat exactly those, keeping the run healthy.
        for i in range(now % PERIOD, len(names), PERIOD):
            unit.heartbeat(names[i], now)
        unit.cycle(time=now)
    return (time.perf_counter() - begin) / cycles


def _paired(base_unit, unit, pairs: int = PAIRS):
    """``(median ratio, median base cost, median cost)`` over ``pairs``
    rounds, each measuring ``base_unit`` and ``unit`` back to back,
    base first in even rounds and second in odd ones."""
    ratios, base_costs, costs = [], [], []
    for index in range(pairs):
        if index % 2:
            cost = _per_cycle_seconds(unit)
            base_cost = _per_cycle_seconds(base_unit)
        else:
            base_cost = _per_cycle_seconds(base_unit)
            cost = _per_cycle_seconds(unit)
        ratios.append(cost / base_cost)
        base_costs.append(base_cost)
        costs.append(cost)
    return (statistics.median(ratios), statistics.median(base_costs),
            statistics.median(costs))


def test_bench_telemetry_overhead_within_bound(benchmark):
    """Acceptance: instrumented hot path ≤ 1.15× the null-registry path."""
    null_unit = _staggered_unit(RUNNABLES, PERIOD,
                                telemetry=NullRegistry())
    live_unit = _staggered_unit(RUNNABLES, PERIOD,
                                telemetry=MetricsRegistry())
    ratio, null_cost, live_cost = benchmark.pedantic(
        _paired, args=(null_unit, live_unit), rounds=1, iterations=1
    )
    print(f"\nper-cycle medians: null {null_cost * 1e6:.2f} us, "
          f"live {live_cost * 1e6:.2f} us, median ratio {ratio:.3f}x")
    assert ratio <= 1.15, (
        f"instrumented cycle {ratio:.3f}x the null-registry cycle "
        f"(null {null_cost * 1e6:.2f} us, live {live_cost * 1e6:.2f} us)"
    )
    # The live run actually recorded what happened: every cycle timed,
    # every heartbeat and slot visit folded into the counters.
    live_unit.sync_telemetry()
    registry = live_unit.telemetry
    assert registry.value("wd_hbm_check_cycles_total") >= CYCLES * PAIRS
    assert registry.value("wd_hbm_heartbeats_total") > 0


def test_bench_null_registry_is_free(benchmark):
    """The default (no telemetry= at all) must cost the same as an
    explicit NullRegistry — the knob's absence is not a tax."""
    default_unit = _staggered_unit(RUNNABLES, PERIOD)
    null_unit = _staggered_unit(RUNNABLES, PERIOD,
                                telemetry=NullRegistry())
    ratio, default_cost, null_cost = benchmark.pedantic(
        _paired, args=(default_unit, null_unit), rounds=1, iterations=1
    )
    print(f"\nper-cycle medians: default {default_cost * 1e6:.2f} us, "
          f"explicit-null {null_cost * 1e6:.2f} us, "
          f"median ratio {ratio:.3f}x")
    assert 0.8 <= ratio <= 1.25
