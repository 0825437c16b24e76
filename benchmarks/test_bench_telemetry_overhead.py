"""Instrumentation-overhead benchmark: live registry vs null registry.

Telemetry rides the watchdog's hottest path — the per-period check
cycle — so its cost model matters: high-frequency tallies stay plain
ints and are folded into registry counters once per cycle, and only the
cycle-duration timing runs per cycle when the registry is live.  The
acceptance bound: at 1000 supervised runnables the fully instrumented
cycle must stay within 1.15× of the null-registry cycle.

Both paths also drive a heartbeat per due runnable per cycle so the
comparison covers the heartbeat hot path, not just the check loop.
"""

import time

from repro.experiments.overhead import _staggered_unit
from repro.telemetry import MetricsRegistry, NullRegistry

RUNNABLES = 1000
#: Monitoring period in check cycles → 1 % of the deadlines due per cycle.
PERIOD = 100
CYCLES = 400
REPEATS = 5


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


def _best_of(unit, repeats: int = REPEATS) -> float:
    """Minimum per-cycle cost over several measurement rounds (the
    standard noise filter for microbenchmarks)."""
    return min(_per_cycle_seconds(unit) for _ in range(repeats))


def test_bench_telemetry_overhead_within_bound(benchmark):
    """Acceptance: instrumented hot path ≤ 1.15× the null-registry path."""
    null_unit = _staggered_unit(RUNNABLES, PERIOD,
                                telemetry=NullRegistry())
    live_unit = _staggered_unit(RUNNABLES, PERIOD,
                                telemetry=MetricsRegistry())
    null_cost = _best_of(null_unit)
    live_cost = benchmark.pedantic(
        _best_of, args=(live_unit,), rounds=1, iterations=1
    )
    ratio = live_cost / null_cost
    print(f"\nper-cycle: null {null_cost * 1e6:.2f} us, "
          f"live {live_cost * 1e6:.2f} us, ratio {ratio:.3f}x")
    assert ratio <= 1.15, (
        f"instrumented cycle {ratio:.3f}x the null-registry cycle "
        f"(null {null_cost * 1e6:.2f} us, live {live_cost * 1e6:.2f} us)"
    )
    # The live run actually recorded what happened: every cycle timed,
    # every heartbeat and slot visit folded into the counters.
    live_unit.sync_telemetry()
    registry = live_unit.telemetry
    assert registry.value("wd_hbm_check_cycles_total") >= CYCLES * REPEATS
    assert registry.value("wd_hbm_heartbeats_total") > 0


def test_bench_null_registry_is_free(benchmark):
    """The default (no telemetry= at all) must cost the same as an
    explicit NullRegistry — the knob's absence is not a tax."""
    default_unit = _staggered_unit(RUNNABLES, PERIOD)
    null_unit = _staggered_unit(RUNNABLES, PERIOD,
                                telemetry=NullRegistry())
    default_cost = _best_of(default_unit)
    null_cost = benchmark.pedantic(
        _best_of, args=(null_unit,), rounds=1, iterations=1
    )
    ratio = null_cost / default_cost
    print(f"\nper-cycle: default {default_cost * 1e6:.2f} us, "
          f"explicit-null {null_cost * 1e6:.2f} us, ratio {ratio:.3f}x")
    assert 0.8 <= ratio <= 1.25
