"""E2 — overhead study: look-up table vs signatures, passive vs polling.

Quantifies the two design arguments of §3.2:

1. **Program flow checking**: the look-up-table approach against a
   faithful CFCSS implementation, in dynamic instrumentation operations
   per executed basic block and in static modification sites
   (:func:`flow_checking_rows`).
2. **Watchdog service cost**: the check task's share of consumed CPU as
   a function of its period and per-cycle cost
   (:func:`watchdog_cpu_rows`), plus the passive-heartbeat vs
   active-polling bookkeeping comparison (:func:`passive_vs_polling_rows`).
3. **Check-cycle scaling**: per-cycle cost of the HBM check itself, an
   expiry wheel, as the number of monitored-but-undue runnables grows
   (:func:`check_cycle_scaling_rows`).
4. **Campaign scaling**: wall-clock throughput of the E1 injection
   campaign as worker processes are added
   (:func:`campaign_scaling_rows`).
"""

from __future__ import annotations

import time as _time
from typing import Dict, List

from ..analysis.overhead import compare_flow_checking, watchdog_cpu_share
from ..apps.safespeed import RUNNABLE_SEQUENCE, safespeed_mapping
from ..core.heartbeat import HeartbeatMonitoringUnit
from ..core.hypothesis import FaultHypothesis, RunnableHypothesis
from ..kernel.clock import ms, seconds
from ..platform.ecu import Ecu


def flow_checking_rows(
    *,
    blocks_per_runnable: int = 10,
    executions: int = 200,
) -> List[Dict[str, object]]:
    """CFCSS vs look-up table on the SafeSpeed-shaped workload."""
    return compare_flow_checking(
        list(RUNNABLE_SEQUENCE),
        blocks_per_runnable=blocks_per_runnable,
        executions=executions,
    )


def watchdog_cpu_rows(
    *,
    periods: List[int] = None,
    check_costs: List[int] = None,
    horizon: int = seconds(5),
) -> List[Dict[str, object]]:
    """CPU share of the watchdog check task across configurations.

    Expected shape: overhead grows linearly with check cost and
    inversely with the check period; at the paper-like operating point
    (10 ms period, tens of microseconds per check) it stays well below
    one percent of consumed CPU.
    """
    periods = periods or [ms(5), ms(10), ms(20), ms(50)]
    check_costs = check_costs or [10, 50, 200]
    rows: List[Dict[str, object]] = []
    for period in periods:
        for cost in check_costs:
            ecu = Ecu(
                "central",
                safespeed_mapping(),
                watchdog_period=period,
                watchdog_check_cost=cost,
            )
            ecu.run_until(horizon)
            rows.append(
                {
                    "watchdog_period_ms": period / 1000.0,
                    "check_cost_us": cost,
                    "cpu_share": watchdog_cpu_share(
                        ecu.kernel, ecu.binding.task_name
                    ),
                    "utilization": ecu.kernel.utilization(),
                    "false_positives": ecu.watchdog.detection_count(),
                }
            )
    return rows


def _staggered_unit(
    runnables: int, period: int, telemetry=None
) -> HeartbeatMonitoringUnit:
    """An HBM unit with ``runnables`` healthy runnables whose monitoring
    periods are phase-staggered so roughly ``runnables / period`` checks
    fall due on every cycle (instead of all of them every ``period``
    cycles)."""
    hyp = FaultHypothesis()
    for i in range(runnables):
        hyp.add_runnable(
            RunnableHypothesis(
                f"R{i:05d}",
                task=f"T{i % 8}",
                aliveness_period=period,
                min_heartbeats=0,  # healthy by construction: no errors
                arrival_period=period,
                max_heartbeats=1 << 30,
            )
        )
    unit = HeartbeatMonitoringUnit(hyp, telemetry=telemetry)
    # Spread the deadline phases: re-arming slot i at warm-up cycle
    # i % period staggers expiries uniformly across the period.
    for c in range(period):
        for i in range(c, runnables, period):
            unit.set_activation_status(unit.names[i], False)
            unit.set_activation_status(unit.names[i], True)
        unit.cycle(time=c)
    return unit


def check_cycle_scaling_rows(
    *,
    runnable_counts: List[int] = None,
    period: int = 100,
    cycles: int = 200,
) -> List[Dict[str, object]]:
    """Per-cycle HBM check cost as the monitored population grows.

    Every configuration monitors ``n`` healthy runnables whose periods
    expire phase-staggered, so about ``n / period`` checks are due per
    cycle (1 % at the default ``period=100``).  The expiry wheel visits
    only the due slots, so ``visits_per_cycle`` (the deterministic
    operation count) equals ``due_per_cycle`` and the cost does not
    depend on the undue population; ``us_per_cycle`` is the measured
    wall-clock cost.
    """
    runnable_counts = runnable_counts or [100, 1000]
    rows: List[Dict[str, object]] = []
    for n in runnable_counts:
        unit = _staggered_unit(n, period)
        visits_before = unit.slots_visited
        cycles_before = unit.cycle_count
        start = _time.perf_counter()
        for c in range(cycles):
            unit.cycle(time=cycles_before + c)
        elapsed = _time.perf_counter() - start
        rows.append(
            {
                "runnables": n,
                "due_per_cycle": round(n / period, 2),
                "visits_per_cycle": round(
                    (unit.slots_visited - visits_before) / cycles, 2
                ),
                "us_per_cycle": round(1e6 * elapsed / cycles, 2),
            }
        )
    return rows


def campaign_scaling_rows(
    *,
    worker_counts: List[int] = None,
    repetitions: int = 3,
    warmup: int = ms(300),
    observation: int = ms(500),
) -> List[Dict[str, object]]:
    """E1 campaign throughput: serial vs N worker processes.

    Every injection experiment is an independent fresh system, so the
    campaign is embarrassingly parallel; with enough cores, throughput
    scales near-linearly until runs outnumber workers.  On a small
    machine the table still verifies the parallel path end to end —
    ``speedup_vs_serial`` just saturates at the core count.
    """
    from ..faults.campaigns import Campaign
    from .coverage import build_coverage_system, standard_fault_specs

    worker_counts = worker_counts or [1, 2, 4]
    specs = standard_fault_specs(repetitions)
    rows: List[Dict[str, object]] = []
    serial_elapsed: float = 0.0
    for workers in worker_counts:
        campaign = Campaign(
            build_coverage_system, warmup=warmup, observation=observation
        )
        start = _time.perf_counter()
        result = campaign.execute(specs, workers=workers)
        elapsed = _time.perf_counter() - start
        if workers == 1:
            serial_elapsed = elapsed
        rows.append(
            {
                "workers": workers,
                "runs": len(result.runs),
                "wall_s": round(elapsed, 3),
                "runs_per_s": round(len(result.runs) / elapsed, 1),
                "speedup_vs_serial": (
                    round(serial_elapsed / elapsed, 2) if serial_elapsed else None
                ),
            }
        )
    return rows


def passive_vs_polling_rows(
    *,
    horizon: int = seconds(5),
    runnables: int = 3,
    watchdog_period: int = ms(10),
    task_period: int = ms(10),
) -> List[Dict[str, object]]:
    """Bookkeeping operations: passive heartbeats vs active polling.

    The paper "chose a passive approach to record and monitor the
    runnable updates" (§3.2.1).  The alternative — the watchdog actively
    interrogating every runnable's state each cycle — costs one probe
    per (runnable × cycle) regardless of activity, while the passive
    design costs one counter increment per actual execution plus one
    bounds check per (runnable × period expiry).
    """
    cycles = horizon // watchdog_period
    executions_per_runnable = horizon // task_period
    passive_ops = (
        runnables * executions_per_runnable  # heartbeat increments
        + runnables * cycles  # per-cycle counter checks
    )
    polling_ops = runnables * cycles * 2  # query + compare per runnable
    # With many idle/slow runnables the polling cost is unchanged while
    # the passive cost falls with actual activity; show a slow variant.
    slow_passive_ops = (
        runnables * (horizon // (task_period * 10)) + runnables * cycles
    )
    return [
        {
            "design": "passive heartbeats (paper)",
            "ops": passive_ops,
            "scenario": "nominal 10 ms task",
        },
        {
            "design": "active polling",
            "ops": polling_ops,
            "scenario": "nominal 10 ms task",
        },
        {
            "design": "passive heartbeats (paper)",
            "ops": slow_passive_ops,
            "scenario": "slow 100 ms task",
        },
        {
            "design": "active polling",
            "ops": polling_ops,
            "scenario": "slow 100 ms task",
        },
    ]
