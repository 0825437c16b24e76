"""Benchmark: parallel campaign execution vs the serial baseline.

The E1 campaign is embarrassingly parallel — every injection is an
independent fresh system — so worker processes should buy near-linear
throughput until runs run out.  The scaling assertion (≥2× at 4
workers) needs ≥4 physical cores and skips with a reason otherwise;
the smoke test verifies the parallel path end to end on any machine.
"""

import os
import time

import pytest

from benchutil import run_once
from repro.experiments.coverage import build_coverage_system, standard_fault_specs
from repro.faults import Campaign
from repro.kernel import ms

_CPUS = os.cpu_count() or 1


def _campaign(observation=ms(500)):
    return Campaign(build_coverage_system, warmup=ms(300),
                    observation=observation)


def test_parallel_campaign_smoke(benchmark):
    """Tier-2 smoke: a 2-worker campaign completes and matches serial."""
    specs = standard_fault_specs(1)
    serial = _campaign().execute(specs)
    parallel = run_once(
        benchmark, lambda: _campaign().execute(specs, workers=2)
    )
    assert parallel.runs == serial.runs


@pytest.mark.skipif(
    _CPUS < 4,
    reason=f"campaign scaling needs >= 4 cores, host has {_CPUS}",
)
def test_four_workers_at_least_2x(benchmark):
    """≥2× throughput at 4 workers on a scaled-up fault list."""
    specs = standard_fault_specs(8)  # 64 runs — amortizes pool start-up

    start = time.perf_counter()
    serial = _campaign().execute(specs)
    serial_elapsed = time.perf_counter() - start

    parallel_result = {}

    def run_parallel():
        start = time.perf_counter()
        parallel_result["result"] = _campaign().execute(specs, workers=4)
        parallel_result["elapsed"] = time.perf_counter() - start

    run_once(benchmark, run_parallel)
    assert parallel_result["result"].runs == serial.runs
    speedup = serial_elapsed / parallel_result["elapsed"]
    print(f"\nserial {serial_elapsed:.2f}s, 4 workers "
          f"{parallel_result['elapsed']:.2f}s, speedup {speedup:.2f}x")
    assert speedup >= 2.0, f"expected >= 2x at 4 workers, got {speedup:.2f}x"
