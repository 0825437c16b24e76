"""E1 — fault detection coverage: Software Watchdog vs baselines.

Regenerates the coverage × latency matrix over the full fault catalogue
for all four monitors.  Expected shape: the Software Watchdog covers
every class; the ECU hardware watchdog and the task-granular monitors
cover only the classes visible at their granularity.
"""

from benchutil import run_once

from repro.analysis import coverage_report
from repro.experiments import run_coverage_campaign
from repro.kernel import seconds


def test_bench_coverage_campaign(benchmark):
    result = run_once(benchmark, run_coverage_campaign, observation=seconds(1))
    for fault_class in {run.fault_class for run in result.runs}:
        assert result.coverage("SoftwareWatchdog", fault_class) == 1.0, \
            fault_class
    assert result.coverage("HardwareWatchdog", "BlockedRunnableFault") == 0.0
    assert result.coverage("HardwareWatchdog", "_RunawayFault") == 1.0
    print()
    print(coverage_report(result))
