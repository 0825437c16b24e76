"""Overhead accounting: look-up-table PFC vs signature-based CFC.

§3.2.2 justifies the look-up table "to minimize performance penalty and
extensive modification requirements of applications" compared with
embedded signatures [CFCSS].  This module quantifies both dimensions on
equal footing:

* **runtime cost** — instrumentation operations executed per unit of
  application progress.  CFCSS pays at *every basic block* of every
  instrumented function; the watchdog's look-up table pays one table
  probe per *monitored runnable* heartbeat (runnables contain many basic
  blocks),
* **modification cost** — code sites that must be touched: CFCSS
  instruments every block and must be re-generated when the CFG changes;
  the watchdog needs one glue call per monitored runnable and a table
  entry per allowed transition,
* **watchdog CPU share** — the check task's simulated CPU consumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..baselines.cfcss import BasicBlockGraph, CfcssChecker
from ..core.flowcheck import ProgramFlowCheckingUnit


@dataclass
class FlowCheckOverhead:
    """Comparable overhead figures for one workload."""

    technique: str
    runtime_ops: int
    static_sites: int
    blocks_executed: int

    @property
    def ops_per_block(self) -> float:
        if self.blocks_executed == 0:
            return 0.0
        return self.runtime_ops / self.blocks_executed


def build_runnable_cfg(
    runnables: List[str], blocks_per_runnable: int
) -> BasicBlockGraph:
    """A CFG where each runnable expands into a chain of basic blocks
    with one internal branch-rejoin (the shape CFCSS instruments), and
    runnables chain in sequence."""
    graph = BasicBlockGraph()
    previous_exit = None
    for runnable in runnables:
        chain = [f"{runnable}.b{i}" for i in range(blocks_per_runnable)]
        graph.add_path(chain)
        if blocks_per_runnable >= 3:
            # One if/else: b0 -> b1 -> b2 and b0 -> alt -> b2 (fan-in at b2).
            alt = f"{runnable}.alt"
            graph.add_block(alt)
            graph.add_edge(chain[0], alt)
            graph.add_edge(alt, chain[2])
        if previous_exit is not None:
            graph.add_edge(previous_exit, chain[0])
        previous_exit = chain[-1]
    return graph


def measure_cfcss(
    runnables: List[str], blocks_per_runnable: int, executions: int
) -> FlowCheckOverhead:
    """Run ``executions`` straight-line passes through the CFG under
    CFCSS and report its overhead."""
    graph = build_runnable_cfg(runnables, blocks_per_runnable)
    entry = f"{runnables[0]}.b0"
    checker = CfcssChecker(graph, entry)
    walk = [entry]
    for runnable in runnables:
        for i in range(blocks_per_runnable):
            block = f"{runnable}.b{i}"
            if block != entry:
                walk.append(block)
    blocks = 0
    for _ in range(executions):
        checker.run_walk(walk)
        blocks += len(walk)
    return FlowCheckOverhead(
        technique="CFCSS",
        runtime_ops=checker.instruction_count,
        static_sites=checker.instrumentation_size(),
        blocks_executed=blocks,
    )


def measure_lookup_table(
    pfc: ProgramFlowCheckingUnit,
    runnables: List[str],
    blocks_per_runnable: int,
    executions: int,
) -> FlowCheckOverhead:
    """Run the same workload through the watchdog's look-up table.

    The application executes the same number of basic blocks, but the
    table is only consulted once per runnable heartbeat.
    """
    before = pfc.observation_count
    time = 0
    for _ in range(executions):
        pfc.reset_stream(None)
        for runnable in runnables:
            pfc.observe(runnable, time)
            time += 1
    blocks = executions * len(runnables) * blocks_per_runnable
    # Static sites: one glue call per monitored runnable + the table
    # entries themselves (configuration data, not code).
    static_sites = len(runnables) + pfc.table.pair_count()
    return FlowCheckOverhead(
        technique="lookup-table",
        runtime_ops=pfc.observation_count - before,
        static_sites=static_sites,
        blocks_executed=blocks,
    )


def compare_flow_checking(
    runnables: List[str],
    *,
    blocks_per_runnable: int = 10,
    executions: int = 100,
) -> List[Dict[str, object]]:
    """Side-by-side overhead table (the E2 experiment rows)."""
    from ..core.flowcheck import FlowTable

    table = FlowTable()
    table.allow_cycle(list(runnables))
    pfc = ProgramFlowCheckingUnit(table)
    results = [
        measure_cfcss(runnables, blocks_per_runnable, executions),
        measure_lookup_table(pfc, runnables, blocks_per_runnable, executions),
    ]
    rows = []
    for result in results:
        rows.append(
            {
                "technique": result.technique,
                "runtime_ops": result.runtime_ops,
                "ops_per_block": result.ops_per_block,
                "static_sites": result.static_sites,
                "blocks_executed": result.blocks_executed,
            }
        )
    return rows


def watchdog_cpu_share(kernel, watchdog_task_name: str) -> float:
    """Fraction of *consumed* CPU spent inside the watchdog check task."""
    total = kernel.cpu_busy_ticks
    if total == 0:
        return 0.0
    return kernel.task_cpu_ticks.get(watchdog_task_name, 0) / total
