"""Analysis: metrics, overhead accounting, trace tools, text plots."""

from .mcu import (
    CORTEX_M7,
    McuProfile,
    S12XF,
    check_cycle_cycles,
    heartbeat_cycles,
    project_cpu_load,
    projection_rows,
)
from .metrics import (
    LatencyStats,
    coverage_report,
    latency_stats,
    percentile,
)
from .overhead import (
    FlowCheckOverhead,
    build_runnable_cfg,
    compare_flow_checking,
    measure_cfcss,
    measure_lookup_table,
    watchdog_cpu_share,
)
from .plots import format_table, panel, render_panels, resample
from .traces import (
    activation_times,
    heartbeat_gaps,
    heartbeat_times,
    response_times,
)

__all__ = [
    "CORTEX_M7",
    "FlowCheckOverhead",
    "LatencyStats",
    "McuProfile",
    "S12XF",
    "activation_times",
    "build_runnable_cfg",
    "check_cycle_cycles",
    "compare_flow_checking",
    "coverage_report",
    "format_table",
    "heartbeat_cycles",
    "heartbeat_gaps",
    "heartbeat_times",
    "latency_stats",
    "measure_cfcss",
    "measure_lookup_table",
    "panel",
    "percentile",
    "project_cpu_load",
    "projection_rows",
    "render_panels",
    "resample",
    "response_times",
    "watchdog_cpu_share",
]
