"""Experiment harnesses: one module per table/figure of DESIGN.md.

These functions regenerate the paper's evaluation (Figures 5–6, plus the
implicit arrival-rate and control-flow cases) and the extension studies
named in the outlook (coverage E1, overhead E2, latency E3, treatment
E4, reconfiguration E5, tool chain F3).  The ``benchmarks/`` tree wraps
them with pytest-benchmark; EXPERIMENTS.md records their outputs.
"""

from .coverage import (
    build_coverage_system,
    run_coverage_campaign,
    standard_fault_specs,
)
from .distributed_exp import (
    DistributedReport,
    run_distributed_supervision,
    run_supervision_latency_sweep,
)
from .figures import (
    FigureResult,
    run_figure5,
    run_figure5b,
    run_figure5c,
    run_figure6,
)
from .jitter import JitterRow, run_alarm_release, run_jitter_ablation, run_schedule_table_release
from .latency import run_latency_study
from .latency import build_latency_system
from .overhead import (
    campaign_scaling_rows,
    check_cycle_scaling_rows,
    flow_checking_rows,
    passive_vs_polling_rows,
    watchdog_cpu_rows,
)
from .reconfig import ReconfigReport, run_reconfiguration
from .toolchain import ToolchainReport, functional_model, map_onto_architecture, run_toolchain
from .treatment import (
    EscalationRow,
    ThresholdRow,
    run_escalation_sweep,
    run_threshold_sweep,
)

__all__ = [
    "DistributedReport",
    "EscalationRow",
    "FigureResult",
    "JitterRow",
    "ReconfigReport",
    "ThresholdRow",
    "ToolchainReport",
    "build_coverage_system",
    "build_latency_system",
    "campaign_scaling_rows",
    "check_cycle_scaling_rows",
    "flow_checking_rows",
    "functional_model",
    "map_onto_architecture",
    "passive_vs_polling_rows",
    "run_alarm_release",
    "run_coverage_campaign",
    "run_distributed_supervision",
    "run_escalation_sweep",
    "run_figure5",
    "run_figure5b",
    "run_figure5c",
    "run_figure6",
    "run_jitter_ablation",
    "run_latency_study",
    "run_reconfiguration",
    "run_schedule_table_release",
    "run_supervision_latency_sweep",
    "run_threshold_sweep",
    "run_toolchain",
    "standard_fault_specs",
    "watchdog_cpu_rows",
]
