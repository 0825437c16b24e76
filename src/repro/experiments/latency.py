"""E3 — detection latency study.

Measures, per fault class, the time from injection to first detection
for the Software Watchdog, and the effect of the design ablation called
out in DESIGN.md: checking counters "shortly before the next period
begins" (the paper's choice) versus flagging an arrival-rate overflow
eagerly on the offending heartbeat itself.

Expected shape: period-end checking bounds aliveness latency by roughly
one aliveness monitoring period; eager arrival detection cuts
arrival-rate latency below one period because the overflowing heartbeat
itself triggers the error.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..analysis.metrics import LatencyStats
from ..apps.safespeed import safespeed_mapping
from ..core.reports import ErrorType
from ..faults.campaigns import Campaign, CampaignResult, CampaignSystem, watchdog_detector
from ..faults.models import FaultTarget
from ..faults.registry import FaultSpec, SystemSpec, register_system
from ..kernel.clock import ms, seconds
from ..platform.ecu import Ecu
from ..platform.fmf import FmfPolicy


@register_system("latency")
def build_latency_system(eager: bool = False) -> CampaignSystem:
    """One fresh system with per-error-type detection channels."""
    ecu = Ecu(
        "central",
        safespeed_mapping(),
        watchdog_period=ms(10),
        fmf_policy=FmfPolicy(ecu_faulty_task_threshold=10**6,
                             max_app_restarts=10**6),
        fmf_auto_treatment=False,
        eager_arrival_detection=eager,
    )
    return CampaignSystem(
        target=FaultTarget.from_ecu(ecu),
        detectors=[
            watchdog_detector(ecu.watchdog),
            watchdog_detector(ecu.watchdog, "SW:aliveness",
                              ErrorType.ALIVENESS),
            watchdog_detector(ecu.watchdog, "SW:arrival_rate",
                              ErrorType.ARRIVAL_RATE),
            watchdog_detector(ecu.watchdog, "SW:program_flow",
                              ErrorType.PROGRAM_FLOW),
        ],
        run_until=ecu.run_until,
        now=lambda: ecu.now,
        context={"ecu": ecu},
    )


_FAULTS = [
    ("aliveness (blocked runnable)", "SW:aliveness",
     FaultSpec.of("blocked", runnable="SAFE_CC_process")),
    ("aliveness (slowed task)", "SW:aliveness",
     FaultSpec.of("time_scalar", task="SafeSpeedTask", scalar=4.0)),
    ("arrival rate (loop counter)", "SW:arrival_rate",
     FaultSpec.of("loop_count", runnable="GetSensorValue", repeat=4)),
    ("program flow (invalid branch)", "SW:program_flow",
     FaultSpec.of("invalid_branch", chart="SafeSpeedTask", at_step=1,
                  branch_to="Speed_process")),
]


def run_latency_study(
    *,
    repetitions: int = 3,
    warmup: int = ms(300),
    observation: int = seconds(1),
    workers: int = 1,
    telemetry=None,
) -> List[Dict[str, object]]:
    """Latency per fault class × check-mode; one table row each.

    ``workers=N`` parallelizes each fault's repetitions across worker
    processes (``0`` = ``os.cpu_count()``); rows are identical to the
    serial study.
    """
    rows: List[Dict[str, object]] = []
    for eager in (False, True):
        campaign = Campaign(
            SystemSpec.of("latency", eager=eager),
            warmup=warmup, observation=observation,
            telemetry=telemetry,
        )
        for label, channel, factory in _FAULTS:
            result: CampaignResult = campaign.execute(
                [factory] * repetitions, workers=workers
            )
            stats: Optional[LatencyStats] = LatencyStats.from_values(
                result.latencies(channel)
            )
            rows.append(
                {
                    "fault": label,
                    "check_mode": "eager-arrival" if eager else "period-end",
                    "detected": result.coverage(channel),
                    "mean_latency_ms": (
                        None if stats is None else stats.mean / 1000.0
                    ),
                    "p95_latency_ms": (
                        None if stats is None else stats.p95 / 1000.0
                    ),
                }
            )
    return rows
