"""E4 — fault-treatment escalation study (§3.4).

Sweeps the TSI threshold and the FMF restart budget under a permanent
runnable fault and records the escalation chain: runnable errors → task
faulty → application restart → (budget exhausted) → ECU software reset.

Expected shape:

* time-to-task-fault grows linearly with the TSI threshold (each error
  needs one aliveness monitoring period),
* with a permanent fault, restarts never heal the system, so every
  restart budget eventually escalates to an ECU reset; a larger budget
  delays the first reset proportionally,
* with a *transient* fault shorter than the detection-to-restart chain,
  one restart heals the system and no reset ever happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..apps.safespeed import safespeed_mapping
from ..faults.models import BlockedRunnableFault, FaultTarget
from ..kernel.clock import ms, seconds
from ..platform.ecu import Ecu
from ..platform.fmf import FmfPolicy, TreatmentAction


@dataclass
class ThresholdRow:
    """One row of the threshold sweep."""

    threshold: int
    time_to_task_fault_ms: Optional[float]
    errors_at_fault: int


def run_threshold_sweep(
    thresholds: List[int] = (1, 2, 3, 4, 6),
    *,
    warmup: int = ms(300),
    observation: int = seconds(3),
) -> List[ThresholdRow]:
    """Time from injection to the task-faulty declaration per threshold."""
    rows: List[ThresholdRow] = []
    for threshold in thresholds:
        ecu = Ecu(
            "central",
            safespeed_mapping(),
            watchdog_period=ms(10),
            fmf_policy=FmfPolicy(ecu_faulty_task_threshold=10**6,
                                 max_app_restarts=10**6),
            fmf_auto_treatment=False,
        )
        ecu.watchdog.tsi.thresholds.default = threshold
        fault_times: List[int] = []
        ecu.watchdog.add_task_fault_listener(
            lambda event, log=fault_times: log.append(event.time)
        )
        ecu.run_until(warmup)
        inject_time = ecu.now
        BlockedRunnableFault("SAFE_CC_process").inject(FaultTarget.from_ecu(ecu))
        ecu.run_until(inject_time + observation)
        if fault_times:
            rows.append(
                ThresholdRow(
                    threshold=threshold,
                    time_to_task_fault_ms=(fault_times[0] - inject_time) / 1000.0,
                    errors_at_fault=threshold,
                )
            )
        else:
            rows.append(ThresholdRow(threshold, None, 0))
    return rows


@dataclass
class EscalationRow:
    """One row of the restart-budget sweep."""

    max_app_restarts: int
    fault_kind: str
    restarts: int
    resets: int
    time_to_first_reset_ms: Optional[float]
    recovered: bool


def run_escalation_sweep(
    budgets: List[int] = (1, 2, 4),
    *,
    warmup: int = ms(300),
    observation: int = seconds(5),
    transient_duration: Optional[int] = None,
) -> List[EscalationRow]:
    """Restart-budget sweep under a permanent (or transient) fault."""
    rows: List[EscalationRow] = []
    fault_kind = (
        "permanent" if transient_duration is None
        else f"transient({transient_duration // 1000} ms)"
    )
    for budget in budgets:
        ecu = Ecu(
            "central",
            safespeed_mapping(),
            watchdog_period=ms(10),
            fmf_policy=FmfPolicy(ecu_faulty_task_threshold=10**6,
                                 max_app_restarts=budget),
        )
        ecu.run_until(warmup)
        inject_time = ecu.now
        fault = BlockedRunnableFault("SAFE_CC_process")
        target = FaultTarget.from_ecu(ecu)
        fault.inject(target)
        if transient_duration is not None:
            ecu.kernel.queue.schedule(
                inject_time + transient_duration,
                lambda: fault.restore(target),
                label="restore",
                persistent=True,  # the fault's disappearance is physics
            )
        ecu.run_until(inject_time + observation)
        treatments = ecu.fmf.treatments_by_action()
        detections_now = ecu.watchdog.detection_count()
        ecu.run_until(ecu.now + seconds(1))
        recovered = ecu.watchdog.detection_count() == detections_now
        rows.append(
            EscalationRow(
                max_app_restarts=budget,
                fault_kind=fault_kind,
                restarts=treatments.get(TreatmentAction.RESTART_APPLICATION, 0),
                resets=len(ecu.reset_times),
                time_to_first_reset_ms=(
                    (ecu.reset_times[0] - inject_time) / 1000.0
                    if ecu.reset_times
                    else None
                ),
                recovered=recovered,
            )
        )
    return rows
