"""E1 — fault-detection coverage analysis (the paper's outlook study).

Runs an injection campaign over every fault class in the catalogue
against four monitors side by side:

* the **Software Watchdog** (runnable granularity — the paper's service),
* the **ECU hardware watchdog** (whole-software granularity),
* **deadline monitoring** (task granularity, OSEKtime style),
* **execution-time monitoring** (task granularity, AUTOSAR OS style).

Expected shape: the Software Watchdog covers every class; the baselines
cover only the classes visible at their granularity (CPU starvation for
the HW watchdog, task overrun for deadline/budget monitors) and miss
runnable-level blocking, arrival-rate and flow faults.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

from ..apps.safespeed import safespeed_mapping
from ..baselines.deadline_monitor import DeadlineMonitor
from ..baselines.exec_time_monitor import ExecutionTimeMonitor
from ..baselines.hw_watchdog import HardwareWatchdog, attach_kick_task
from ..faults.campaigns import (
    Campaign,
    CampaignResult,
    CampaignSystem,
    DetectionRecorder,
    FaultFactory,
    ProgressCallback,
    watchdog_detector,
)
from ..faults.models import (
    BlockedRunnableFault,
    FaultModel,
    FaultTarget,
    HeartbeatCorruptionFault,
    InvalidBranchFault,
    LoopCountFault,
    SkipRunnableFault,
    TimeScalarFault,
)
from ..kernel.clock import ms, seconds
from ..kernel.task import Segment, Task
from ..platform.ecu import Ecu
from ..platform.fmf import FmfPolicy


class _BaselineAdapter(DetectionRecorder):
    """Wraps a baseline monitor's ``first_detection_after``."""

    def __init__(self, name: str, monitor) -> None:
        super().__init__(name)
        self._monitor = monitor

    def first_detection_after(self, time: int) -> Optional[int]:
        return self._monitor.first_detection_after(time)


def build_coverage_system() -> CampaignSystem:
    """One fresh system with all four monitors attached."""
    ecu = Ecu(
        "central",
        safespeed_mapping(),
        watchdog_period=ms(10),
        fmf_policy=FmfPolicy(ecu_faulty_task_threshold=10**6,
                             max_app_restarts=10**6),
        fmf_auto_treatment=False,
    )
    sw = watchdog_detector(ecu.watchdog)

    hw = HardwareWatchdog(ecu.kernel, timeout=ms(100))
    kick = attach_kick_task(ecu.kernel, hw)
    ecu.alarms.alarm_activate_task("hwkick", kick.name).set_rel(ms(30), ms(30))
    hw.start()

    deadline = DeadlineMonitor(ecu.kernel)
    deadline.monitor("SafeSpeedTask", deadline=ms(9))

    budget = ExecutionTimeMonitor(ecu.kernel)
    budget.monitor("SafeSpeedTask", budget=ms(5))

    # A runaway task primed for the CPU-starvation fault class.
    def runaway_body(task):
        while True:
            yield Segment(ms(50))

    ecu.kernel.add_task(Task("Runaway", 9, runaway_body))

    return CampaignSystem(
        target=FaultTarget.from_ecu(ecu),
        detectors=[
            sw,
            _BaselineAdapter("HardwareWatchdog", hw),
            _BaselineAdapter("DeadlineMonitor", deadline),
            _BaselineAdapter("ExecTimeMonitor", budget),
        ],
        run_until=ecu.run_until,
        now=lambda: ecu.now,
    )


class _RunawayFault(FaultModel):
    """CPU starvation: activate the primed runaway task (priority above
    every application, below the watchdog check task)."""

    expected_error = "aliveness"

    def __init__(self) -> None:
        super().__init__("runaway_task")

    def _apply(self, target) -> None:
        target.kernel.activate_task("Runaway")


def standard_fault_specs(repetitions: int = 1) -> List[FaultFactory]:
    """The campaign's fault list: one fault factory per (class, variant).

    Each is a class or a ``partial`` of one, so it pickles, which is
    what lets ``workers=N`` ship the very same campaign to worker
    processes.
    """
    base = [
        partial(BlockedRunnableFault, "SAFE_CC_process"),
        partial(BlockedRunnableFault, "GetSensorValue"),
        partial(TimeScalarFault, "SafeSpeedTask", 4.0),
        partial(LoopCountFault, "GetSensorValue", 4),
        partial(SkipRunnableFault, "SafeSpeedTask", "SAFE_CC_process"),
        partial(InvalidBranchFault, "SafeSpeedTask", 1, "Speed_process"),
        partial(HeartbeatCorruptionFault, "SAFE_CC_process", "Speed_process"),
        _RunawayFault,
    ]
    return base * repetitions


def run_coverage_campaign(
    *,
    warmup: int = ms(300),
    observation: int = seconds(2),
    repetitions: int = 1,
    workers: int = 1,
    progress: Optional[ProgressCallback] = None,
    telemetry=None,
) -> CampaignResult:
    """Execute the E1 campaign and return the aggregated result.

    ``workers=N`` fans the injections out over N processes (``0`` =
    ``os.cpu_count()``); results are bit-for-bit identical to the
    serial run.
    """
    campaign = Campaign(
        build_coverage_system,
        warmup=warmup,
        observation=observation,
        telemetry=telemetry,
    )
    return campaign.execute(
        standard_fault_specs(repetitions), workers=workers, progress=progress
    )
