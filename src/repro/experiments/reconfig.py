"""E5 — dynamic reconfiguration / fault containment study (outlook).

Two applications share the ECU (SafeSpeed and SafeLane).  SafeLane's
detection runnable suffers a permanent fault; the FMF exhausts its
restart budget and — because SafeLane tolerates termination while the
ECU must keep limiting speed — the policy terminates SafeLane rather
than resetting the ECU.

Expected shape (fault containment): SafeSpeed keeps regulating the
vehicle speed throughout; after SafeLane's termination its runnables are
no longer monitored (no alarm flood from a dead application) and the
global ECU state recovers to OK from the watchdog's perspective.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..faults.models import BlockedRunnableFault, FaultTarget
from ..kernel.clock import seconds
from ..platform.fmf import FmfPolicy
from ..validator.hil import HilValidator


@dataclass
class ReconfigReport:
    """Outcome of the reconfiguration scenario."""

    safelane_terminated: bool
    safelane_restarts: int
    ecu_resets: int
    speed_kph_at_end: float
    speed_regulated: bool
    detections_after_termination: int
    safespeed_state: str
    safelane_state: str


def run_reconfiguration(
    *,
    warmup: int = seconds(2),
    observation: int = seconds(6),
    settle: int = seconds(4),
    restart_budget: int = 2,
) -> ReconfigReport:
    """Run the containment scenario on the full HIL rig."""
    rig = HilValidator(
        fmf_policy=FmfPolicy(
            # A single faulty task must not be treated as a global ECU
            # failure while another safety function is running fine.
            ecu_faulty_task_threshold=2,
            max_app_restarts=restart_budget,
        ),
    )
    # SafeLane tolerates termination; an ECU reset would blank SafeSpeed.
    safelane_app = next(
        app for app in rig.ecu.mapping.applications if app.name == "SafeLane"
    )
    safelane_app.restartable = True
    safelane_app.ecu_reset_allowed = False

    rig.run(warmup)
    BlockedRunnableFault("LDW_process").inject(FaultTarget.from_ecu(rig.ecu))
    rig.run(observation)

    detections_at_term = rig.ecu.watchdog.detection_count()
    rig.run(settle)

    limit = rig.central_store.value("SpeedCommand", "limit_kph", 130.0)
    speed = rig.vehicle.state.speed_kph
    return ReconfigReport(
        safelane_terminated="SafeLane" in rig.ecu.terminated_applications,
        safelane_restarts=rig.ecu.application_restart_counts.get("SafeLane", 0),
        ecu_resets=len(rig.ecu.reset_times),
        speed_kph_at_end=speed,
        speed_regulated=speed <= limit + 2.0 and speed > limit * 0.5,
        detections_after_termination=(
            rig.ecu.watchdog.detection_count() - detections_at_term
        ),
        safespeed_state=rig.ecu.application_state("SafeSpeed").value,
        safelane_state=rig.ecu.application_state("SafeLane").value,
    )
