"""SafeSpeed on the EASIS architecture validator (the paper's §4 setup).

Runs the full HIL rig — vehicle dynamics, CAN/FlexRay/TCP networks,
gateway, sensor/actuator/driver/light nodes, and the central ECU hosting
SafeSpeed + SafeLane + steer-by-wire under watchdog supervision — then
reproduces the Figure 5 evaluation case live: a time-scalar slider slows
the SafeSpeed task mid-drive and the aliveness monitor reacts, all while
the vehicle keeps driving.

Run:  python examples/safespeed_hil.py
"""

from repro.analysis import render_panels
from repro.kernel import ms, seconds
from repro.platform import FmfPolicy
from repro.validator import HilValidator


def main() -> None:
    rig = HilValidator(
        # Observation mode so the counter traces stay untouched.
        fmf_policy=FmfPolicy(ecu_faulty_task_threshold=10**6,
                             max_app_restarts=10**6),
        fmf_auto_treatment=False,
    )
    rig.probe_counters("SAFE_CC_process")

    print("== phase 1: drive 3 s healthy ==")
    rig.run(seconds(3))
    print(f"  vehicle speed:   {rig.vehicle.state.speed_kph:6.1f} km/h")
    print(f"  commanded limit: "
          f"{rig.central_store.value('SpeedCommand', 'limit_kph'):6.1f} km/h")
    print(f"  detections:      {rig.ecu.watchdog.detection_count()}")

    print("\n== phase 2: slider slows SafeSpeedTask 4x for 2 s ==")
    rig.parameters.set_now("safespeed.time_scalar", 4.0)
    rig.run(seconds(2))
    rig.parameters.set_now("safespeed.time_scalar", 1.0)

    print("\n== phase 3: drive 2 s recovered ==")
    rig.run(seconds(2))

    summary = rig.summary()
    print("\nrig summary:")
    for key, value in summary.items():
        print(f"  {key}: {value}")

    print("\nControlDesk capture (Figure 5 layout):")
    print(
        render_panels(
            {
                "speed_kph": rig.capture.get("speed_kph").values,
                "SAFE_CC_process.AC": rig.capture.get("SAFE_CC_process.AC").values,
                "AM_Result": rig.capture.get("AM_Result").values,
            },
            title="Test with injected aliveness error",
        )
    )


if __name__ == "__main__":
    main()
