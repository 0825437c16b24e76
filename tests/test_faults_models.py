"""Tests for the fault model catalogue (§4.5 injection mechanisms)."""

import pytest

from repro.core import ErrorType
from repro.faults import (
    BlockedRunnableFault,
    ErrorInjector,
    FaultTarget,
    HeartbeatCorruptionFault,
    InvalidBranchFault,
    LoopCountFault,
    SkipRunnableFault,
    TimeScalarFault,
)
from repro.kernel import TraceKind, ms, seconds
from repro.platform import Ecu, FmfPolicy

from testutil import make_safespeed_mapping


@pytest.fixture
def ecu():
    # A generous FMF budget keeps treatment from resetting the ECU, so
    # cumulative detection counters stay observable for assertions.
    policy = FmfPolicy(ecu_faulty_task_threshold=99, max_app_restarts=10**9)
    e = Ecu("central", make_safespeed_mapping(), watchdog_period=ms(10),
            fmf_policy=policy)
    e.run_until(ms(200))  # warm, healthy
    assert e.watchdog.detection_count() == 0
    return e


def run_with(ecu, fault, duration=seconds(1)):
    target = FaultTarget.from_ecu(ecu)
    fault.inject(target)
    ecu.run_until(ecu.now + duration)
    return target


class TestBlockedRunnable:
    def test_provokes_aliveness_errors(self, ecu):
        run_with(ecu, BlockedRunnableFault("SAFE_CC_process"))
        assert ecu.watchdog.detection_count(ErrorType.ALIVENESS,
                                            runnable="SAFE_CC_process") > 0

    def test_restore_recovers(self, ecu):
        target = FaultTarget.from_ecu(ecu)
        fault = BlockedRunnableFault("SAFE_CC_process")
        fault.inject(target)
        ecu.run_until(ecu.now + ms(500))
        fault.restore(target)
        ecu.run_until(ecu.now + ms(100))  # flush straddling period
        count = ecu.watchdog.detection_count()
        ecu.run_until(ecu.now + seconds(1))
        assert ecu.watchdog.detection_count() == count

    def test_trace_records_injection(self, ecu):
        run_with(ecu, BlockedRunnableFault("SAFE_CC_process"), duration=ms(10))
        records = ecu.kernel.trace.filter(kind=TraceKind.FAULT_INJECTED)
        assert len(records) == 1
        assert records[0].info["fault_class"] == "BlockedRunnableFault"

    def test_double_inject_noop(self, ecu):
        target = FaultTarget.from_ecu(ecu)
        fault = BlockedRunnableFault("SAFE_CC_process")
        fault.inject(target)
        fault.inject(target)
        assert len(ecu.kernel.trace.filter(kind=TraceKind.FAULT_INJECTED)) == 1


class TestTimeScalar:
    def test_slow_scalar_provokes_aliveness(self, ecu):
        run_with(ecu, TimeScalarFault("SafeSpeedTask", scalar=4.0))
        assert ecu.watchdog.detection_count(ErrorType.ALIVENESS) > 0
        assert ecu.watchdog.detection_count(ErrorType.PROGRAM_FLOW) == 0

    def test_fast_scalar_provokes_arrival_rate(self):
        # Short runnables so the dispatch rate can actually quadruple
        # (a saturated 4 ms task cannot exceed its own execution rate).
        mapping = make_safespeed_mapping(wcets=(ms(0.5), ms(1), ms(0.5)))
        ecu = Ecu("central", mapping, watchdog_period=ms(10),
                  fmf_policy=FmfPolicy(ecu_faulty_task_threshold=99,
                                       max_app_restarts=10**9))
        ecu.run_until(ms(200))
        run_with(ecu, TimeScalarFault("SafeSpeedTask", scalar=0.25))
        assert ecu.watchdog.detection_count(ErrorType.ARRIVAL_RATE) > 0

    def test_expected_error_classification(self):
        assert TimeScalarFault("T", 4.0).expected_error == "aliveness"
        assert TimeScalarFault("T", 0.25).expected_error == "arrival_rate"

    def test_invalid_scalar(self):
        with pytest.raises(ValueError):
            TimeScalarFault("T", 0.0)

    def test_restore_resumes_nominal_period(self, ecu):
        target = FaultTarget.from_ecu(ecu)
        fault = TimeScalarFault("SafeSpeedTask", scalar=4.0)
        fault.inject(target)
        ecu.run_until(ecu.now + ms(300))
        fault.restore(target)
        count_at_restore = len(ecu.kernel.trace.filter(
            TraceKind.TASK_ACTIVATE, "SafeSpeedTask"))
        ecu.run_until(ecu.now + ms(500))
        activations = (
            len(ecu.kernel.trace.filter(
                TraceKind.TASK_ACTIVATE, "SafeSpeedTask"))
            - count_at_restore
        )
        assert activations == 50  # back to 10 ms period


class TestLoopCount:
    def test_provokes_arrival_rate_error(self, ecu):
        run_with(ecu, LoopCountFault("GetSensorValue", repeat=4))
        assert ecu.watchdog.detection_count(ErrorType.ARRIVAL_RATE,
                                            runnable="GetSensorValue") > 0

    def test_self_loop_also_flow_error(self, ecu):
        run_with(ecu, LoopCountFault("GetSensorValue", repeat=4), duration=ms(100))
        # GetSensorValue -> GetSensorValue is not in the look-up table.
        assert ecu.watchdog.detection_count(ErrorType.PROGRAM_FLOW) > 0

    def test_invalid_repeat(self):
        with pytest.raises(ValueError):
            LoopCountFault("R", repeat=1)

    def test_restore(self, ecu):
        target = FaultTarget.from_ecu(ecu)
        fault = LoopCountFault("GetSensorValue", repeat=4)
        fault.inject(target)
        fault.restore(target)
        assert target.runnables["GetSensorValue"].repeat == 1


class TestFlowFaults:
    def test_skip_runnable_flow_and_aliveness(self, ecu):
        run_with(ecu, SkipRunnableFault("SafeSpeedTask", "SAFE_CC_process"))
        assert ecu.watchdog.detection_count(ErrorType.PROGRAM_FLOW) > 0
        assert ecu.watchdog.detection_count(ErrorType.ALIVENESS,
                                            runnable="SAFE_CC_process") > 0

    def test_invalid_branch_detected(self, ecu):
        run_with(
            ecu,
            InvalidBranchFault("SafeSpeedTask", at_step=1, branch_to="Speed_process"),
            duration=ms(200),
        )
        assert ecu.watchdog.detection_count(ErrorType.PROGRAM_FLOW) > 0

    def test_restore_restores_nominal_sequence(self, ecu):
        target = FaultTarget.from_ecu(ecu)
        fault = SkipRunnableFault("SafeSpeedTask", "SAFE_CC_process")
        fault.inject(target)
        ecu.run_until(ecu.now + ms(200))
        fault.restore(target)
        executions = target.runnables["SAFE_CC_process"].execution_count
        ecu.run_until(ecu.now + ms(200))
        assert target.runnables["SAFE_CC_process"].execution_count > executions


class TestHeartbeatFaults:
    def test_corruption_provokes_flow_error(self, ecu):
        run_with(
            ecu,
            HeartbeatCorruptionFault("SAFE_CC_process", reported_as="Speed_process"),
            duration=ms(300),
        )
        assert ecu.watchdog.detection_count(ErrorType.PROGRAM_FLOW) > 0
        # The real runnable's heartbeats vanish -> aliveness too.
        assert ecu.watchdog.detection_count(ErrorType.ALIVENESS,
                                            runnable="SAFE_CC_process") > 0
