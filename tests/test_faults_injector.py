"""Tests for the error injector scheduling."""

import pytest

from repro.core import ErrorType
from repro.faults import BlockedRunnableFault, ErrorInjector, FaultTarget
from repro.kernel import ms, seconds
from repro.platform import Ecu, FmfPolicy

from testutil import make_safespeed_mapping


@pytest.fixture
def rig():
    ecu = Ecu(
        "central",
        make_safespeed_mapping(),
        watchdog_period=ms(10),
        fmf_policy=FmfPolicy(ecu_faulty_task_threshold=99, max_app_restarts=10**9),
    )
    ecu.run_until(ms(100))
    return ecu, ErrorInjector(FaultTarget.from_ecu(ecu))


class TestImmediateInjection:
    def test_inject_now(self, rig):
        ecu, injector = rig
        record = injector.inject_now(BlockedRunnableFault("SAFE_CC_process"))
        assert record.fault.active
        assert record.inject_time == ecu.now

    def test_restore_now(self, rig):
        ecu, injector = rig
        fault = BlockedRunnableFault("SAFE_CC_process")
        injector.inject_now(fault)
        injector.restore_now(fault)
        assert not fault.active
        assert injector.records[0].restore_time == ecu.now

    def test_restore_all(self, rig):
        ecu, injector = rig
        f1 = BlockedRunnableFault("SAFE_CC_process")
        f2 = BlockedRunnableFault("GetSensorValue")
        injector.inject_now(f1)
        injector.inject_now(f2)
        injector.restore_all()
        assert not f1.active and not f2.active


class TestScheduledInjection:
    def test_inject_at_future_time(self, rig):
        ecu, injector = rig
        fault = BlockedRunnableFault("SAFE_CC_process")
        injector.inject_at(ms(300), fault)
        ecu.run_until(ms(250))
        assert not fault.active
        ecu.run_until(ms(350))
        assert fault.active

    def test_transient_fault_auto_restores(self, rig):
        ecu, injector = rig
        fault = BlockedRunnableFault("SAFE_CC_process")
        injector.inject_at(ms(300), fault, restore_at=ms(600))
        ecu.run_until(seconds(1))
        assert not fault.active
        # The fault was active long enough to be detected ...
        assert ecu.watchdog.detection_count(ErrorType.ALIVENESS) > 0
        # ... and the runnable is running again afterwards.
        executions = ecu.system.runnables["SAFE_CC_process"].execution_count
        ecu.run_until(ecu.now + ms(200))
        assert ecu.system.runnables["SAFE_CC_process"].execution_count > executions

    def test_restore_must_follow_inject(self, rig):
        _, injector = rig
        with pytest.raises(ValueError):
            injector.inject_at(ms(500), BlockedRunnableFault("GetSensorValue"),
                               restore_at=ms(400))

    def test_records_track_schedule(self, rig):
        _, injector = rig
        record = injector.inject_at(
            ms(300), BlockedRunnableFault("SAFE_CC_process"), restore_at=ms(400)
        )
        assert record.inject_time == ms(300)
        assert record.restore_time == ms(400)
