"""Tests for OSEK counters and alarms."""

import pytest

from repro.kernel import (
    AlarmTable,
    KernelConfigError,
    OsCounter,
    Segment,
    ServiceError,
    StatusType,
    Task,
    TraceKind,
    ms,
)

from testutil import activation_recorder


class TestOsCounter:
    def test_to_ticks(self):
        counter = OsCounter("C", ticks_per_increment=100)
        assert counter.to_ticks(5) == 500

    def test_bad_ticks_per_increment(self):
        with pytest.raises(KernelConfigError):
            OsCounter("C", ticks_per_increment=0)


class TestAlarmOneShot:
    def test_one_shot_fires_once(self, kernel, alarms):
        fired = activation_recorder(kernel, "T")
        alarm = alarms.alarm_activate_task("A", "T")
        alarm.set_rel(ms(5))
        kernel.run_until(ms(50))
        assert fired == [ms(5)]
        assert not alarm.armed

    def test_rearm_after_expiry(self, kernel, alarms):
        fired = activation_recorder(kernel, "T")
        alarm = alarms.alarm_activate_task("A", "T")
        alarm.set_rel(ms(5))
        kernel.run_until(ms(10))
        alarm.set_rel(ms(5))
        kernel.run_until(ms(30))
        assert fired == [ms(5), ms(15)]

    def test_set_while_armed_rejected(self, kernel, alarms):
        alarm = alarms.alarm_activate_task("A", "T")
        assert alarm.set_rel(ms(5)) is StatusType.E_OK
        assert alarm.set_rel(ms(5)) is StatusType.E_OS_STATE

    def test_bad_offset(self, kernel, alarms):
        alarm = alarms.alarm_activate_task("A", "T")
        assert alarm.set_rel(0) is StatusType.E_OS_VALUE
        assert alarm.set_rel(-5) is StatusType.E_OS_VALUE


class TestAlarmCyclic:
    def test_cyclic_fires_repeatedly(self, kernel, alarms):
        fired = activation_recorder(kernel, "T")
        alarm = alarms.alarm_activate_task("A", "T")
        alarm.set_rel(ms(10), ms(10))
        kernel.run_until(ms(45))
        assert fired == [ms(10), ms(20), ms(30), ms(40)]
        assert alarm.expiry_count == 4
        assert alarm.armed

    def test_cancel_stops_cycle(self, kernel, alarms):
        fired = activation_recorder(kernel, "T")
        alarm = alarms.alarm_activate_task("A", "T")
        alarm.set_rel(ms(10), ms(10))
        kernel.run_until(ms(25))
        assert alarm.cancel() is StatusType.E_OK
        kernel.run_until(ms(100))
        assert len(fired) == 2

    def test_cancel_unarmed_rejected(self, kernel, alarms):
        alarm = alarms.alarm_activate_task("A", "T")
        assert alarm.cancel() is StatusType.E_OS_NOFUNC


class TestAlarmActions:
    def test_activate_task_action(self, kernel, alarms):
        def body(task):
            yield Segment(10)

        kernel.add_task(Task("T", 1, body))
        alarms.alarm_activate_task("A", "T").set_rel(ms(5), ms(5))
        kernel.run_until(ms(22))
        assert len(kernel.trace.filter(TraceKind.TASK_TERMINATE, "T")) == 4

    def test_counter_scaling(self, kernel):
        """Alarms on a slow counter expire at scaled times."""
        slow = OsCounter("slow", ticks_per_increment=ms(1))
        table = AlarmTable(kernel, system_counter=slow)
        fired = activation_recorder(kernel, "T")
        table.alarm_activate_task("A", "T").set_rel(5, 5)
        kernel.run_until(ms(12))
        assert fired == [ms(5), ms(10)]


class TestAlarmTable:
    def test_duplicate_alarm_rejected(self, kernel, alarms):
        alarms.alarm_activate_task("A", "T")
        with pytest.raises(KernelConfigError):
            alarms.alarm_activate_task("A", "T")

    def test_get_unknown_raises(self, kernel, alarms):
        with pytest.raises(ServiceError):
            alarms.get("ghost")

    def test_rearm_after_reset_restores_cyclic_only(self, kernel, alarms):
        cyclic = activation_recorder(kernel, "Cyclic")
        oneshot = activation_recorder(kernel, "OneShot")
        cyc = alarms.alarm_activate_task("C", "Cyclic")
        one = alarms.alarm_activate_task("O", "OneShot")
        cyc.set_rel(ms(10), ms(10))
        one.set_rel(ms(15))
        kernel.run_until(ms(1))
        kernel.soft_reset()  # queue cleared
        alarms.rearm_after_reset()
        kernel.run_until(ms(40))
        assert cyclic == [ms(11), ms(21), ms(31)]  # re-armed at reset time 1
        assert oneshot == []  # one-shots stay lost
