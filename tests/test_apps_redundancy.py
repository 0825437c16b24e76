"""Tests for the fault-tolerant voted sensor."""

import pytest

from repro.apps import VotedSensor


class MutableChannel:
    def __init__(self, value=10.0):
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.value


def make_voter(n=3, tolerance=0.5, lockout_after=3):
    channels = [MutableChannel(10.0) for _ in range(n)]
    return VotedSensor([c for c in channels],
                       miscompare_tolerance=tolerance,
                       lockout_after=lockout_after), channels


class TestConfiguration:
    def test_needs_two_channels(self):
        with pytest.raises(ValueError):
            VotedSensor([lambda: 0.0], miscompare_tolerance=1.0)

    def test_positive_tolerance(self):
        with pytest.raises(ValueError):
            VotedSensor([lambda: 0.0] * 3, miscompare_tolerance=0.0)


class TestVoting:
    def test_agreement_passes_value(self):
        voter, channels = make_voter()
        result = voter.read()
        assert result.value == 10.0
        assert result.healthy_channels == 3
        assert not result.degraded
        assert result.miscomparing == []

    def test_median_masks_single_outlier(self):
        voter, channels = make_voter()
        channels[1].value = 99.0  # stuck-at-high fault
        result = voter.read()
        assert result.value == 10.0
        assert result.miscomparing == [1]

    def test_persistent_outlier_locked_out(self):
        voter, channels = make_voter(lockout_after=3)
        channels[2].value = -50.0
        for _ in range(3):
            voter.read()
        assert voter.locked_out_channels() == [2]
        result = voter.read()
        assert result.degraded
        assert result.healthy_channels == 2
        assert channels[2].calls == 3  # no longer sampled

    def test_transient_glitch_not_locked_out(self):
        voter, channels = make_voter(lockout_after=3)
        channels[0].value = 99.0
        voter.read()
        voter.read()
        channels[0].value = 10.0  # recovered before the lock-out count
        voter.read()
        channels[0].value = 99.0
        voter.read()
        assert voter.locked_out_channels() == []

    def test_two_channel_vote_is_average(self):
        voter, channels = make_voter(lockout_after=1)
        channels[0].value = 100.0  # immediate lockout
        voter.read()
        channels[1].value = 12.0
        channels[2].value = 14.0
        result = voter.read()
        assert result.value == pytest.approx(13.0)

    def test_total_loss_holds_last_value(self):
        voter, channels = make_voter(n=2, lockout_after=1)
        voter.read()
        channels[0].value = 100.0
        channels[1].value = -100.0
        voter.read()  # both miscompare against their average -> lock out
        result = voter.read()
        assert result.healthy_channels == 0
        assert result.degraded

    def test_as_channel_adapter(self):
        voter, channels = make_voter()
        port = voter.as_channel()
        assert port() == 10.0
        assert voter.vote_count == 1


class TestComplementarity:
    def test_voter_masks_value_fault_watchdog_misses(self, kernel):
        """A stuck sensor channel corrupts *data*, not *timing*: the
        watchdog stays silent while the voter masks the fault — the two
        mechanisms protect orthogonal failure modes."""
        from repro.core import (FaultHypothesis, RunnableHypothesis,
                                SoftwareWatchdog, install_heartbeat_glue)
        from repro.kernel import AlarmTable, Runnable, Task, ms, runnable_sequence_body
        from repro.core.integration import WatchdogTaskBinding

        voter, channels = make_voter()
        samples = []
        r = Runnable("Sense", kernel, wcet=ms(1),
                     behaviour=lambda rn, t: samples.append(voter.read().value))
        kernel.add_task(Task("T", 5, runnable_sequence_body([r])))
        alarms = AlarmTable(kernel)
        alarms.alarm_activate_task("A", "T").set_rel(ms(10), ms(10))
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis("Sense", task="T",
                                            aliveness_period=2,
                                            arrival_period=2, max_heartbeats=3))
        wd = SoftwareWatchdog(hyp)
        install_heartbeat_glue(wd, r)
        WatchdogTaskBinding(kernel, alarms, wd, period=ms(10), priority=20)
        kernel.run_until(ms(200))
        channels[1].value = 500.0  # value fault
        kernel.run_until(ms(500))
        assert wd.detection_count() == 0  # timing is fine
        assert all(v == 10.0 for v in samples)  # data stayed correct
