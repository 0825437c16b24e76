"""Seeded wdbench schedules: deterministic per seed, and within contract."""

import pytest

from workloads import (
    COOLDOWN_S,
    SILENCE_TAIL_S,
    WORKLOADS,
    build_schedule,
)

NAMES = sorted(WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_byte_identical_schedules(name):
    first = build_schedule(WORKLOADS[name], 7, 20.0).to_bytes()
    assert build_schedule(WORKLOADS[name], 7, 20.0).to_bytes() == first


@pytest.mark.parametrize("name", NAMES)
def test_different_seed_gives_a_different_schedule(name):
    assert (build_schedule(WORKLOADS[name], 7, 20.0).to_bytes()
            != build_schedule(WORKLOADS[name], 8, 20.0).to_bytes())


@pytest.mark.parametrize("name", NAMES)
def test_silences_are_detectable_and_unambiguous(name):
    workload = WORKLOADS[name]
    schedule = build_schedule(workload, 3, 20.0)
    assert len(schedule.silences) >= 400
    last_end = {}
    busy_until = {}
    for s in sorted(schedule.silences, key=lambda s: s.start):
        assert s.start <= 20.0 - SILENCE_TAIL_S
        unit = (s.registration, s.runnable)
        if unit in last_end:
            assert s.start >= last_end[unit] + COOLDOWN_S - 1e-9
        last_end[unit] = s.end
        if workload.sender == "raw":
            # One pre-encoded frame variant per silent runnable.
            assert s.start >= busy_until.get(s.registration, 0.0)
            busy_until[s.registration] = s.end
