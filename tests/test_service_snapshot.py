"""Daemon snapshots: encoding, consistency, bounded size, old formats.

A snapshot must describe the *live* state: its size and the heap behind
it depend on the registrations, not on how many detections the daemon
has raised since it started.  The file is the canonical
``json.dumps(payload, sort_keys=True)``, streamed one registration at a
time, and the payload captured on the event loop stays a consistent cut
while a worker thread encodes it, even though it shares the compiled
hypothesis tables with live registrations.
"""

import gc
import json
import os
import stat
import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.core import FaultHypothesis, RunnableHypothesis
from repro.core.config_io import hypothesis_to_dict
from repro.service import StateStore
from repro.service.fleet import Fleet
from repro.service.persistence import _snapshot_fragments


def silent_hypothesis(runnables=1, window=1):
    """Every runnable must beat once per ``window`` cycles; a silent one
    raises one aliveness detection per window."""
    hyp = FaultHypothesis()
    for index in range(runnables):
        hyp.add_runnable(RunnableHypothesis(
            f"r{index}", task="T", aliveness_period=window,
            min_heartbeats=1, arrival_period=window, max_heartbeats=100))
    return hypothesis_to_dict(hyp)


def run_cycles(fleet, start, stop, beating=()):
    for cycle in range(start, stop):
        for name in fleet.registrations:
            for runnable in beating:
                fleet.heartbeat(name, runnable, cycle)
        fleet.tick(cycle)


def snapshot_bytes(fleet):
    return len(json.dumps(fleet.snapshot(), sort_keys=True))


def written_text(store):
    with open(store.snapshot_path, encoding="utf-8") as handle:
        return handle.read()


class TestFragments:
    def test_fleet_payload_byte_identical(self, tmp_path):
        fleet = Fleet()
        for index in range(7):
            fleet.register(f"appé{index}", silent_hypothesis(2, 2))
        run_cycles(fleet, 1, 12, beating=("r1",))
        store = StateStore(str(tmp_path / "state"))
        payload = store.build_snapshot_payload(fleet.snapshot(), name="d")
        store.write_snapshot_payload(payload)
        assert written_text(store) == json.dumps(payload, sort_keys=True)

    def test_empty_fleet_byte_identical(self, tmp_path):
        store = StateStore(str(tmp_path / "state"))
        payload = store.write_snapshot(Fleet().snapshot())
        assert written_text(store) == json.dumps(payload, sort_keys=True)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.recursive(
        st.none() | st.booleans() | st.integers()
        | st.floats(allow_nan=False) | st.text(),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(), inner, max_size=3),
        max_leaves=8), max_size=4), st.text(), st.integers())
    def test_any_json_tree_byte_identical(self, registrations, extra, seq):
        payload = {
            "fleet": {"registrations": registrations, extra: seq,
                      "state": extra},
            "seq": seq,
        }
        assert "".join(_snapshot_fragments(payload)) == json.dumps(
            payload, sort_keys=True)


class TestConsistentCut:
    def test_capture_unchanged_by_later_cycles_register_and_bye(
            self, tmp_path):
        hyp = silent_hypothesis(4, 3)
        fleet = Fleet()
        for index in range(6):
            fleet.register(f"app{index}", hyp)
        run_cycles(fleet, 1, 20, beating=("r2", "r3"))
        store = StateStore(str(tmp_path / "state"))
        capture = store.build_snapshot_payload(fleet.snapshot(), name="d")
        expected = json.dumps(capture, sort_keys=True)
        # The capture shares the compiled hypothesis tables with the
        # live registrations; none of this may show through.
        run_cycles(fleet, 20, 120, beating=("r3",))
        fleet.register("late", hyp)
        fleet.deregister("app0")
        run_cycles(fleet, 120, 125)
        store.write_snapshot_payload(capture)
        assert written_text(store) == expected


class TestBoundedBySize:
    def test_bytes_and_heap_independent_of_detection_count(self):
        fleet = Fleet()
        fleet.register("app", silent_hypothesis())
        tracemalloc.start()
        try:
            run_cycles(fleet, 1, 11)
            assert fleet.stats()["detections"] == 10
            small_bytes = snapshot_bytes(fleet)
            gc.collect()
            small_heap = tracemalloc.get_traced_memory()[0]
            run_cycles(fleet, 11, 10_001)
            assert fleet.stats()["detections"] == 10_000
            large_bytes = snapshot_bytes(fleet)
            gc.collect()
            large_heap = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert abs(large_bytes - small_bytes) <= 128
        assert abs(large_heap - small_heap) <= 1024


class TestOlderSnapshots:
    def test_error_log_snapshot_restores_clear_task_time(self, tmp_path):
        """A snapshot from before ``last_error_time`` carried the whole
        error log; restoring it must stamp the same time on the ECU
        state change ``clear_task`` causes as a run that never stopped."""
        fleet = Fleet()
        fleet.register("app", silent_hypothesis(2, 2))
        stream = []
        fleet.add_detection_listener(lambda _name, error: stream.append(error))
        run_cycles(fleet, 1, 9, beating=("r1",))
        run_cycles(fleet, 9, 14, beating=("r0", "r1"))
        assert stream and stream[-1].time < 13
        state = json.loads(json.dumps(fleet.snapshot()))
        tsi = state["registrations"][0]["watchdog"]["tsi"]
        del tsi["last_error_time"]
        tsi["error_log"] = [error.to_dict() for error in stream]
        store = StateStore(str(tmp_path / "state"))
        store.write_snapshot(state)

        revived = Fleet()
        revived.restore(StateStore(str(tmp_path / "state")).load()
                        .snapshot["fleet"])
        stamps = []
        for live in (fleet, revived):
            tsi_unit = live.registration("app").watchdog.tsi
            changes = []
            tsi_unit.add_ecu_state_listener(changes.append)
            tsi_unit.clear_task("T")
            stamps.append([(c.time, c.new_state) for c in changes])
        assert stamps[0] == stamps[1]
        assert stamps[0] and stamps[0][0][0] == stream[-1].time


class TestFsyncDirectory:
    def _record(self, monkeypatch, state_dir):
        events = []
        real_fsync, real_replace = os.fsync, os.replace
        dir_inode = os.stat(state_dir).st_ino

        def fsync(fd):
            info = os.fstat(fd)
            events.append("fsync-dir" if stat.S_ISDIR(info.st_mode)
                          and info.st_ino == dir_inode else "fsync-file")
            real_fsync(fd)

        def replace(src, dst):
            events.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        return events

    def test_snapshot_rename_and_journal_recreation_fsync_dir(
            self, tmp_path, monkeypatch):
        store = StateStore(str(tmp_path / "state"), fsync=True)
        store.append("journal.bye", "a")
        events = self._record(monkeypatch, store.state_dir)
        payload = store.build_snapshot_payload(Fleet().snapshot())
        store.write_snapshot_payload(payload)
        assert events == ["fsync-file", "replace", "fsync-dir"]
        del events[:]
        store.append("journal.bye", "b")
        store.truncate_journal_through(int(payload["seq"]))
        assert events[-1] == "fsync-dir"
        assert "fsync-file" in events  # the surviving record
        store.close()

    def test_no_directory_fsync_without_flag(self, tmp_path, monkeypatch):
        store = StateStore(str(tmp_path / "state"))
        events = self._record(monkeypatch, store.state_dir)
        store.write_snapshot(Fleet().snapshot())
        assert "fsync-dir" not in events
        store.close()
