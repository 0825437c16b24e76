"""Daemon snapshots: encoding, consistency, bounded size, old formats.

A snapshot must describe the *live* state: its size and the heap behind
it depend on the registrations, not on how many detections the daemon
has raised since it started.  The file is the canonical
``json.dumps(payload, sort_keys=True)``, streamed one registration at a
time.  Control frames the daemon applies between two slices of a
streamed snapshot restore exactly, and a snapshot that fails or is
cancelled at any file-system call leaves a state directory that
restores everything it had.
"""

import asyncio
import errno
import gc
import json
import os
import shutil
import stat
import tempfile
import tracemalloc

import pytest

from hypothesis import given, settings, strategies as st

from repro.core import FaultHypothesis, RunnableHypothesis
from repro.core.config_io import hypothesis_to_dict
from repro.service import StateStore, SupervisionServer, WatchdogClient
from repro.service import server as server_module
from repro.service.client import ClientError
from repro.service.fleet import Fleet
from repro.service.persistence import (
    JOURNAL_BYE,
    JOURNAL_REGISTER,
    FileIO,
    SnapshotWriter,
)
from repro.service.protocol import T_BYE, T_REGISTER
from test_service_server import _WireClient, in_thread, make_hyp_dict
from testutil import until


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


def write_streamed(store, fleet_state, records, limit=1, **extra):
    """Stream a snapshot ``limit`` records per slice, then commit it."""
    snapshot = store.open_snapshot(fleet_state, records, **extra)
    while not snapshot.write(limit):
        pass
    store.write_snapshot_payload(snapshot)
    return snapshot


#: JSON values: what a registration record or a fleet field may hold.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)


class TestFragments:
    def test_fleet_payload_byte_identical(self, tmp_path):
        fleet = Fleet()
        for index in range(7):
            fleet.register(f"appé{index}", silent_hypothesis(2, 2))
        run_cycles(fleet, 1, 12, beating=("r1",))
        store = StateStore(str(tmp_path / "state"))
        state, records = fleet.snapshot_stream()
        snapshot = write_streamed(store, state, records, limit=3, name="d")
        payload = dict(snapshot.header, fleet=fleet.snapshot())
        assert written_text(store) == json.dumps(payload, sort_keys=True)
        assert not os.path.exists(snapshot.path)

    def test_empty_fleet_byte_identical(self, tmp_path):
        store = StateStore(str(tmp_path / "state"))
        payload = store.write_snapshot(Fleet().snapshot())
        assert written_text(store) == json.dumps(payload, sort_keys=True)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(json_values, max_size=5),
           st.dictionaries(st.text(), json_values, max_size=3),
           st.dictionaries(st.text(), json_values, max_size=2),
           st.integers(1, 3))
    def test_any_json_tree_byte_identical(self, registrations, fleet_state,
                                          extra, limit):
        fleet_state.pop("registrations", None)
        for key in ("fleet", "schema", "seq", "written_unix"):
            extra.pop(key, None)
        with tempfile.TemporaryDirectory() as state_dir:
            store = StateStore(state_dir)
            snapshot = write_streamed(
                store, fleet_state, iter(registrations), limit, **extra)
            payload = dict(snapshot.header, fleet=dict(
                fleet_state, registrations=registrations))
            assert written_text(store) == json.dumps(payload, sort_keys=True)


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
        tsi["error_log"] = [
            {"time": error.time, "runnable": error.runnable,
             "task": error.task, "error_type": error.error_type.value,
             "details": error.details}
            for error in stream]
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
        state, records = Fleet().snapshot_stream()
        snapshot = write_streamed(store, state, records)
        assert events == ["fsync-file", "replace", "fsync-dir"]
        del events[:]
        store.append("journal.bye", "b")
        store.truncate_journal_through(snapshot.seq)
        # The append, then the survivor's temp journal, then its rename.
        assert events == ["fsync-file", "fsync-file", "replace", "fsync-dir"]
        store.close()

    def test_no_directory_fsync_without_flag(self, tmp_path, monkeypatch):
        store = StateStore(str(tmp_path / "state"))
        events = self._record(monkeypatch, store.state_dir)
        store.write_snapshot(Fleet().snapshot())
        assert "fsync-dir" not in events
        store.close()


class FailingIO(FileIO):
    """The real file calls, counted by name; the call numbered
    ``fail_at`` raises ``OSError(code)`` instead of running."""

    def __init__(self, fail_at=None, code=errno.ENOSPC, before=None):
        self.calls = []
        self.fail_at = fail_at
        self.code = code
        #: Called with the call's name before each call runs.
        self.before = before

    def _call(self, name):
        if self.before is not None:
            self.before(name)
        self.calls.append(name)
        if len(self.calls) - 1 == self.fail_at:
            raise OSError(self.code, os.strerror(self.code))

    def open(self, path, mode):
        self._call("open")
        return super().open(path, mode)

    def write(self, handle, text):
        self._call("write")
        super().write(handle, text)

    def flush(self, handle):
        self._call("flush")
        super().flush(handle)

    def truncate(self, path, size):
        self._call("truncate")
        super().truncate(path, size)

    def fsync(self, handle):
        self._call("fsync")
        super().fsync(handle)

    def close(self, handle):
        try:
            self._call("close")
        finally:  # a failed close still releases the descriptor
            super().close(handle)

    def replace(self, source, target):
        self._call("replace")
        super().replace(source, target)

    def unlink(self, path):
        self._call("unlink")
        super().unlink(path)

    def fsync_dir(self, path):
        self._call("fsync_dir")
        super().fsync_dir(path)


def snapshot_cycle(store, fleet, concurrent=()):
    """One periodic snapshot as the daemon takes it: stream one record
    per slice, then commit, then truncate.  ``concurrent`` names are
    journaled as REGISTERs after the first slice."""
    state, records = fleet.snapshot_stream()
    snapshot = store.open_snapshot(state, records, name="d")
    snapshot.write(1)
    io, store.io = store.io, FileIO()  # the appends are not the snapshot's
    for name in concurrent:
        store.append(JOURNAL_REGISTER, name, hypothesis={})
    store.io = io
    snapshot.write()
    store.write_snapshot_payload(snapshot)
    store.truncate_journal_through(snapshot.seq)
    return snapshot


def seeded_store(state_dir, fsync):
    """A state dir with a good snapshot (seq 2) and two records beyond
    it, and the fleet the next snapshot streams."""
    fleet = Fleet()
    for index in range(3):
        fleet.register(f"app{index}", silent_hypothesis(2, 2))
    store = StateStore(state_dir, fsync=fsync)
    store.append(JOURNAL_REGISTER, "a", hypothesis={})
    store.append(JOURNAL_REGISTER, "b", hypothesis={})
    store.write_snapshot(fleet.snapshot(), name="d")
    store.append(JOURNAL_BYE, "a")
    store.append(JOURNAL_BYE, "b")
    run_cycles(fleet, 1, 4)
    return store, fleet


def check_restorable(state_dir, previous, appended):
    """The oracle after a failure or a crash: the snapshot on disk is
    the previous one or a complete new one, and the journal holds every
    record of ``appended`` it does not cover; returns its seq."""
    restored = StateStore(state_dir).load()
    covered = restored.snapshot["seq"]
    if covered == previous["seq"]:
        assert restored.snapshot == previous
    else:
        Fleet().restore(restored.snapshot["fleet"])
    assert [event.time for event in restored.entries] == [
        seq for seq in appended if seq > covered]
    return covered


class TestFileFaults:
    """An ``OSError`` at any file call of one snapshot and its journal
    truncation: the previous snapshot (or, past the rename, the new
    one) still loads, no temp file is renamed or left behind, the
    journal keeps every record the snapshot does not cover, and the
    next snapshot succeeds."""

    @pytest.mark.parametrize("fsync", [False, True])
    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EIO])
    def test_every_call_fails_safely(self, tmp_path, fsync, code):
        clean = FailingIO()
        store, fleet = seeded_store(str(tmp_path / "clean"), fsync)
        store.io = clean
        snapshot_cycle(store, fleet, concurrent=("c",))
        renamed_at = clean.calls.index("replace")
        assert len(clean.calls) > renamed_at + 3  # the truncation's calls
        for fail_at in range(len(clean.calls)):
            state_dir = str(tmp_path / f"fail{fail_at}")
            store, fleet = seeded_store(state_dir, fsync)
            previous = store.load().snapshot
            store.io = FailingIO(fail_at, code)
            with pytest.raises(OSError) as raised:
                snapshot_cycle(store, fleet, concurrent=("c",))
            assert raised.value.errno == code
            assert sorted(os.listdir(state_dir)) == [
                "journal.jsonl", "snapshot.json"]
            appended = list(range(3, store.seq + 1))
            covered = check_restorable(state_dir, previous, appended)
            assert (covered == previous["seq"]) == (fail_at <= renamed_at)
            store.io = FileIO()
            snapshot = snapshot_cycle(store, fleet, concurrent=("d",))
            assert check_restorable(state_dir, previous, appended + [
                store.seq]) == snapshot.seq == store.seq - 1

    @pytest.mark.parametrize("fsync", [False, True])
    def test_a_crash_at_any_call_restores(self, tmp_path, fsync):
        """``kill -9`` just before each file call: the state dir, as the
        crash leaves it, restores the snapshot it holds plus every
        journal record beyond it."""
        store, fleet = seeded_store(str(tmp_path / "state"), fsync)
        previous = store.load().snapshot
        images = []

        def crash_image(_name):
            image = str(tmp_path / f"crash{len(images)}")
            shutil.copytree(store.state_dir, image)
            images.append((image, store.seq))

        store.io = FailingIO(before=crash_image)
        snapshot_cycle(store, fleet, concurrent=("c",))
        assert len(images) == len(store.io.calls) > 5
        for image, seq in images:
            check_restorable(image, previous, list(range(3, seq + 1)))


def fleet_view(fleet):
    """Registrations and their Activation Status, per runnable."""
    return {
        name: (entry.active, {
            runnable: entry.watchdog.hbm.active[
                entry.watchdog.hbm.slot_of[runnable]]
            for runnable in entry.hypothesis.runnables
        })
        for name, entry in fleet.registrations.items()
    }


class PausedStream:
    """Holds the next streamed snapshot between its first and second
    slice until :meth:`resume` (the daemon keeps serving meanwhile)."""

    def __init__(self, monkeypatch):
        self.slices = 0
        self._resumed = False
        write = SnapshotWriter.write

        def paused_write(writer, limit=None):
            if self.slices == 1 and not self._resumed:
                return False
            self.slices += 1
            return write(writer, limit)

        monkeypatch.setattr(SnapshotWriter, "write", paused_write)

    def resume(self):
        self._resumed = True


async def register(server, name):
    peer = await _WireClient.connect(server)
    await peer.send(T_REGISTER, name=name, hypothesis=make_hyp_dict())
    assert (await peer.recv_frame()).get("ok")
    return peer


async def bye(peer):
    await peer.send(T_BYE)
    assert (await peer.recv_frame()).get("ok")


def serve(state_dir, **kwargs):
    kwargs.setdefault("snapshot_interval", None)
    return SupervisionServer(port=0, tick_interval=None, state_dir=state_dir,
                             **kwargs)


class TestStreamedCut:
    def test_frames_between_slices_restore_exactly(self, tmp_path,
                                                   monkeypatch):
        """A REGISTER, BYEs and rebinds applied between two slices of a
        streamed snapshot, on records already written and on records
        still to come: the restart restores the live fleet."""
        monkeypatch.setattr(server_module, "_SNAPSHOT_SLICE", 2)
        state_dir = str(tmp_path / "state")

        async def scenario():
            server = serve(state_dir)
            await server.start()
            peers = {name: await register(server, name)
                     for name in ("app0", "app1", "app2", "app3", "app4")}
            await bye(peers["app1"])
            await bye(peers["app4"])
            paused = PausedStream(monkeypatch)
            writing = asyncio.ensure_future(server._write_snapshot_async())
            await until(lambda: paused.slices == 1,
                        message="the first slice (app0, app1)")
            late = [await register(server, "late"),
                    await register(server, "app1"),
                    await register(server, "app4")]
            await bye(peers["app0"])
            await bye(peers["app2"])
            paused.resume()
            await writing
            assert paused.slices == 3
            live = fleet_view(server.fleet)
            snapshot = server.store.load()
            on_file = {record["name"]: record["active"] for record in
                       snapshot.snapshot["fleet"]["registrations"]}
            assert on_file == {"app0": True, "app1": False, "app2": False,
                               "app3": True, "app4": True}
            assert len(snapshot.entries) == 5
            for peer in [*peers.values(), *late]:
                await peer.close()
            await server.stop(save=False)

            revived = serve(state_dir)
            await revived.start()
            assert fleet_view(revived.fleet) == live
            assert live["app0"][0] is False and live["app1"][0] is True
            await revived.stop(save=False)

        asyncio.run(scenario())

    @pytest.mark.parametrize("save", [False, True])
    def test_stop_mid_stream_discards_the_temp_file(self, tmp_path,
                                                    monkeypatch, save):
        """stop() cancels a snapshot between slices: its temp file is
        closed and unlinked, never renamed, and the journal keeps every
        record; with ``save`` the final snapshot then covers them."""
        monkeypatch.setattr(server_module, "_SNAPSHOT_SLICE", 1)
        state_dir = str(tmp_path / "state")

        async def scenario():
            server = serve(state_dir)
            await server.start()
            peers = [await register(server, f"app{index}")
                     for index in range(3)]
            paused = PausedStream(monkeypatch)
            # A periodic snapshot in flight: stop() cancels it.
            server._tasks.append(
                asyncio.ensure_future(server._write_snapshot_async()))
            await until(lambda: paused.slices == 1,
                        message="the snapshot's first slice")
            assert os.path.exists(os.path.join(state_dir,
                                               "snapshot.json.tmp"))
            for peer in peers:
                await peer.close()
            paused.resume()  # only the final snapshot may use it now
            monkeypatch.undo()
            await server.stop(save=save)
            return server

        server = asyncio.run(scenario())
        assert server.snapshot_failures == 0
        assert not os.path.exists(os.path.join(state_dir,
                                               "snapshot.json.tmp"))
        restored = StateStore(state_dir).load()
        if save:
            assert restored.entries == []
            names = [record["name"] for record in
                     restored.snapshot["fleet"]["registrations"]]
        else:
            assert restored.snapshot is None
            names = [event.subject for event in restored.entries]
        assert names == ["app0", "app1", "app2"]

    def test_failed_slice_is_counted_and_discarded(self, tmp_path):
        """A write that fails mid-stream discards the temp file, leaves
        the journal alone and is counted; the next interval succeeds."""
        state_dir = str(tmp_path / "state")

        async def scenario():
            server = serve(state_dir)
            await server.start()
            peer = await register(server, "app0")
            # Open, write the head, fail writing the first record.
            server.store.io = FailingIO(fail_at=2)
            server.snapshot_interval = 0.01
            server._tasks.append(
                asyncio.ensure_future(server._snapshot_loop()))
            await until(lambda: server.snapshot_failures == 1,
                        message="the failed snapshot")
            assert server.store.io.calls[:3] == ["open", "write", "write"]
            assert server.store.snapshots_written == 0
            assert not os.path.exists(os.path.join(state_dir,
                                                   "snapshot.json.tmp"))
            assert [e.subject for e in StateStore(state_dir).load()
                    .entries] == ["app0"]
            await until(lambda: server.store.snapshots_written >= 1,
                        message="the next interval's snapshot")
            await peer.close()
            await server.stop(save=False)

        asyncio.run(scenario())


class TestJournalFaults:
    """An ``OSError`` at any file call of a journal append: the append
    raises, the journal on disk never holds the record, and the next
    append lands.  On a live daemon the frame gets a counted error ACK,
    and an ok ACK always means a record or a snapshot holds the change."""

    @pytest.mark.parametrize("fsync", [False, True])
    def test_every_append_call_fails_safely(self, tmp_path, fsync):
        clean = FailingIO()
        store = StateStore(str(tmp_path / "clean"), fsync=fsync)
        store.io = clean
        store.append(JOURNAL_REGISTER, "a", hypothesis={})
        assert clean.calls == ["open", "write",
                               "fsync" if fsync else "flush"]
        store.close()
        for fail_at in range(len(clean.calls)):
            store = StateStore(str(tmp_path / f"fail{fail_at}"),
                               fsync=fsync)
            store.append(JOURNAL_REGISTER, "a", hypothesis={})
            store.close()  # the next append reopens through the seam
            store.io = FailingIO(fail_at)
            with pytest.raises(OSError):
                store.append(JOURNAL_REGISTER, "b", hypothesis={})
            assert [e.subject for e in StateStore(store.state_dir).load()
                    .entries] == ["a"]
            store.io = FileIO()
            store.append(JOURNAL_BYE, "a")
            restored = StateStore(store.state_dir).load()
            assert [(e.time, e.subject) for e in restored.entries] == [
                (1, "a"), (3, "a")]
            store.close()

    def test_a_torn_append_is_cut_back(self, tmp_path):
        """Half a record reaches the file before ENOSPC: the journal is
        cut back to its last whole record, so the next record does not
        follow a corrupt line (which would fail every later restore)."""

        class TornWrite(FileIO):
            def write(self, handle, text):
                handle.write(text[:len(text) // 2])
                handle.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        store = StateStore(str(tmp_path / "state"))
        store.append(JOURNAL_REGISTER, "a", hypothesis={})
        store.io = TornWrite()
        with pytest.raises(OSError):
            store.append(JOURNAL_REGISTER, "b", hypothesis={})
        store.io = FileIO()
        store.append(JOURNAL_BYE, "a")
        store.close()
        assert [(e.time, e.subject) for e in StateStore(store.state_dir)
                .load().entries] == [(1, "a"), (3, "a")]

    def test_a_line_torn_by_a_crash_is_cut_before_appending(self, tmp_path):
        """A kill -9 mid-append leaves a partial last line.  The restart
        skips it, and its appends must not extend it: that lost the next
        record on the following restore, and made the journal unreadable
        once a second record followed."""
        store = StateStore(str(tmp_path / "state"))
        store.append(JOURNAL_REGISTER, "a", hypothesis={})
        store.close()
        with open(store.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "time": 2, "kind": "jour')
        restarted = StateStore(store.state_dir)
        assert [e.subject for e in restarted.load().entries] == ["a"]
        restarted.append(JOURNAL_REGISTER, "b", hypothesis={})
        restarted.append(JOURNAL_REGISTER, "c", hypothesis={})
        restarted.close()
        assert [(e.time, e.subject) for e in StateStore(store.state_dir)
                .load().entries] == [(1, "a"), (2, "b"), (3, "c")]

    @pytest.mark.parametrize("fail_at", [0, 1, 2])
    def test_failed_register_append_gets_an_error_ack(self, tmp_path,
                                                      fail_at):
        """The REGISTER is refused and undone, the connection stays up,
        and the retry is journaled as a REGISTER that survives a
        restart (it used to rebind, journaling only an activation)."""
        state_dir = str(tmp_path / "state")

        async def scenario():
            server = serve(state_dir)
            await server.start()
            server.store.io = FailingIO(fail_at)
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="app", hypothesis=make_hyp_dict())
            ack = await peer.recv_frame()
            assert not ack.get("ok") and ack.get("re") == T_REGISTER
            assert "journal append failed" in ack.get("error")
            assert server.handler_errors == 1
            assert server.fleet.registration("app") is None
            await peer.send(T_REGISTER, name="app", hypothesis=make_hyp_dict())
            ack = await peer.recv_frame()
            assert ack.get("ok") and ack.get("rebound") is False
            await peer.close()
            await server.stop(save=False)

            revived = serve(state_dir)
            await revived.start()
            assert revived.fleet.registration("app") is not None
            await revived.stop(save=False)

        asyncio.run(scenario())

    def test_failed_rebind_append_leaves_the_registration_inactive(
            self, tmp_path):
        """A rebind after BYE whose activation record cannot be
        journaled is refused and undone; the retried rebind is the one
        a restart sees."""
        state_dir = str(tmp_path / "state")

        async def scenario():
            server = serve(state_dir)
            await server.start()
            first = await register(server, "app")
            await bye(first)
            await first.close()
            registration = server.fleet.registration("app")
            server.store.io = FailingIO(fail_at=0)  # the record's write
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="app", hypothesis=make_hyp_dict())
            ack = await peer.recv_frame()
            assert not ack.get("ok") and ack.get("re") == T_REGISTER
            assert server.handler_errors == 1
            assert not registration.active and not registration.connected
            await peer.send(T_REGISTER, name="app", hypothesis=make_hyp_dict())
            ack = await peer.recv_frame()
            assert ack.get("ok") and ack.get("rebound") is True
            assert registration.active
            await peer.close()
            await server.stop(save=False)

            revived = serve(state_dir)
            await revived.start()
            assert revived.fleet.registration("app").active is True
            await revived.stop(save=False)

        asyncio.run(scenario())

    def test_failed_bye_append_keeps_the_registration(self, tmp_path):
        """A BYE that cannot be journaled is refused: the registration
        stays active and bound, the connection stays up, and the retried
        BYE is the one a restart sees."""
        state_dir = str(tmp_path / "state")

        async def scenario():
            server = serve(state_dir)
            await server.start()
            peer = await register(server, "app")
            server.store.io = FailingIO(fail_at=0)  # the BYE's write
            await peer.send(T_BYE)
            ack = await peer.recv_frame()
            assert not ack.get("ok") and ack.get("re") == T_BYE
            assert server.handler_errors == 1
            registration = server.fleet.registration("app")
            assert registration.active and registration.connected
            await bye(peer)
            assert not registration.active
            await peer.close()
            await server.stop(save=False)

            revived = serve(state_dir)
            await revived.start()
            assert revived.fleet.registration("app").active is False
            await revived.stop(save=False)

        asyncio.run(scenario())

    def test_refused_bye_raises_and_close_retries(self, tmp_path):
        """``WatchdogClient.close()`` on a refused BYE raises the
        daemon's error and stays connected, so the next ``close()``
        retries the BYE.  It used to disconnect anyway, leaving the
        registration active and its silence read as a crash."""
        state_dir = str(tmp_path / "state")

        async def scenario():
            server = serve(state_dir)
            await server.start()
            client = WatchdogClient((server.host, server.port),
                                    client_name="sdk")
            await in_thread(client.connect)
            await in_thread(client.register, "app", make_hyp_dict())
            registration = server.fleet.registration("app")
            server.store.io = FailingIO(fail_at=0)  # the BYE's write
            with pytest.raises(ClientError, match="journal append failed"):
                await in_thread(client.close)
            assert not client.closed and client._sock is not None
            assert registration.active and registration.connected
            server.store.io = FileIO()
            await in_thread(client.close)
            assert client.closed and client._sock is None
            assert not registration.active
            await server.stop(save=False)

            revived = serve(state_dir)
            await revived.start()
            assert revived.fleet.registration("app").active is False
            await revived.stop(save=False)

        asyncio.run(scenario())

    @pytest.mark.parametrize("fsync", [False, True])
    def test_a_crash_before_any_append_call_restores(self, tmp_path, fsync):
        """``kill -9`` just before each file call of each journal append
        on a live daemon: the state dir, as the crash leaves it,
        restores the fleet of an uninterrupted run up to the last
        acknowledged control frame."""
        state_dir = str(tmp_path / "state")
        images = []
        acked = [{}]  # the fleet after each acknowledged control frame

        def crash_image(_name):
            image = str(tmp_path / f"crash{len(images)}")
            shutil.copytree(state_dir, image)
            images.append((image, len(acked) - 1))

        async def scenario():
            server = serve(state_dir, fsync=fsync)
            await server.start()
            server.store.io = FailingIO(before=crash_image)

            def acknowledged():
                acked.append(fleet_view(server.fleet))

            peers = {}
            for name in ("app0", "app1"):
                peers[name] = await register(server, name)
                acknowledged()
            await bye(peers["app0"])
            acknowledged()
            await peers.pop("app0").close()
            peers["app0"] = await register(server, "app0")  # a rebind
            acknowledged()
            await bye(peers["app1"])
            acknowledged()
            server.write_snapshot()
            peers["app2"] = await register(server, "app2")
            acknowledged()
            await bye(peers["app0"])
            acknowledged()
            for peer in peers.values():
                await peer.close()
            await server.stop(save=False)

        async def recover(image):
            revived = serve(image)
            await revived.start()
            view = fleet_view(revived.fleet)
            await revived.stop(save=False)
            return view

        asyncio.run(scenario())
        assert len(acked) == 8
        assert {index for _, index in images} == set(range(7))
        assert len(images) > 2 * 7
        for image, index in images:
            assert asyncio.run(recover(image)) == acked[index], image
