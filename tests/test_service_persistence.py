"""Durable daemon state: snapshots, journal replay, restart."""

import asyncio
import errno
import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.core import FaultHypothesis, RunnableHypothesis
from repro.core.config_io import hypothesis_to_dict
from repro.service import SupervisionServer, StateStore
from repro.service.persistence import (
    JOURNAL_ACTIVATION,
    JOURNAL_BYE,
    JOURNAL_REGISTER,
    SNAPSHOT_SCHEMA_VERSION,
    FileIO,
    StateDirHeld,
)
from repro.service.protocol import T_ACK, T_BYE, T_HEARTBEAT, T_REGISTER
from repro.telemetry import TelemetryEvent
from test_service_server import _WireClient, barrier, make_hyp_dict
from testutil import lock_is_free, until


def make_store(tmp_path, sub="state"):
    return StateStore(str(tmp_path / sub))


async def start_server(tmp_path, **kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("tick_interval", None)
    kwargs.setdefault("state_dir", str(tmp_path / "state"))
    kwargs.setdefault("snapshot_interval", None)
    server = SupervisionServer(**kwargs)
    await server.start()
    return server


class TestStateStore:
    def test_empty_dir_loads_empty(self, tmp_path):
        store = make_store(tmp_path)
        restored = store.load()
        assert restored.snapshot is None
        assert restored.entries == []
        assert store.seq == 0

    def test_journal_append_and_load_round_trip(self, tmp_path):
        with make_store(tmp_path) as store:
            store.append(JOURNAL_REGISTER, "p", hypothesis={"version": 1})
            store.append(JOURNAL_BYE, "p")
            store.append(JOURNAL_ACTIVATION, "p", active=True)
        with make_store(tmp_path) as fresh:
            restored = fresh.load()
            assert restored.snapshot is None
            assert [e.kind for e in restored.entries] == [
                JOURNAL_REGISTER, JOURNAL_BYE, JOURNAL_ACTIVATION]
            assert [e.time for e in restored.entries] == [1, 2, 3]
            assert restored.entries[0].data["hypothesis"] == {"version": 1}
            # seq resumes past everything on disk.
            assert fresh.seq == 3
            fresh.append(JOURNAL_BYE, "q")
            assert fresh.seq == 4

    def test_snapshot_truncates_journal_and_filters_replay(self, tmp_path):
        store = make_store(tmp_path)
        store.append(JOURNAL_REGISTER, "a", hypothesis={})
        store.append(JOURNAL_REGISTER, "b", hypothesis={})
        payload = store.write_snapshot({"fake": "fleet", "registrations": []})
        assert payload["schema"] == SNAPSHOT_SCHEMA_VERSION
        assert payload["seq"] == 2
        store.append(JOURNAL_BYE, "a")  # seq 3, after the snapshot
        store.close()
        restored = make_store(tmp_path).load()
        assert restored.snapshot["fleet"] == {
            "fake": "fleet", "registrations": []}
        # Only the post-snapshot record replays.
        assert [(e.kind, e.time) for e in restored.entries] == [
            (JOURNAL_BYE, 3)]

    def test_crash_truncated_journal_tail_tolerated(self, tmp_path):
        store = make_store(tmp_path)
        store.append(JOURNAL_REGISTER, "a", hypothesis={})
        store.append(JOURNAL_REGISTER, "b", hypothesis={})
        store.close()
        # Simulate a kill -9 mid-append: a partial trailing line.
        with open(store.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "time": 3, "kin')
        restored = make_store(tmp_path).load()
        assert [e.subject for e in restored.entries] == ["a", "b"]

    def test_snapshot_write_is_atomic(self, tmp_path):
        store = make_store(tmp_path)
        store.write_snapshot({"generation": 1, "registrations": []})
        # A crash mid-write leaves only the tmp file touched; the real
        # snapshot is replaced atomically, so no torn state exists.
        assert not os.path.exists(store.snapshot_path + ".tmp")
        store.write_snapshot({"generation": 2, "registrations": []})
        with open(store.snapshot_path, encoding="utf-8") as handle:
            assert json.load(handle)["fleet"] == {
                "generation": 2, "registrations": []}

    def test_unsupported_snapshot_schema_rejected(self, tmp_path):
        store = make_store(tmp_path)
        with open(store.snapshot_path, "w", encoding="utf-8") as handle:
            json.dump({"schema": 99, "seq": 1, "fleet": {}}, handle)
        with pytest.raises(ValueError, match="schema"):
            make_store(tmp_path).load()

    def test_primary_lock_lifecycle(self, tmp_path):
        """Two stores on one directory: only one holds the lock, the
        holder may take it again, and ``close()`` hands it over."""
        first, second = make_store(tmp_path), make_store(tmp_path)
        assert first.take_primary()
        assert first.take_primary()  # idempotent for the holder
        assert not second.take_primary()
        first.close()
        assert os.path.exists(first.lock_path)  # released, never unlinked
        assert second.take_primary()
        assert not first.take_primary()
        second.close()
        assert first.take_primary()
        first.close()

    def test_garbage_lock_reads_as_no_primary(self, tmp_path):
        """Only the kernel lock counts: a lock file with any content,
        and the PID file of older daemons naming a live process, leave
        the directory free."""
        store = make_store(tmp_path)
        with open(store.lock_path, "w", encoding="utf-8") as handle:
            handle.write("{half a lo")
        with open(os.path.join(store.state_dir, "primary.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"pid": os.getpid()}, handle)
        assert store.take_primary()
        store.close()

    def test_lock_held_through_sigstop_freed_by_sigkill(self, tmp_path):
        """A paused holder keeps the directory; a killed one frees it
        (the kernel closes its descriptors, ``kill -9`` included)."""
        store = make_store(tmp_path)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        child = subprocess.Popen(
            [sys.executable, "-c",
             "import sys, time\n"
             "from repro.service import StateStore\n"
             "assert StateStore(sys.argv[1]).take_primary()\n"
             "print('held', flush=True)\n"
             "time.sleep(60)\n",
             store.state_dir],
            stdout=subprocess.PIPE, text=True, env=env)
        try:
            assert child.stdout.readline().strip() == "held"
            assert not store.take_primary()
            child.send_signal(signal.SIGSTOP)
            time.sleep(0.2)
            assert not store.take_primary()
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=10)
            assert store.take_primary()
        finally:
            if child.poll() is None:
                child.kill()
            child.communicate(timeout=10)
            store.close()

    def test_truncation_keeps_records_beyond_snapshot_seq(self, tmp_path):
        """The streamed snapshot path: a record appended while the
        snapshot was being written has a seq beyond the snapshot's and
        must survive the truncation."""
        store = make_store(tmp_path)
        store.append(JOURNAL_REGISTER, "a", hypothesis={})
        snapshot = store.open_snapshot({"fake": "fleet"}, [])
        assert snapshot.seq == 1
        # A REGISTER applied between two slices of the snapshot.
        store.append(JOURNAL_REGISTER, "b", hypothesis={})
        assert snapshot.write()
        store.write_snapshot_payload(snapshot)
        store.truncate_journal_through(snapshot.seq)
        store.close()
        restored = make_store(tmp_path).load()
        assert restored.snapshot["fleet"] == {
            "fake": "fleet", "registrations": []}
        assert [(e.subject, e.time) for e in restored.entries] == [("b", 2)]


    def test_failed_truncation_keeps_uncovered_records(
            self, tmp_path, monkeypatch):
        """Regression: truncation emptied the journal before re-writing
        the records the snapshot does not cover, so a failure (or a
        kill -9) in between lost an ACKed REGISTER from both files."""
        store = make_store(tmp_path)
        store.append(JOURNAL_REGISTER, "a", hypothesis={})
        store.write_snapshot({"fake": "fleet", "registrations": []})
        store.append(JOURNAL_REGISTER, "b", hypothesis={})

        def unencodable(event):
            raise OSError(errno.ENOSPC, "no space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(TelemetryEvent, "to_jsonl", unencodable)
            with pytest.raises(OSError):
                store.truncate_journal_through(1)
        restored = make_store(tmp_path).load()
        assert [(e.subject, e.time) for e in restored.entries] == [("b", 2)]
        store.append(JOURNAL_BYE, "b")
        store.close()
        restored = make_store(tmp_path).load()
        assert [e.time for e in restored.entries] == [2, 3]


class TestServerRestore:
    def test_journal_only_restore_reproduces_registrations(self, tmp_path):
        """No snapshot ever written: replaying REGISTER journal records
        alone rebuilds every registration, in its original order."""
        async def scenario():
            server = await start_server(tmp_path)
            peers = []
            for name in ("c", "a", "b"):
                peer = await _WireClient.connect(server)
                await peer.send(T_REGISTER, name=name,
                                hypothesis=make_hyp_dict())
                ack = await peer.recv_frame()
                assert ack.get("ok")
                peers.append(peer)
            await server.stop(save=False)  # crash: no snapshot
            for peer in peers:
                await peer.close()

            revived = await start_server(tmp_path)
            assert list(revived.fleet.registrations) == ["c", "a", "b"]
            assert revived.restored_registrations == 3
            assert revived.health()["restored_registrations"] == 3
            await revived.stop()
        asyncio.run(scenario())

    def test_bye_journal_replay_leaves_registration_inactive(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            await peer.send(T_BYE)
            assert (await peer.recv_frame()).get("ok")
            await peer.close()
            await server.stop(save=False)

            revived = await start_server(tmp_path)
            registration = revived.fleet.registration("p")
            assert registration is not None
            assert not registration.active
            await revived.stop()
        asyncio.run(scenario())

    def test_rebind_after_bye_replays_to_active(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            await peer.send(T_BYE)
            assert (await peer.recv_frame()).get("ok")
            await peer.close()
            # The client comes back: identical hypothesis rebinds.
            back = await _WireClient.connect(server)
            await back.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            ack = await back.recv_frame()
            assert ack.get("ok") and ack.get("rebound") is True
            await server.stop(save=False)
            await back.close()

            revived = await start_server(tmp_path)
            assert revived.fleet.registration("p").active
            await revived.stop()
        asyncio.run(scenario())

    def test_snapshot_preserves_counters_and_indications(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            await peer.send(T_HEARTBEAT, name="p",
                            batch=[["sense", 5, "T"], ["act", 6, "T"]])
            await barrier(peer)
            server.tick(7)
            captured = server.fleet.snapshot()
            await server.stop()  # clean stop → final snapshot
            await peer.close()

            revived = await start_server(tmp_path)
            assert revived.fleet.snapshot() == captured
            assert revived.fleet.registration("p").indications == 2
            await revived.stop()
        asyncio.run(scenario())

    def test_periodic_snapshot_loop_writes(self, tmp_path):
        async def scenario():
            server = await start_server(
                tmp_path, snapshot_interval=0.02, tick_interval=None)
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            await until(lambda: server.store.snapshots_written >= 2,
                        message="two periodic snapshots")
            assert server.store.snapshots_written >= 2
            assert os.path.exists(server.store.snapshot_path)
            await peer.close()
            await server.stop()
        asyncio.run(scenario())

    def test_snapshot_loop_survives_write_failure(self, tmp_path):
        """Regression: one failed snapshot write (ENOSPC, transient I/O
        error) used to kill the periodic loop silently, degrading
        durability to journal-only forever.  Now the failure is counted
        and the loop keeps snapshotting.  Here the commit step's fsync
        fails; it discards the temp file instead of renaming it."""
        failures_left = [2]

        class FlakyFsync(FileIO):
            def fsync(self, handle):
                if failures_left[0] > 0:
                    failures_left[0] -= 1
                    raise OSError(errno.ENOSPC, "disk full")
                super().fsync(handle)

        async def scenario():
            server = await start_server(
                tmp_path, snapshot_interval=0.02, tick_interval=None)
            server.store.io = FlakyFsync()
            await until(lambda: server.store.snapshots_written >= 1,
                        message="a snapshot after the failures")
            assert server.snapshot_failures == 2
            assert server.store.snapshots_written >= 1
            assert server.health()["snapshot_failures"] == 2
            await server.stop()
            assert not os.path.exists(server.store.snapshot_path + ".tmp")
        asyncio.run(scenario())


def fleet_gauges(server):
    """The fleet-summed gauges every watchdog adds its share to."""
    return {name: server.telemetry.value(name)
            for name in ("wd_hbm_active_runnables", "wd_tsi_faulty_tasks")}


class TestRestart:
    """Failover is a restart: a server started on the directory a dead
    one left takes its lock, restores its fleet and journals on."""

    def test_restart_continues_journal_sequence(self, tmp_path):
        """A restarted server journals beyond everything the dead one
        wrote, so a registration made after the restart survives the
        next recovery."""
        async def scenario():
            primary = await start_server(tmp_path)
            peer = await _WireClient.connect(primary)
            for name in ("p", "q"):
                await peer.send(T_REGISTER, name=name,
                                hypothesis=make_hyp_dict())
                assert (await peer.recv_frame()).get("ok")
            primary.write_snapshot()  # journal truncated, snapshot seq 2
            await peer.close()
            await primary.stop(save=False)

            restarted = await start_server(tmp_path)
            assert restarted.store.seq == 2
            client = await _WireClient.connect(restarted)
            await client.send(T_REGISTER, name="r",
                              hypothesis=make_hyp_dict())
            assert (await client.recv_frame()).get("ok")
            assert restarted.store.seq == 3
            await client.close()
            await restarted.stop(save=False)  # crash before any snapshot

            revived = await start_server(tmp_path)
            assert list(revived.fleet.registrations) == ["p", "q", "r"]
            await revived.stop()
        asyncio.run(scenario())

    def test_restart_restores_the_crashed_fleet_and_its_gauges(
            self, tmp_path):
        """A server restarted on the directory a crashed one left (three
        snapshots, the last holding two faulty tasks, then a REGISTER
        and a BYE only in the journal) holds the crashed server's fleet,
        and its fleet-summed gauges count each watchdog once."""
        async def scenario():
            primary = await start_server(tmp_path)
            owners = {}
            for name, prefix in (("p", ""), ("q", "q.")):
                owners[name] = await _WireClient.connect(primary)
                await owners[name].send(T_REGISTER, name=name,
                                        hypothesis=make_hyp_dict(prefix))
                assert (await owners[name].recv_frame()).get("ok")
            await owners["q"].send(T_HEARTBEAT, name="q",
                                   batch=[["q.sense", 5, "T"]])
            await barrier(owners["q"])
            for cycle in range(1, 13):  # p's and q's tasks turn faulty
                primary.tick(cycle * 10)
            for _ in range(3):
                primary.write_snapshot()
            # Journal only: a later REGISTER, and q's BYE.
            late = await _WireClient.connect(primary)
            await late.send(T_REGISTER, name="r",
                            hypothesis=make_hyp_dict("r."))
            assert (await late.recv_frame()).get("ok")
            await owners["q"].send(T_BYE)
            ack = await owners["q"].recv_frame()
            while ack.type != T_ACK:  # q's DETECTION and STATE pushes
                ack = await owners["q"].recv_frame()
            assert ack.get("ok") and ack.get("re") == T_BYE
            for peer in (*owners.values(), late):
                await peer.close()
            crashed = primary.fleet.snapshot()
            crashed_gauges = fleet_gauges(primary)
            await primary.stop(save=False)  # crash: no final snapshot

            restarted = await start_server(tmp_path)
            assert list(restarted.fleet.registrations) == ["p", "q", "r"]
            assert not restarted.fleet.registration("q").active
            assert restarted.fleet.snapshot() == crashed
            assert fleet_gauges(restarted) == crashed_gauges
            assert crashed_gauges["wd_tsi_faulty_tasks"] == 2
            await restarted.stop()
        asyncio.run(scenario())

    def test_one_server_per_state_dir(self, tmp_path):
        """A second server on a held directory is refused before it
        reads or binds anything; once the first stops, the directory is
        free and a restart takes it."""
        async def scenario():
            primary = await start_server(tmp_path)
            assert not lock_is_free(tmp_path / "state")
            second = SupervisionServer(
                port=0, tick_interval=None, snapshot_interval=None,
                state_dir=str(tmp_path / "state"))
            with pytest.raises(StateDirHeld,
                               match=re.escape(str(tmp_path / "state"))):
                await second.start()
            assert not second._servers and second.port == 0
            await second.stop()  # writes nothing into the held dir
            assert not os.path.exists(primary.store.snapshot_path)
            await primary.stop()
            assert lock_is_free(tmp_path / "state")
            restarted = await start_server(tmp_path)
            assert restarted.port
            await restarted.stop()
        asyncio.run(scenario())
