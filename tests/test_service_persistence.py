"""Durable daemon state: snapshots, journal replay, warm standby."""

import asyncio
import errno
import json
import os
import subprocess

import pytest

from repro.core import FaultHypothesis, RunnableHypothesis
from repro.core.config_io import hypothesis_to_dict
from repro.service import SupervisionServer, StateStore, JournalFollower
from repro.service.persistence import (
    JOURNAL_ACTIVATION,
    JOURNAL_BYE,
    JOURNAL_REGISTER,
    SNAPSHOT_SCHEMA_VERSION,
    FileIO,
)
from repro.service.protocol import T_BYE, T_HEARTBEAT, T_REGISTER
from repro.telemetry import TelemetryEvent
from test_service_server import _WireClient, barrier, make_hyp_dict
from testutil import until


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
        assert restored.empty
        assert restored.snapshot is None
        assert restored.entries == []
        assert store.seq == 0

    def test_journal_append_and_load_round_trip(self, tmp_path):
        with make_store(tmp_path) as store:
            store.append(JOURNAL_REGISTER, "p", hypothesis={"version": 1})
            store.append(JOURNAL_BYE, "p")
            store.append(JOURNAL_ACTIVATION, "p", active=True)
        fresh = make_store(tmp_path)
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
        store = make_store(tmp_path)
        assert store.primary_alive() is None
        store.write_lock(name="me")
        assert store.read_lock()["pid"] == os.getpid()
        assert store.primary_alive() is True  # our own pid
        store.clear_lock()
        assert store.primary_alive() is None

    def test_dead_pid_lock_detected(self, tmp_path):
        store = make_store(tmp_path)
        child = subprocess.Popen(["true"])
        child.wait()  # reaped: the pid is provably gone
        with open(store.lock_path, "w", encoding="utf-8") as handle:
            json.dump({"pid": child.pid}, handle)
        assert store.primary_alive() is False

    def test_garbage_lock_reads_as_no_primary(self, tmp_path):
        store = make_store(tmp_path)
        with open(store.lock_path, "w", encoding="utf-8") as handle:
            handle.write("{half a lo")
        assert store.read_lock() is None
        assert store.primary_alive() is None

    def test_stale_refreshed_lock_is_dead_despite_live_pid(self, tmp_path):
        """Regression (PID recycling): a lock advertising a refresh
        cadence that stopped being re-stamped reads as dead even when
        its PID belongs to a live — possibly unrelated — process."""
        store = make_store(tmp_path)
        store.write_lock(name="me", refresh_interval=0.01)
        assert store.primary_alive() is True  # freshly stamped
        lock = store.read_lock()
        lock["written_unix"] -= 60.0  # our own (live) pid, stale stamp
        with open(store.lock_path, "w", encoding="utf-8") as handle:
            json.dump(lock, handle)
        assert store.primary_alive() is False
        # A refresh re-stamps the timestamp and revives the lock.
        store.refresh_lock()
        assert store.primary_alive() is True
        # Locks without a cadence (legacy) stay PID-only.
        store.write_lock(name="me")
        assert store.primary_alive() is True

    def test_lock_write_is_atomic(self, tmp_path):
        """The standby polls the lock concurrently: writes must go
        through temp-file + rename so it can never catch a torn write
        (which would read as "no primary" and promote a standby against
        a healthy primary)."""
        store = make_store(tmp_path)
        store.write_lock(name="me", refresh_interval=1.0)
        store.refresh_lock()
        assert not os.path.exists(store.lock_path + ".tmp")
        assert store.read_lock()["pid"] == os.getpid()

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


class TestJournalFollower:
    def test_tails_journal_incrementally(self, tmp_path):
        store = make_store(tmp_path)
        follower = JournalFollower(StateStore(store.state_dir))
        assert follower.poll() == (None, [])
        store.append(JOURNAL_REGISTER, "a", hypothesis={})
        snapshot, entries = follower.poll()
        assert snapshot is None
        assert [e.subject for e in entries] == ["a"]
        # Nothing new → nothing returned.
        assert follower.poll() == (None, [])
        store.append(JOURNAL_BYE, "a")
        _, entries = follower.poll()
        assert [(e.kind, e.time) for e in entries] == [(JOURNAL_BYE, 2)]

    def test_adopts_snapshot_and_skips_covered_records(self, tmp_path):
        store = make_store(tmp_path)
        follower = JournalFollower(StateStore(store.state_dir))
        store.append(JOURNAL_REGISTER, "a", hypothesis={})
        store.append(JOURNAL_REGISTER, "b", hypothesis={})
        # The snapshot truncates the journal.
        store.write_snapshot({"fake": 1, "registrations": []})
        snapshot, entries = follower.poll()
        assert snapshot["fleet"] == {"fake": 1, "registrations": []}
        assert entries == []  # covered by the snapshot, never replayed
        store.append(JOURNAL_BYE, "a")  # seq 3
        snapshot, entries = follower.poll()
        assert snapshot is None
        assert [e.time for e in entries] == [3]

    def test_snapshot_not_readopted(self, tmp_path):
        store = make_store(tmp_path)
        store.write_snapshot({"fake": 1, "registrations": []})
        follower = JournalFollower(StateStore(store.state_dir))
        snapshot, _ = follower.poll()
        assert snapshot is not None
        assert follower.poll() == (None, [])
        assert follower.snapshots_adopted == 1


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


class TestStandby:
    def test_standby_binds_nothing_until_promoted(self, tmp_path):
        async def scenario():
            primary = await start_server(tmp_path)
            peer = await _WireClient.connect(primary)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            primary.write_snapshot()

            standby = SupervisionServer(
                port=0, tick_interval=None, standby=True,
                state_dir=str(tmp_path / "state"),
                snapshot_interval=None, standby_poll=0.01)
            await standby.start()
            assert standby.standby and not standby.promoted
            assert standby._servers == []  # nothing bound yet
            assert standby.health()["role"] == "standby"
            # It already adopted the primary's snapshot.
            assert set(standby.fleet.registrations) == {"p"}
            await standby.stop()
            await peer.close()
            await primary.stop()
        asyncio.run(scenario())

    def test_standby_tails_journal_and_promotes_on_dead_lock(self, tmp_path):
        async def scenario():
            primary = await start_server(tmp_path)
            peer = await _WireClient.connect(primary)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")

            promoted = asyncio.Event()
            standby = SupervisionServer(
                port=0, tick_interval=None, standby=True,
                state_dir=str(tmp_path / "state"),
                snapshot_interval=None, standby_poll=0.01,
                on_promote=lambda _srv: promoted.set())
            await standby.start()

            # A registration arriving while the standby tails the
            # journal reaches it without any snapshot.
            await peer.send(T_REGISTER, name="q", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            await until(lambda: "q" in standby.fleet.registrations,
                        message="the standby to tail the REGISTER")
            assert set(standby.fleet.registrations) == {"p", "q"}

            # Kill the primary without ceremony and fake its lock as a
            # provably dead pid (same-process tests share a live pid).
            await peer.close()
            await primary.stop(save=False)
            child = subprocess.Popen(["true"])
            child.wait()
            with open(standby.store.lock_path, "w",
                      encoding="utf-8") as handle:
                json.dump({"pid": child.pid}, handle)

            await asyncio.wait_for(promoted.wait(), timeout=10)
            assert standby.promoted and not standby.standby
            assert standby.health()["role"] == "promoted"
            assert standby.port  # listeners bound at promotion
            assert set(standby.fleet.registrations) == {"p", "q"}
            # The promoted standby is a full server: a client can rebind.
            client = await _WireClient.connect(standby)
            await client.send(T_REGISTER, name="p",
                              hypothesis=make_hyp_dict())
            ack = await client.recv_frame()
            assert ack.get("ok") and ack.get("rebound") is True
            await client.close()
            await standby.stop()
        asyncio.run(scenario())

    def test_promoted_standby_continues_journal_sequence(self, tmp_path):
        """Regression: the standby's store.seq was only set by load() at
        startup; journal records and snapshots the follower applied
        afterwards never advanced it.  A promoted standby then journaled
        new records with already-used sequence numbers at-or-below the
        on-disk snapshot's seq — and the next recovery silently dropped
        them (lost post-failover registrations)."""
        async def scenario():
            primary = await start_server(tmp_path)
            peer = await _WireClient.connect(primary)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")

            # Standby starts now: load() sees only journal seq 1.
            standby = SupervisionServer(
                port=0, tick_interval=None, standby=True,
                state_dir=str(tmp_path / "state"),
                snapshot_interval=None, standby_poll=0.01)
            await standby.start()

            # The primary advances the sequence past the standby's
            # loaded position, then snapshots (journal truncated,
            # snapshot seq = 2).
            await peer.send(T_REGISTER, name="q", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            primary.write_snapshot()
            await until(lambda: standby._follower.applied_seq >= 2,
                        message="the standby to adopt the snapshot")
            assert standby._follower.applied_seq >= 2

            await peer.close()
            await primary.stop(save=False)
            await standby.promote()
            # The append cursor continued the primary's sequence.
            assert standby.store.seq >= standby._follower.applied_seq

            # A post-failover registration journals beyond the snapshot.
            client = await _WireClient.connect(standby)
            await client.send(T_REGISTER, name="r",
                              hypothesis=make_hyp_dict())
            assert (await client.recv_frame()).get("ok")
            await client.close()
            await standby.stop(save=False)  # crash before any snapshot

            revived = await start_server(tmp_path)
            assert set(revived.fleet.registrations) == {"p", "q", "r"}
            await revived.stop()
        asyncio.run(scenario())

    def test_adopted_snapshots_do_not_inflate_fleet_gauges(self, tmp_path):
        """Regression: each adopted snapshot built new watchdogs on the
        standby's registry, and every one added its share to the
        fleet-summed gauges while the replaced fleet never took its
        share back, so the gauges grew with every snapshot (and a
        promoted standby exported the inflated values)."""
        gauges = ("wd_hbm_active_runnables", "wd_tsi_faulty_tasks")

        def read(server):
            return {name: server.telemetry.value(name) for name in gauges}

        def standby_server():
            return SupervisionServer(
                port=0, tick_interval=None, standby=True,
                state_dir=str(tmp_path / "state"),
                snapshot_interval=None, standby_poll=0.01)

        async def scenario():
            primary = await start_server(tmp_path)
            peer = await _WireClient.connect(primary)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            for cycle in range(1, 13):  # silent: task T turns faulty
                primary.tick(cycle * 10)
            assert read(primary) == {"wd_hbm_active_runnables": 2,
                                     "wd_tsi_faulty_tasks": 1}

            standby = standby_server()
            await standby.start()
            for _ in range(3):
                adopted = standby.fleet
                primary.write_snapshot()
                await until(lambda: standby.fleet is not adopted,
                            message="the standby to adopt the snapshot")
            restored_once = standby_server()
            await restored_once.start()
            assert read(restored_once) == read(primary)
            assert read(standby) == read(restored_once)
            await restored_once.stop()

            await peer.close()
            await primary.stop(save=False)
            await standby.promote()
            assert read(standby) == read(restored_once)
            await standby.stop()
        asyncio.run(scenario())

    def test_standby_promotes_when_clean_shutdown_lock_vanishes(
            self, tmp_path):
        async def scenario():
            primary = await start_server(tmp_path)
            standby = SupervisionServer(
                port=0, tick_interval=None, standby=True,
                state_dir=str(tmp_path / "state"),
                snapshot_interval=None, standby_poll=0.01)
            await standby.start()
            # Let the standby observe the live primary at least once.
            await until(lambda: standby.store.primary_alive() is True,
                        message="the standby to see the primary alive")
            await primary.stop()  # clean: clears the lock
            await until(lambda: standby.promoted,
                        message="the standby to promote")
            assert standby.promoted
            await standby.stop()
        asyncio.run(scenario())

    def test_standby_requires_state_dir(self):
        with pytest.raises(ValueError, match="state-dir"):
            SupervisionServer(port=0, standby=True)
