"""Upgrading a state directory written by the sharded daemon.

``tests/data/schema1_two_shards/`` was written by the previous release,
whose daemon spread registrations round-robin over ``--shards`` tables:
a two-shard, schema-1 ``snapshot.json`` of three registrations (alpha
and charlie on shard 0, bravo on shard 1), each with a silent runnable
part-way through its aliveness window, plus a ``journal.jsonl`` holding
one REGISTER (delta) beyond the snapshot.  With the same release, the
fixture was restored and ticked at the times listed in
``schema1_two_shards.detections.json``; that file records the
detections ``(registration, runnable, error_type, time)`` it raised.

The one-table daemon must restore the fixture with the registrations in
shard-index-then-registration order — the order the sharded daemon
ticked them in — and raise the identical detection sequence.
"""

import asyncio
import json
import os
import shutil

from repro.service import Fleet, JournalFollower, StateStore, SupervisionServer
from repro.service.persistence import JOURNAL_REGISTER, SNAPSHOT_SCHEMA_VERSION
from testutil import until

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
FIXTURE = os.path.join(DATA, "schema1_two_shards")
SNAPSHOTTED = ["alpha", "charlie", "bravo"]


def copy_fixture(tmp_path):
    state_dir = str(tmp_path / "state")
    shutil.copytree(FIXTURE, state_dir)
    return state_dir


def fixture_snapshot():
    with open(os.path.join(FIXTURE, "snapshot.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def recorded():
    with open(os.path.join(DATA, "schema1_two_shards.detections.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def test_restore_merges_shards_in_shard_order_with_counters():
    payload = fixture_snapshot()
    assert payload["schema"] == 1
    assert [[r["name"] for r in shard["registrations"]]
            for shard in payload["fleet"]["shards"]] == [
        ["alpha", "charlie"], ["bravo"]]
    records = [record for shard in payload["fleet"]["shards"]
               for record in shard["registrations"]]
    fleet = Fleet()
    fleet.restore(payload["fleet"])
    assert list(fleet.registrations) == SNAPSHOTTED
    for record in records:
        registration = fleet.registration(record["name"])
        assert registration.indications == record["indications"] > 0
        assert registration.task_starts == record["task_starts"] > 0
        assert registration.detections == record["detections"]
        assert registration.active is record["active"]
    assert fleet.tick_count == 6
    # The watchdog state comes back exactly: a schema-2 capture of the
    # restored fleet carries the schema-1 records verbatim, in one table.
    state = fleet.snapshot()
    assert "shards" not in state
    assert state["registrations"] == records
    assert state["tick_count"] == 6
    assert state["state"] == payload["fleet"]["state"]


def test_restored_daemon_raises_the_recorded_detections(tmp_path):
    state_dir = copy_fixture(tmp_path)
    expected = recorded()

    async def scenario():
        server = SupervisionServer(port=0, tick_interval=None,
                                   state_dir=state_dir,
                                   snapshot_interval=None)
        await server.start()
        # The journal-replayed REGISTER joins after the snapshotted ones.
        assert list(server.fleet.registrations) == SNAPSHOTTED + ["delta"]
        assert server.restored_registrations == 4
        seen = []
        server.fleet.add_detection_listener(lambda name, error: seen.append(
            [name, error.runnable, error.error_type.value, error.time]))
        for at in expected["ticks"]:
            server.tick(at)
        server.write_snapshot()
        await server.stop(save=False)
        return seen

    seen = asyncio.run(scenario())
    assert seen == expected["detections"]
    with open(os.path.join(state_dir, "snapshot.json"),
              encoding="utf-8") as handle:
        rewritten = json.load(handle)
    assert rewritten["schema"] == SNAPSHOT_SCHEMA_VERSION == 2
    assert [r["name"] for r in rewritten["fleet"]["registrations"]] == (
        SNAPSHOTTED + ["delta"])


def test_follower_adopts_schema_one_snapshot(tmp_path):
    follower = JournalFollower(StateStore(copy_fixture(tmp_path)))
    snapshot, entries = follower.poll()
    assert snapshot is not None and snapshot["schema"] == 1
    assert [(e.kind, e.subject) for e in entries] == [
        (JOURNAL_REGISTER, "delta")]
    assert follower.snapshots_adopted == 1


def test_standby_adopts_a_schema_one_primary(tmp_path):
    state_dir = str(tmp_path / "state")

    async def scenario():
        standby = SupervisionServer(
            port=0, tick_interval=None, standby=True, state_dir=state_dir,
            snapshot_interval=None, standby_poll=0.01)
        await standby.start()
        assert not standby.fleet.registrations
        for name in ("snapshot.json", "journal.jsonl"):
            shutil.copy(os.path.join(FIXTURE, name), state_dir)
        await until(lambda: len(standby.fleet.registrations) == 4,
                    message="the standby to adopt the schema-1 state")
        assert list(standby.fleet.registrations) == SNAPSHOTTED + ["delta"]
        await standby.stop()

    asyncio.run(scenario())
