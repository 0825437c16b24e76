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

``tests/data/schema2_one_table/`` was written by the one-table daemon
whose HBM records still stored each period's base next to its deadline
(``alive_base``/``arr_base``) and zero ``cca``/``ccar`` lists: a
schema-2 ``snapshot.json`` of alpha (aliveness and arrival periods
differ, ``act`` silent), bravo (``sense`` over its arrival bound, ``act``
configured with AS off) and charlie (said BYE, so every AS is off),
plus a ``journal.jsonl`` holding charlie's rebind and delta's REGISTER
beyond the snapshot.  ``schema2_one_table.detections.json`` records the
detections the same release raised restoring it.  Schema 3 derives the
bases from the deadlines, so the restore must read the file without
them and raise the identical sequence.

``tests/data/schema3_one_table/`` was written by the daemon whose
records still stored four tallies that schema 4 derives (the
registration's ``detections``, the watchdog's ``check_cycle_count`` and
``detected``, the PFC's ``lookup_operations``) and each TSI unit's
configured runnable-to-task map: alpha (program-flow errors make
``alpha.T`` faulty; the task-less ``alpha.ghost`` erred under task
``alpha.G``, a learned attribution, also faulty), bravo (``sense`` over
its arrival bound, ``act`` silent) and charlie (said BYE), plus a
``journal.jsonl`` holding charlie's rebind and delta's REGISTER beyond
the snapshot.  ``schema3_one_table.detections.json`` records the
detections the same release raised restoring it.

``tests/data/schema4_one_table/`` was written by the daemon whose fleet
still stored its state-change history (``state_changes``) beside its
current ``state``: the same cast as the schema-3 fixture (alpha with
program-flow errors and the learned ``alpha.G`` attribution, bravo
over its arrival bound with ``act`` silent, charlie BYE'd), a faulty
fleet after two transitions, and a journal holding charlie's rebind and
delta's REGISTER.  ``schema4_one_table.detections.json`` records the
detections the same release raised restoring it.  Schema 5 stores the
same registration records and ignores the history.
"""

import asyncio
import copy
import json
import os
import shutil

import pytest

from repro.core import MonitorState
from repro.service import Fleet, StateStore, SupervisionServer
from repro.service.persistence import SNAPSHOT_SCHEMA_VERSION, StateDirHeld

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
FIXTURE = os.path.join(DATA, "schema1_two_shards")
SNAPSHOTTED = ["alpha", "charlie", "bravo"]
SCHEMA2 = "schema2_one_table"
SCHEMA3 = "schema3_one_table"
SCHEMA4 = "schema4_one_table"
#: Record keys schema 4 derives on restore instead of storing.
DERIVED_TALLIES = ("detections", "check_cycle_count", "detected",
                   "lookup_operations")


def copy_fixture(tmp_path, fixture=FIXTURE):
    state_dir = str(tmp_path / "state")
    shutil.copytree(fixture, state_dir)
    return state_dir


def fixture_snapshot(fixture=FIXTURE):
    with open(os.path.join(fixture, "snapshot.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def recorded(name="schema1_two_shards"):
    with open(os.path.join(DATA, f"{name}.detections.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def without_derived(record):
    """An older registration record as schema 4 writes it: less the HBM
    keys schema 3 derives from the deadlines (schemas 1 and 2), less
    the four tallies schema 4 derives, and with the TSI's runnable-to-
    task map ``{}`` unless it holds a learned entry."""
    record = copy.deepcopy(record)
    watchdog = record["watchdog"]
    hbm = watchdog["hbm"]
    if "alive_base" in hbm:
        del hbm["alive_base"], hbm["arr_base"]
        del hbm["counters"]["cca"], hbm["counters"]["ccar"]
    del record["detections"]
    del watchdog["check_cycle_count"], watchdog["detected"]
    del watchdog["pfc"]["lookup_operations"]
    configured = {hyp["runnable"]: hyp["task"]
                  for hyp in record["hypothesis"]["runnables"]
                  if hyp["task"] is not None}
    tsi = watchdog["tsi"]
    if tsi["task_of_runnable"].items() <= configured.items():
        tsi["task_of_runnable"] = {}
    return record


def fixture_records(payload):
    """A fixture snapshot's registration records, in tick order."""
    fleet = payload["fleet"]
    if "shards" in fleet:
        return [record for shard in fleet["shards"]
                for record in shard["registrations"]]
    return fleet["registrations"]


def assert_no_derived_keys(record):
    watchdog = record["watchdog"]
    assert not set(DERIVED_TALLIES) & (
        set(record) | set(watchdog) | set(watchdog["pfc"]))


def restore_and_tick(state_dir, ticks):
    """Restore a daemon from ``state_dir``, tick it at ``ticks`` and
    snapshot it; returns its registration order, the detections it
    raised and the snapshot it rewrote (which stores no derived
    tally)."""

    async def scenario():
        server = SupervisionServer(port=0, tick_interval=None,
                                   state_dir=state_dir,
                                   snapshot_interval=None)
        await server.start()
        order = list(server.fleet.registrations)
        assert server.restored_registrations == len(order)
        seen = []
        server.fleet.add_detection_listener(lambda name, error: seen.append(
            [name, error.runnable, error.error_type.value, error.time]))
        for at in ticks:
            server.tick(at)
        server.write_snapshot()
        await server.stop(save=False)
        return order, seen

    order, seen = asyncio.run(scenario())
    with open(os.path.join(state_dir, "snapshot.json"),
              encoding="utf-8") as handle:
        rewritten = json.load(handle)
    for record in rewritten["fleet"]["registrations"]:
        assert_no_derived_keys(record)
    return order, seen, rewritten


def test_restore_merges_shards_in_shard_order_with_counters():
    payload = fixture_snapshot()
    assert payload["schema"] == 1
    assert [[r["name"] for r in shard["registrations"]]
            for shard in payload["fleet"]["shards"]] == [
        ["alpha", "charlie"], ["bravo"]]
    records = fixture_records(payload)
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
    # The watchdog state comes back exactly: a schema-4 capture of the
    # restored fleet carries the schema-1 records in one table, less the
    # keys schemas 3 and 4 derive.
    state = fleet.snapshot()
    assert "shards" not in state
    assert state["registrations"] == [without_derived(r) for r in records]
    assert state["tick_count"] == 6
    assert state["state"] == payload["fleet"]["state"]


def test_restored_daemon_raises_the_recorded_detections(tmp_path):
    state_dir = copy_fixture(tmp_path)
    expected = recorded()
    order, seen, rewritten = restore_and_tick(state_dir, expected["ticks"])
    # The journal-replayed REGISTER joins after the snapshotted ones.
    assert order == SNAPSHOTTED + ["delta"]
    assert seen == expected["detections"]
    assert rewritten["schema"] == SNAPSHOT_SCHEMA_VERSION == 5
    assert [r["name"] for r in rewritten["fleet"]["registrations"]] == (
        SNAPSHOTTED + ["delta"])


def test_restart_on_a_held_schema_one_dir_waits_for_the_lock(tmp_path):
    """A server refused a directory the sharded daemon wrote, because
    another server holds it, reads none of it; once the directory is
    free, a plain restart restores the schema-1 state."""
    state_dir = copy_fixture(tmp_path)

    async def scenario():
        server = SupervisionServer(port=0, tick_interval=None,
                                   state_dir=state_dir,
                                   snapshot_interval=None)
        with StateStore(state_dir) as holder:
            assert holder.take_primary()
            with pytest.raises(StateDirHeld):
                await server.start()
            assert not server.fleet.registrations
            await server.stop()
        restarted = SupervisionServer(port=0, tick_interval=None,
                                      state_dir=state_dir,
                                      snapshot_interval=None)
        await restarted.start()
        assert list(restarted.fleet.registrations) == SNAPSHOTTED + ["delta"]
        assert restarted.fleet.tick_count == 6
        await restarted.stop(save=False)

    asyncio.run(scenario())


def test_schema_two_derived_windows_equal_the_stored_ones():
    """Every stored base is its deadline less one period, so CCA/CCAR
    derived on restore are the ones the schema-2 daemon reported, and
    the capture is the schema-2 record less the derived keys."""
    payload = fixture_snapshot(os.path.join(DATA, SCHEMA2))
    assert payload["schema"] == 2
    records = payload["fleet"]["registrations"]
    fleet = Fleet()
    fleet.restore(payload["fleet"])
    assert list(fleet.registrations) == ["alpha", "bravo", "charlie"]
    checked = 0
    for record in records:
        hbm = record["watchdog"]["hbm"]
        unit = fleet.registration(record["name"]).watchdog.hbm
        for slot, name in enumerate(hbm["names"]):
            active = hbm["counters"]["active"][slot]
            window = unit.snapshot(name)
            assert window["AS"] == int(active)
            assert window["AC"] == hbm["counters"]["ac"][slot]
            assert window["ARC"] == hbm["counters"]["arc"][slot]
            if active:
                checked += 1
                assert window["CCA"] == (
                    hbm["cycle_count"] - hbm["alive_base"][slot]) > 0
                assert window["CCAR"] == (
                    hbm["cycle_count"] - hbm["arr_base"][slot]) > 0
            else:
                assert window["CCA"] == window["CCAR"] == 0
    assert checked == 3
    assert fleet.snapshot()["registrations"] == [
        without_derived(record) for record in records]


def test_schema_two_daemon_raises_the_recorded_detections(tmp_path):
    state_dir = copy_fixture(tmp_path, os.path.join(DATA, SCHEMA2))
    expected = recorded(SCHEMA2)
    order, seen, rewritten = restore_and_tick(state_dir, expected["ticks"])
    assert order == ["alpha", "bravo", "charlie", "delta"]
    assert seen == expected["detections"]
    assert {kind for _, _, kind, _ in seen} == {"aliveness", "arrival_rate"}
    assert rewritten["schema"] == SNAPSHOT_SCHEMA_VERSION == 5
    for record in rewritten["fleet"]["registrations"]:
        hbm = record["watchdog"]["hbm"]
        assert not {"alive_base", "arr_base"} & set(hbm)
        assert sorted(hbm["counters"]) == ["ac", "active", "arc"]


@pytest.mark.parametrize("fixture", [
    "schema1_two_shards", SCHEMA2, SCHEMA3])
def test_stored_tallies_equal_the_derived_ones(fixture):
    """Each tally an older record stores is the value schema 4 derives
    on restore, and the capture is the record less what it derives."""
    payload = fixture_snapshot(os.path.join(DATA, fixture))
    records = fixture_records(payload)
    fleet = Fleet()
    fleet.restore(payload["fleet"])
    for record in records:
        stored = record["watchdog"]
        registration = fleet.registration(record["name"])
        watchdog = registration.watchdog
        assert registration.detections == record["detections"]
        assert watchdog.check_cycle_count == stored["check_cycle_count"]
        assert {et.value: n for et, n in watchdog.detected.items()} == (
            stored["detected"])
        assert watchdog.pfc.observation_count == (
            stored["pfc"]["lookup_operations"])
    assert fleet.snapshot()["registrations"] == [
        without_derived(record) for record in records]


def test_schema_three_daemon_raises_the_recorded_detections(tmp_path):
    state_dir = copy_fixture(tmp_path, os.path.join(DATA, SCHEMA3))
    stored = fixture_records(fixture_snapshot(os.path.join(DATA, SCHEMA3)))
    # The fixture covers a program-flow error, faulty tasks and a
    # learned attribution.
    assert stored[0]["watchdog"]["detected"]["program_flow"] > 0
    assert all(record["watchdog"]["tsi"]["faulty_tasks"]
               for record in stored)
    assert stored[0]["watchdog"]["tsi"]["task_of_runnable"][
        "alpha.ghost"] == "alpha.G"
    expected = recorded(SCHEMA3)
    order, seen, rewritten = restore_and_tick(state_dir, expected["ticks"])
    assert order == ["alpha", "bravo", "charlie", "delta"]
    assert seen == expected["detections"]
    assert rewritten["schema"] == SNAPSHOT_SCHEMA_VERSION == 5
    records = rewritten["fleet"]["registrations"]
    assert records[0]["watchdog"]["tsi"]["task_of_runnable"] == {
        "alpha.sense": "alpha.T", "alpha.act": "alpha.T",
        "alpha.ghost": "alpha.G"}
    assert [record["watchdog"]["tsi"]["task_of_runnable"]
            for record in records[1:]] == [{}, {}, {}]


def test_schema_four_restores_records_and_state_without_history():
    """A schema-4 record is a schema-5 record: the restored fleet
    captures the stored registrations verbatim, keeps the stored fleet
    ``state``, and drops the history."""
    payload = fixture_snapshot(os.path.join(DATA, SCHEMA4))
    assert payload["schema"] == 4
    stored = payload["fleet"]
    assert len(stored["state_changes"]) == 2
    fleet = Fleet()
    fleet.restore(stored)
    assert list(fleet.registrations) == ["alpha", "bravo", "charlie"]
    assert [fleet.registration(name).active
            for name in fleet.registrations] == [True, True, False]
    assert fleet.state is MonitorState.FAULTY
    assert fleet.state.value == stored["state"]
    assert fleet.tick_count == stored["tick_count"]
    state = fleet.snapshot()
    assert state == {"tick_count": stored["tick_count"],
                     "state": stored["state"],
                     "registrations": stored["registrations"]}


def test_schema_four_daemon_raises_the_recorded_detections(tmp_path):
    state_dir = copy_fixture(tmp_path, os.path.join(DATA, SCHEMA4))
    expected = recorded(SCHEMA4)
    order, seen, rewritten = restore_and_tick(state_dir, expected["ticks"])
    assert order == ["alpha", "bravo", "charlie", "delta"]
    assert seen == expected["detections"]
    assert rewritten["schema"] == SNAPSHOT_SCHEMA_VERSION == 5
    assert "state_changes" not in rewritten["fleet"]
    assert rewritten["fleet"]["state"] == "faulty"
