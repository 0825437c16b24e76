"""Snapshot stage cost of the supervision daemon (event loop, commit, heap).

Every ``--snapshot-interval`` the daemon writes its fleet to disk
(``SupervisionServer._write_snapshot_async``).  What the event loop runs
of that snapshot delays heartbeat ingest and the check-cycle ticker;
what runs in the worker thread (``StateStore.write_snapshot_payload``)
competes for the GIL; and whatever the snapshot holds in memory at once
raises the daemon's peak footprint.  All of it should scale with the
*live* state — the registrations — not with how many detections the
daemon has raised since it started.

The fleet is driven in-process through a detection-heavy script: every
registration has four runnables, two of which stay silent, so each of
those raises one aliveness error per window for the whole script.  The
benchmark installs that fleet in an unstarted server and runs one
periodic snapshot on a fresh event loop, timing every loop callback
(``asyncio.events.Handle._run``).  At 200 and 2000 registrations it
reports

* ``loop_ms`` — the snapshot's on-loop time, every callback summed;
* ``loop_slice_ms_max`` — the longest single callback: how long the
  ticker can wait behind the snapshot;
* ``commit_ms`` — the worker thread's ``write_snapshot_payload``;
* ``peak_kib`` — the tracemalloc peak over one snapshot (a separate,
  traced run);
* ``file_bytes`` — the size of ``snapshot.json``;

each timing the median of :data:`REPEATS` snapshots.  The record is
appended to ``BENCH_snapshot.json`` (:func:`benchutil.record`).
"""

import asyncio
import os
import statistics
import time
import tracemalloc

from benchutil import record, run_once
from repro.core import FaultHypothesis, RunnableHypothesis
from repro.core.config_io import hypothesis_to_dict
from repro.service import SupervisionServer
from repro.service.fleet import Fleet

SIZES = (200, 2000)
RUNNABLES = 4
SILENT = 2                 # runnables per registration that never beat
WINDOW_CYCLES = 10         # aliveness window, in check cycles
CYCLES = 100               # script length: 10 windows, 20 detections each
REPEATS = 5
SMOKE_SIZE = 20


def hypothesis_dict():
    hyp = FaultHypothesis()
    for index in range(RUNNABLES):
        hyp.add_runnable(RunnableHypothesis(
            f"r{index}", task="T",
            aliveness_period=WINDOW_CYCLES, min_heartbeats=1,
            arrival_period=WINDOW_CYCLES, max_heartbeats=1000))
    return hypothesis_to_dict(hyp)


def detection_heavy_fleet(registrations):
    """A fleet after :data:`CYCLES` check cycles in which every
    registration's first :data:`SILENT` runnables stayed silent."""
    fleet = Fleet()
    hyp = hypothesis_dict()
    names = [f"app{index:04d}" for index in range(registrations)]
    for name in names:
        fleet.register(name, hyp)
    beating = [f"r{index}" for index in range(SILENT, RUNNABLES)]
    for cycle in range(1, CYCLES + 1):
        for name in names:
            for runnable in beating:
                fleet.heartbeat(name, runnable, cycle)
        fleet.tick(cycle)
    return fleet


def one_snapshot(server):
    """Run one periodic snapshot on a fresh event loop; returns the
    duration of every loop callback and of the worker thread's commit,
    in seconds."""
    callbacks, commits = [], []
    handle_class = asyncio.events.Handle
    run = handle_class._run
    commit = server.store.write_snapshot_payload

    def timed_run(handle):
        begin = time.perf_counter()
        try:
            run(handle)
        finally:
            callbacks.append(time.perf_counter() - begin)

    def timed_commit(*args):
        begin = time.perf_counter()
        try:
            return commit(*args)
        finally:
            commits.append(time.perf_counter() - begin)

    server.store.write_snapshot_payload = timed_commit
    handle_class._run = timed_run
    try:
        asyncio.run(server._write_snapshot_async())
    finally:
        handle_class._run = run
        server.store.write_snapshot_payload = commit
    return callbacks, sum(commits)


def measure(registrations, state_dir, repeats=REPEATS):
    fleet = detection_heavy_fleet(registrations)
    detections = fleet.stats()["detections"]
    assert detections == registrations * SILENT * (CYCLES // WINDOW_CYCLES)
    server = SupervisionServer(port=0, tick_interval=None,
                               state_dir=state_dir, snapshot_interval=None,
                               name="bench")
    server.fleet = fleet
    loop, slice_max, commit = [], [], []
    for _ in range(repeats):
        callbacks, committed = one_snapshot(server)
        loop.append(sum(callbacks))
        slice_max.append(max(callbacks))
        commit.append(committed)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        one_snapshot(server)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    server.store.close()
    assert server.store.snapshots_written == repeats + 1
    return {
        "detections": detections,
        "loop_ms": round(statistics.median(loop) * 1000, 3),
        "loop_slice_ms_max": round(statistics.median(slice_max) * 1000, 3),
        "commit_ms": round(statistics.median(commit) * 1000, 3),
        "peak_kib": round(peak / 1024, 1),
        "file_bytes": os.path.getsize(server.store.snapshot_path),
    }


def test_snapshot_stage_smoke(benchmark, tmp_path):
    """One small pass of the measured path (the ``bench_smoke`` rot
    check); records nothing."""
    result = run_once(
        benchmark, measure, SMOKE_SIZE, str(tmp_path / "state"), repeats=1)
    assert result["file_bytes"] > 0


def test_bench_snapshot(benchmark, tmp_path):
    results = run_once(benchmark, lambda: {
        size: measure(size, str(tmp_path / f"state{size}"))
        for size in SIZES
    })
    metrics = {
        "runnables": RUNNABLES,
        "silent_runnables": SILENT,
        "cycles": CYCLES,
        "window_cycles": WINDOW_CYCLES,
        "repeats": REPEATS,
    }
    for size, result in results.items():
        for key, value in result.items():
            metrics[f"{key}@{size}"] = value
        print(f"\nsnapshot @ {size} registrations: on-loop "
              f"{result['loop_ms']:.1f} ms (longest callback "
              f"{result['loop_slice_ms_max']:.2f} ms), commit "
              f"{result['commit_ms']:.1f} ms, peak "
              f"{result['peak_kib']:.0f} KiB, "
              f"{result['file_bytes']} bytes "
              f"({result['detections']} detections)")
    record("snapshot", metrics)
