"""Snapshot stage cost of the supervision daemon (build, write, size).

Every ``--snapshot-interval`` the daemon captures its fleet on the event
loop (``Fleet.snapshot`` plus ``StateStore.build_snapshot_payload``) and
hands the capture to a worker thread that encodes and writes it
(``StateStore.write_snapshot_payload``).  The capture holds the event
loop outright; the write holds the GIL for as long as the JSON encoder
runs in Python.  Both, and the file they produce, should scale with the
*live* state — the registrations — not with how many detections the
daemon has raised since it started.

The fleet is driven in-process through a detection-heavy script: every
registration has four runnables, two of which stay silent, so each of
those raises one aliveness error per window for the whole script.  At
200 and 2000 registrations the benchmark reports

* ``capture_ms`` — ``Fleet.snapshot`` plus ``build_snapshot_payload``;
* ``write_ms`` — ``write_snapshot_payload`` (encode, write, fsync,
  rename);
* ``file_bytes`` — the size of ``snapshot.json``;

each timing the median of :data:`REPEATS` runs.  The record is appended
to ``BENCH_snapshot.json`` (:func:`benchutil.record`).
"""

import os
import statistics
import time

from benchutil import record, run_once
from repro.core import FaultHypothesis, RunnableHypothesis
from repro.core.config_io import hypothesis_to_dict
from repro.service import StateStore
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


def measure(registrations, state_dir, repeats=REPEATS):
    fleet = detection_heavy_fleet(registrations)
    detections = fleet.stats()["detections"]
    assert detections == registrations * SILENT * (CYCLES // WINDOW_CYCLES)
    store = StateStore(state_dir)
    capture, write = [], []
    for _ in range(repeats):
        begin = time.perf_counter()
        payload = store.build_snapshot_payload(fleet.snapshot(), name="bench")
        capture.append(time.perf_counter() - begin)
        begin = time.perf_counter()
        store.write_snapshot_payload(payload)
        write.append(time.perf_counter() - begin)
    store.close()
    return {
        "detections": detections,
        "capture_ms": round(statistics.median(capture) * 1000, 3),
        "write_ms": round(statistics.median(write) * 1000, 3),
        "file_bytes": os.path.getsize(store.snapshot_path),
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
        print(f"\nsnapshot @ {size} registrations: capture "
              f"{result['capture_ms']:.1f} ms, write "
              f"{result['write_ms']:.1f} ms, "
              f"{result['file_bytes']} bytes "
              f"({result['detections']} detections)")
    record("snapshot", metrics)
