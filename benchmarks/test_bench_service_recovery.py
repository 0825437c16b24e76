"""Recovery trajectory of the supervision daemon (restore + detection gap).

The dependability claim behind ``--state-dir`` is quantitative: after the
watchdog daemon itself dies, a restart must (a) rebuild the full fleet
state — registrations, Activation Status, HBM/ARC/TSI counter blocks —
from snapshot + journal fast enough to be invisible next to process
respawn latency, and (b) resume supervision so that an application that
died *with* the daemon is still reported within one aliveness window of
the restart.  This benchmark measures both numbers in-process:

* **restore_seconds** — wall-clock for ``SupervisionServer.start()`` to
  load a snapshot of ``N_REGISTRATIONS - JOURNAL_TAIL`` registrations
  plus a ``JOURNAL_TAIL``-record journal tail (the simulated-crash
  leftovers) and come up serving;
* **detection_gap_seconds** — restore time plus the wait until every
  restored-ACTIVE registration whose application never came back is
  surfaced as a DETECTION by the ticker.

Each run is appended to ``BENCH_service_recovery.json`` at the repo
root (:func:`benchutil.record`), so the recovery trajectory is tracked
across changes.
"""

import asyncio
import time

from benchutil import record
from repro.core import FaultHypothesis, RunnableHypothesis
from repro.service import SupervisionServer, WatchdogClient

N_REGISTRATIONS = 200
JOURNAL_TAIL = 50          # registrations journaled after the last snapshot
TICK_S = 0.005             # 5 ms check cycle, same as the serve smoke tests
ALIVENESS_CYCLES = 20      # silence budget before a DETECTION (~100 ms)


def make_hypothesis(name):
    hyp = FaultHypothesis()
    hyp.add_runnable(RunnableHypothesis(
        f"{name}.step", task=f"{name}.T",
        aliveness_period=ALIVENESS_CYCLES, min_heartbeats=1,
        arrival_period=ALIVENESS_CYCLES, max_heartbeats=1000))
    return hyp


def _register_many(host, port, names):
    """Blocking SDK client run from an executor thread (the asyncio
    daemon owns the main thread, exactly like the ingest benchmark)."""
    client = WatchdogClient((host, port), client_name="bench")
    client.connect()
    for name in names:
        client.register(name, make_hypothesis(name))
    # No farewell BYE: these applications "die with the daemon", so the
    # restored registrations stay ACTIVE and must be detected.
    client.close(say_bye=False)


async def _recovery_run(state_dir):
    loop = asyncio.get_running_loop()
    names = [f"app{i:04d}" for i in range(N_REGISTRATIONS)]
    snapshotted, tail = names[:-JOURNAL_TAIL], names[-JOURNAL_TAIL:]

    # Act 1 — populate a daemon, snapshot, leave a journal tail, crash.
    server = SupervisionServer(port=0, tick_interval=None,
                               state_dir=state_dir, snapshot_interval=None)
    await server.start()
    await loop.run_in_executor(
        None, _register_many, server.host, server.port, snapshotted)
    server.write_snapshot()
    await loop.run_in_executor(
        None, _register_many, server.host, server.port, tail)
    # Simulated SIGKILL: no farewell snapshot, the journal tail survives
    # only on disk.
    await server.stop(save=False)

    # Act 2 — restart from the state directory; time the restore.
    server = SupervisionServer(port=0, tick_interval=TICK_S,
                               state_dir=state_dir, snapshot_interval=None)
    begin = time.perf_counter()
    await server.start()
    restore_seconds = time.perf_counter() - begin
    restored = server.restored_registrations

    # Act 3 — nobody heartbeats after the crash, so every restored-ACTIVE
    # registration must surface as an aliveness DETECTION.
    detect_begin = time.perf_counter()
    deadline = detect_begin + 30.0
    while server.fleet.stats()["detections"] < N_REGISTRATIONS:
        if time.perf_counter() > deadline:
            raise AssertionError(
                f"only {server.fleet.stats()['detections']} of "
                f"{N_REGISTRATIONS} restored registrations detected")
        await asyncio.sleep(TICK_S)
    detection_wait_seconds = time.perf_counter() - detect_begin
    await server.stop(save=False)
    return {
        "restored": restored,
        "restore_seconds": restore_seconds,
        "detection_wait_seconds": detection_wait_seconds,
        "detection_gap_seconds": restore_seconds + detection_wait_seconds,
    }


def test_bench_service_recovery(benchmark, tmp_path):
    """Acceptance: full restore < 2 s, detection gap < restore + 5 s."""
    result = benchmark.pedantic(
        lambda: asyncio.run(_recovery_run(str(tmp_path / "state"))),
        rounds=1, iterations=1)
    record("service_recovery", {
        "registrations": N_REGISTRATIONS,
        "journal_tail": JOURNAL_TAIL,
        "tick_seconds": TICK_S,
        "aliveness_cycles": ALIVENESS_CYCLES,
        "restore_seconds": round(result["restore_seconds"], 6),
        "detection_wait_seconds": round(result["detection_wait_seconds"], 6),
        "detection_gap_seconds": round(result["detection_gap_seconds"], 6),
    })
    print(f"\nrecovery: {result['restored']} registrations restored in "
          f"{result['restore_seconds'] * 1000:.1f} ms, silent apps all "
          f"detected after a further "
          f"{result['detection_wait_seconds'] * 1000:.1f} ms "
          f"(gap {result['detection_gap_seconds'] * 1000:.1f} ms) "
          f"-> BENCH_service_recovery.json")
    assert result["restored"] == N_REGISTRATIONS
    assert result["restore_seconds"] < 2.0, (
        f"restore took {result['restore_seconds']:.3f}s for "
        f"{N_REGISTRATIONS} registrations")
    assert result["detection_gap_seconds"] < result["restore_seconds"] + 5.0
