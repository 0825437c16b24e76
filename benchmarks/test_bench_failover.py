"""Failover of the supervision daemon, end to end: ``kill -9`` until the
first ACKed REGISTER.

Failover is a restart: a service manager (systemd ``Restart=always``)
starts ``repro serve --state-dir D`` again on the same port once the
daemon has died.  This benchmark measures that path with real
processes.  The clock starts at the SIGKILL and stops when a client
holds an ok ACK for its REGISTER on the restarted daemon.  The interval
covers the reap of the dead daemon, the new interpreter and its
imports, the state-dir lock, the restore of the directory (snapshot,
then journal), the bind, and one REGISTER round trip.  The client sends
its REGISTER as soon as the restarted daemon prints its banner, so no
reconnect backoff is counted.

Each size starts from the detection-heavy fleet of
``benchmarks/test_bench_snapshot.py``, written once as the state dir's
snapshot.  The daemon runs with a periodic snapshot every
:data:`SNAPSHOT_INTERVAL` seconds, and each kill lands at a random
phase of that cycle (seeded), sometimes in the middle of a streamed
snapshot.  The restarted daemon is the next round's victim, so every
round after the first restores what a killed daemon left behind.  The
REGISTER rebinds one of the restored registrations, as a client's
reconnect replay does.

At 200 and 2000 registrations, :data:`ROUNDS` rounds each, the record
appended to ``BENCH_failover.json`` (:func:`benchutil.record`) holds
``failover_s_p50``, ``failover_s_q1`` and ``failover_s_q3`` per size.
"""

import random
import socket
import statistics
import time

from benchutil import record, run_once, spawn_daemon, stop_daemon
from repro.service import StateStore
from repro.service.protocol import T_ACK, T_REGISTER, FrameDecoder, encode_frame
from test_bench_snapshot import detection_heavy_fleet, hypothesis_dict

SIZES = (200, 2000)
ROUNDS = 10
#: The daemon's ``--snapshot-interval``, in seconds: one snapshot per
#: second, as wdbench's ``durable_restart`` workload runs.
SNAPSHOT_INTERVAL = 1.0
SEED = 31
SMOKE_SIZE, SMOKE_ROUNDS, SMOKE_INTERVAL = 20, 1, 0.2


def write_state_dir(state_dir, registrations):
    """A state dir holding the detection-heavy fleet as its snapshot."""
    fleet = detection_heavy_fleet(registrations)
    with StateStore(state_dir) as store:
        store.write_snapshot(fleet.snapshot(), name="bench")


def tcp_port(banner):
    return int(banner.split("tcp=", 1)[1].split()[0].rsplit(":", 1)[1])


def register(port, name, hypothesis, *, timeout=10.0):
    """Send one REGISTER on a new connection; return its ACK frame."""
    decoder = FrameDecoder()
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        sock.sendall(encode_frame(T_REGISTER, name=name,
                                  hypothesis=hypothesis))
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("daemon closed before its ACK")
            for frame in decoder.feed(chunk):
                if getattr(frame, "type", None) == T_ACK:
                    return frame


def measure(registrations, state_dir, pycache, *, rounds=ROUNDS,
            snapshot_interval=SNAPSHOT_INTERVAL, seed=SEED):
    """``kill -9`` until the first ACKed REGISTER, ``rounds`` times;
    returns the durations in seconds."""
    write_state_dir(state_dir, registrations)
    rng = random.Random(seed)
    hypothesis = hypothesis_dict()
    args = ("--state-dir", state_dir,
            "--snapshot-interval", str(snapshot_interval))
    proc, banner = spawn_daemon(pycache, *args)
    port = tcp_port(banner)
    durations = []
    try:
        for _ in range(rounds):
            # One full snapshot interval, then a random phase of the next.
            time.sleep(snapshot_interval * (1.0 + rng.random()))
            began = time.perf_counter()
            proc.kill()
            proc.wait()
            proc.stdout.close()
            proc, banner = spawn_daemon(pycache, "--port", str(port), *args)
            ack = register(port, "app0000", hypothesis)
            durations.append(time.perf_counter() - began)
            assert ack.get("ok") and ack.get("rebound") is True, ack
            assert f"restored={registrations}" in banner, banner
    finally:
        stop_daemon(proc)
    return durations


def summary(durations):
    q1, p50, q3 = statistics.quantiles(durations, n=4)
    return {"failover_s_p50": round(p50, 4), "failover_s_q1": round(q1, 4),
            "failover_s_q3": round(q3, 4)}


def test_failover_smoke(benchmark, tmp_path):
    """One short round of the measured path (the ``bench_smoke`` rot
    check); records nothing."""
    durations = run_once(
        benchmark, measure, SMOKE_SIZE, str(tmp_path / "state"),
        str(tmp_path / "pycache"), rounds=SMOKE_ROUNDS,
        snapshot_interval=SMOKE_INTERVAL)
    assert len(durations) == SMOKE_ROUNDS
    assert all(duration > 0 for duration in durations)


def test_bench_failover(benchmark, tmp_path):
    pycache = str(tmp_path / "pycache")
    results = run_once(benchmark, lambda: {
        size: measure(size, str(tmp_path / f"state{size}"), pycache)
        for size in SIZES
    })
    metrics = {"rounds": ROUNDS, "snapshot_interval_s": SNAPSHOT_INTERVAL,
               "seed": SEED}
    for size, durations in results.items():
        for key, value in summary(durations).items():
            metrics[f"{key}@{size}"] = value
        print(f"\nfailover @ {size} registrations: kill -9 until the first "
              f"ACKed REGISTER, median {metrics[f'failover_s_p50@{size}']:.3f}"
              f" s [IQR {metrics[f'failover_s_q1@{size}']:.3f}–"
              f"{metrics[f'failover_s_q3@{size}']:.3f}] over "
              f"{len(durations)} rounds -> BENCH_failover.json")
    record("failover", metrics)
