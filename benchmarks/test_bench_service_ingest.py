"""Service ingest throughput: heartbeat frames over a loopback socket.

The live supervision daemon's floor: with telemetry enabled it must
sustain ≥ 10k heartbeat *frames*/s (each frame batching several
indications) arriving over TCP loopback while its real-time ticker
keeps running with at most one missed check cycle.  Below that, a
modestly busy ECU rack would outrun its own supervisor.

The measurement runs the daemon in-process (asyncio) with a writer
driving pre-encoded frames from an executor thread — the same bytes the
SDK would produce, minus SDK-side buffering, so the number measures
daemon ingest, not client overhead.  The writer is *paced* 25 % above
the floor rate: an unbounded flood measures how TCP backpressure
absorbs a burst (the flood test in ``tests/test_service_server.py``
covers that); the dependability claim is that at the contracted
arrival rate every indication is applied on time and the check-cycle
ticker stays on schedule.

The record ``{frames_per_s, applied, missed_ticks, ticks}`` is appended
to ``BENCH_service_ingest.json`` (:func:`benchutil.record`).
"""

import asyncio
import socket
import time

from benchutil import record
from repro.core import FaultHypothesis, RunnableHypothesis
from repro.core.config_io import hypothesis_to_dict
from repro.service import SupervisionServer
from repro.service.protocol import (
    T_ACK,
    T_HEARTBEAT,
    T_HELLO,
    T_REGISTER,
    FrameDecoder,
    encode_frame,
)

FRAMES = 5_000
#: Frames of the smoke pass: a short run of the same path.
SMOKE_FRAMES = 500
BATCH = 8  # indications per frame
FLOOR_FRAMES_PER_S = 10_000
#: Paced send rate: 25 % above the floor.
RATE_FRAMES_PER_S = 12_500
#: Frames per pacing slice (one slice per check cycle at the target rate).
SLICE = RATE_FRAMES_PER_S // 100
#: Ticker period during ingest — realistic 10 ms check cycles.
TICK_S = 0.01


def make_hyp_dict():
    hyp = FaultHypothesis()
    hyp.add_runnable(RunnableHypothesis(
        "hot", task="T", aliveness_period=1_000_000, min_heartbeats=1,
        arrival_period=1_000_000, max_heartbeats=10 ** 9))
    return hypothesis_to_dict(hyp)


def _drive_loopback(host, port, count):
    """Blocking (executor-thread) writer: register, then fire ``count``
    pre-encoded heartbeat frames; returns the send-side wall time."""
    sock = socket.create_connection((host, port), timeout=10)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    decoder = FrameDecoder()
    sock.sendall(encode_frame(T_REGISTER, name="p",
                              hypothesis=make_hyp_dict()))
    while True:
        frames = [f for f in decoder.feed(sock.recv(65536))
                  if getattr(f, "type", None) == T_ACK]
        if frames:
            assert frames[0].get("ok"), frames[0].data
            break
    payload = encode_frame(
        T_HEARTBEAT, name="p",
        batch=[["hot", None, "T"]] * BATCH)
    begin = time.perf_counter()
    sent = 0
    while sent < count:
        for _ in range(min(SLICE, count - sent)):
            sock.sendall(payload)
            sent += 1
        # Pace to the target rate (sendall returning early just means
        # the kernel buffered the bytes; the deadline keeps the *offered
        # load* at RATE_FRAMES_PER_S).
        deadline = begin + sent / RATE_FRAMES_PER_S
        wait = deadline - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
    # Barrier: frames dispatch in order per connection and each
    # indication is applied as its frame is dispatched, so the HELLO
    # ACK proves every heartbeat frame has been applied.
    sock.sendall(encode_frame(T_HELLO, client="bench"))
    while True:
        frames = [f for f in decoder.feed(sock.recv(65536))
                  if getattr(f, "type", None) == T_ACK]
        if frames:
            break
    elapsed = time.perf_counter() - begin
    sock.close()
    return elapsed


async def _ingest_run(count=FRAMES):
    server = SupervisionServer(port=0, tick_interval=TICK_S)
    await server.start()
    loop = asyncio.get_running_loop()
    begin = time.perf_counter()
    send_seconds = await loop.run_in_executor(
        None, _drive_loopback, server.host, server.port, count)
    ingest_seconds = time.perf_counter() - begin
    applied = server.fleet.stats()["indications"]
    missed = server.missed_ticks
    ticks = server.fleet.stats()["ticks"]
    await server.stop()
    return {
        "send_seconds": send_seconds,
        "ingest_seconds": ingest_seconds,
        "applied": applied,
        "missed_ticks": missed,
        "ticks": ticks,
    }


def test_service_ingest_smoke(benchmark):
    """One short pass of the measured path (the ``bench_smoke`` rot
    check); records nothing."""
    result = benchmark.pedantic(
        lambda: asyncio.run(_ingest_run(SMOKE_FRAMES)), rounds=1,
        iterations=1)
    assert result["applied"] == SMOKE_FRAMES * BATCH


def test_bench_service_ingest_floor(benchmark):
    """Acceptance: ≥ 10k heartbeat frames/s, ≤ 1 missed check cycle."""
    result = benchmark.pedantic(
        lambda: asyncio.run(_ingest_run()), rounds=1, iterations=1
    )
    frames_per_s = FRAMES / result["ingest_seconds"]
    print(f"\ningest: {FRAMES} frames ({FRAMES * BATCH} indications) in "
          f"{result['ingest_seconds']:.3f}s -> {frames_per_s:,.0f} frames/s, "
          f"{result['ticks']} check cycles, "
          f"{result['missed_ticks']} missed")
    record("service_ingest", {
        "frames_per_s": round(frames_per_s, 1),
        "applied": result["applied"],
        "missed_ticks": result["missed_ticks"],
        "ticks": result["ticks"],
    })
    assert result["applied"] == FRAMES * BATCH  # nothing dropped
    assert frames_per_s >= FLOOR_FRAMES_PER_S, (
        f"daemon ingested only {frames_per_s:,.0f} frames/s "
        f"(floor {FLOOR_FRAMES_PER_S:,})"
    )
    assert result["missed_ticks"] <= 1, (
        f"ticker missed {result['missed_ticks']} check cycles under load"
    )
