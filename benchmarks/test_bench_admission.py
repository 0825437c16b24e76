"""REGISTER admission: round trip and daemon CPU per registration.

In the Fault Management Framework a restarted application registers
again, so the daemon's REGISTER path decides how soon supervision
resumes.  The daemon is spawned as ``python -m repro serve`` (sources on
``PYTHONPATH``, warm bytecode cache) and one client sends, one
REGISTER→ACK at a time,

* :data:`REGISTRATIONS` *new* four-runnable registrations (one shared
  hypothesis, so every one after the first is a compile-cache hit), then
* the same names again from a second connection: *rebinds*, the
  reconnect replay, which admit nothing and are the stream/dispatch
  floor.

Daemon and client share one CPU, as in wdbench's set-up, so the round
trip is the whole cost of a registration on that CPU.  The ticker runs
every second (``--tick-ms 1000``) to keep check cycles out of the
figures.  For each phase the record holds the median round trip
(``*_rtt_p50_us``) and the daemon's CPU time per REGISTER from
``/proc/<pid>/schedstat`` (``*_daemon_cpu_us``), appended to
``BENCH_admission.json`` (:func:`benchutil.record`).
"""

import os
import socket
import statistics
import time
from contextlib import contextmanager

from benchutil import record, run_once, spawn_daemon, stop_daemon
from repro.core import FaultHypothesis, RunnableHypothesis
from repro.core.config_io import hypothesis_to_dict
from repro.service.protocol import (
    T_ACK,
    T_HELLO,
    T_REGISTER,
    FrameDecoder,
    encode_frame,
)

REGISTRATIONS = 300
SMOKE_REGISTRATIONS = 10
RUNNABLES = 4
TIMEOUT_S = 10.0


def hyp_dict():
    hyp = FaultHypothesis()
    for index in range(RUNNABLES):
        hyp.add_runnable(RunnableHypothesis(
            f"r{index}", task="T", aliveness_period=50, min_heartbeats=1,
            arrival_period=50, max_heartbeats=100))
    return hypothesis_to_dict(hyp)


@contextmanager
def on_cpu(cpu):
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, own)


def cpu_ns(pid):
    """Time the process has spent on a CPU (``/proc/<pid>/schedstat``)."""
    with open(f"/proc/{pid}/schedstat") as handle:
        return int(handle.read().split()[0])


class Peer:
    """A blocking raw-protocol client: one request, one ACK."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = FrameDecoder()
        self.request(encode_frame(T_HELLO, client="bench"))

    def request(self, payload):
        self.sock.sendall(payload)
        while True:
            for frame in self.decoder.feed(self.sock.recv(65536)):
                if getattr(frame, "type", None) == T_ACK:
                    assert frame.get("ok"), frame.data
                    return frame

    def close(self):
        self.sock.close()


def admit(port, pid, names, hypothesis):
    """REGISTER every name from a fresh connection; returns the round
    trips and the daemon's CPU seconds over them."""
    peer = Peer(port)
    payloads = [encode_frame(T_REGISTER, name=name, hypothesis=hypothesis)
                for name in names]
    round_trips = []
    cpu_before = cpu_ns(pid)
    for payload in payloads:
        began = time.perf_counter()
        peer.request(payload)
        round_trips.append(time.perf_counter() - began)
    cpu_s = (cpu_ns(pid) - cpu_before) / 1e9
    peer.close()
    return round_trips, cpu_s


def measure(pycache, count=REGISTRATIONS):
    cpu = max(os.sched_getaffinity(0))
    names = [f"app{index:03d}" for index in range(count)]
    hypothesis = hyp_dict()
    with on_cpu(cpu):
        proc, banner = spawn_daemon(pycache, "--tick-ms", "1000")
        port = int(banner.split("tcp=", 1)[1].split()[0].rsplit(":", 1)[1])
        try:
            os.sched_setaffinity(proc.pid, {cpu})
            new, new_cpu = admit(port, proc.pid, names, hypothesis)
            rebind, rebind_cpu = admit(port, proc.pid, names, hypothesis)
        finally:
            stop_daemon(proc)
    return {
        "new_rtt_p50_us": round(statistics.median(new) * 1e6, 1),
        "new_daemon_cpu_us": round(new_cpu / count * 1e6, 1),
        "rebind_rtt_p50_us": round(statistics.median(rebind) * 1e6, 1),
        "rebind_daemon_cpu_us": round(rebind_cpu / count * 1e6, 1),
        "registrations": count,
    }


def test_admission_smoke(benchmark, tmp_path):
    """A short pass of the measured path (the ``bench_smoke`` rot
    check); records nothing."""
    result = run_once(benchmark, measure, str(tmp_path / "pycache"),
                      SMOKE_REGISTRATIONS)
    assert result["registrations"] == SMOKE_REGISTRATIONS
    assert result["new_rtt_p50_us"] > 0 and result["rebind_rtt_p50_us"] > 0


def test_bench_admission(benchmark, tmp_path):
    pycache = str(tmp_path / "pycache")
    measure(pycache, SMOKE_REGISTRATIONS)  # warm the bytecode cache
    result = run_once(benchmark, measure, pycache)
    print(f"\nadmission: new {result['new_rtt_p50_us']:.0f} us round trip, "
          f"{result['new_daemon_cpu_us']:.0f} us daemon CPU; rebind "
          f"{result['rebind_rtt_p50_us']:.0f} us, "
          f"{result['rebind_daemon_cpu_us']:.0f} us")
    record("admission", result)
