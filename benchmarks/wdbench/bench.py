"""wdbench runs: set-up, measured phase, restarts, metrics, gates.

One *run* of a workload:

1. **Set-up**, ``SETUPS`` times (median reported as ``setup_s``): spawn
   ``repro serve --port 0 --http-port 0``, wait for its banner, connect,
   REGISTER every registration one at a time, send the first heartbeat
   round.  Only the last set-up is kept; before its REGISTERs the
   generator maps server time onto its own clock with idle ``/healthz``
   probes (their time is excluded from ``setup_s``).  Set-up runs on
   the daemon's CPU only, and its wall time is scaled by that CPU's
   speed, measured by :func:`calibrate` just before and after it.
2. **Measured phase** of ``--seconds``: the open loop of
   :class:`loadgen.OpenLoop`.  Daemon CPU comes from ``/proc`` around
   the phase, applied/queued/dropped counts from ``/healthz`` before
   and after it (once the daemon has drained).
3. **Restarts**, ``RESTARTS`` times (median reported as ``restore_s``):
   ``kill -9`` the daemon and start it again on the same arguments
   (the same state directory on ``durable_restart``).

``--trace`` replays the same workload and seed twice — untraced, then
with ``traced_serve.py`` in place of ``repro serve`` — and reports the
per-layer metrics of the traced run; end-to-end metrics always come
from untraced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import spans
from loadgen import (
    Daemon,
    Detection,
    OpenLoop,
    PhaseLog,
    TIMEOUT_S,
    health,
    http_get,
    open_traffic,
    pin_cpus,
    probe_clock,
    register_all,
)
from workloads import (
    TICK_S,
    WINDOW_S,
    WORKLOADS,
    Schedule,
    Silence,
    build_schedule,
    registration_name,
    runnable_name,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 5
RESTARTS = 5
DEFAULT_SECONDS = 20.0
#: A detection matches a silence that overlaps the detection's window
#: or the one before it, give or take this much check-cycle lateness
#: and clock-mapping error.
MATCH_TOLERANCE_S = 2 * TICK_S
#: Run validity: the generator itself must not be the bottleneck.  A
#: heartbeat sent 5% of an aliveness window late still lands in its
#: window, so the offered load and every silence stay as scheduled; a
#: shared host that takes the generator's CPU away for milliseconds at a
#: time makes it this late without distorting the measurement.
MAX_LATE_P99_MS = 0.05 * WINDOW_S * 1e3
MAX_LOADGEN_CPU = 0.8
MAX_CLOCK_RTT_MS = 1.5
#: Measurements per run before an invalid one fails the run (a shared
#: host occasionally stalls the generator for milliseconds).
ATTEMPTS = 3
#: What :func:`calibrate` takes on the reference host, a 2-vCPU VM
#: running Python 3.11.  ``setup_s`` is set-up wall time scaled to that
#: speed: a shared host's vCPUs run a fixed piece of Python 25–40%
#: slower for minutes at a time, which no run can outlast.
REFERENCE_CALIBRATION_S = 0.0035
_CALIBRATION_SOURCE = "\n".join(
    f"def f{i}(a, b):\n    return [a * {i}, b, {{'k{i}': (a, b)}}]\n"
    for i in range(120))
_CALIBRATION_DATA = {"runnables": [
    {"name": f"r{i}", "task": "T", "aliveness_period": 50,
     "min_heartbeats": 1, "max_heartbeats": 10 ** 6} for i in range(64)]}


class InvalidRun(RuntimeError):
    """The generator could not hold its schedule; nothing is reported."""


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
def calibrate() -> float:
    """Seconds a fixed slice of set-up-like work (compiling source, a
    JSON round trip) takes on this CPU right now: the best of five."""
    best = float("inf")
    for _ in range(5):
        began = time.perf_counter()
        compile(_CALIBRATION_SOURCE, "<calibration>", "exec")
        json.loads(json.dumps(_CALIBRATION_DATA))
        best = min(best, time.perf_counter() - began)
    return best


@contextmanager
def on_cpu(cpu: Optional[int]):
    """Run the block on ``cpu`` (where the daemon runs), then move back."""
    if cpu is None:
        yield
        return
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, own)


# ----------------------------------------------------------------------
# one measurement
# ----------------------------------------------------------------------
@dataclass
class Measurement:
    schedule: Schedule
    log: PhaseLog
    setup_s: List[float]
    setup_wall_s: List[float]
    register_s: List[float]
    restore_s: List[float]
    server_zero: float
    clock_rtt_s: float
    first_round: int
    cpu_s: float
    health_before: Dict[str, Any]
    health_after: Dict[str, Any]
    rss_mb: float
    malformed: int
    restored: int
    detections: List[Detection]
    snapshot_bytes: int = 0
    dumps: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    client_dump: Optional[Dict[str, Any]] = None

    @property
    def sent_total(self) -> int:
        return self.first_round + self.log.sent

    @property
    def applied_phase(self) -> int:
        return (self.health_after["indications"]
                - self.health_before["indications"])

    @property
    def wall_s(self) -> float:
        return self.log.ended - self.log.started

    @property
    def expected_restored(self) -> int:
        workload = self.schedule.workload
        if not workload.durable:
            return 0
        return workload.registrations + len(self.log.churn_names)


def _load_spans(path: str) -> Dict[str, Any]:
    """A traced daemon's span dump, once it has written it."""
    deadline = time.monotonic() + TIMEOUT_S
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise RuntimeError(f"traced daemon wrote no {path}")
        time.sleep(0.01)
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _wait_drained(daemon: Daemon, sent: int) -> Dict[str, Any]:
    """``/healthz`` once every sent indication is applied (or after
    TIMEOUT_S, when the correctness gate reports the shortfall)."""
    deadline = time.monotonic() + TIMEOUT_S
    while True:
        stats = health(daemon.http_port)
        if stats["queued"] == 0 and stats["indications"] >= sent:
            return stats
        if time.monotonic() > deadline:
            return stats
        time.sleep(0.01)


def _malformed_frames(http_port: int) -> int:
    for line in http_get(http_port, "/metrics").decode().splitlines():
        if line.startswith("service_malformed_frames_total"):
            return int(float(line.split()[-1]))
    return 0


def measure(schedule: Schedule, *, root: str, work: str, setups: int,
            traced: bool, cpu: Optional[int] = None) -> Measurement:
    """Set up, run the measured phase, restart; see the module docstring."""
    workload = schedule.workload
    state_dir = os.path.join(work, "state")
    log_path = os.path.join(work, "daemon.log")

    def spawn(tag: str) -> Daemon:
        argv = [sys.executable]
        if traced:
            argv += [os.path.join(HERE, "traced_serve.py"),
                     "--spans-out", os.path.join(work, f"spans-{tag}")]
        else:
            argv += ["-m", "repro", "serve"]
        argv += ["--port", "0", "--http-port", "0",
                 *workload.serve_args(state_dir)]
        return Daemon(argv, root=root, log_path=log_path, cpu=cpu)

    daemon: Optional[Daemon] = None
    traffic = None
    try:
        setup_s: List[float] = []
        setup_wall_s: List[float] = []
        register_s: List[float] = []
        for index in range(setups):
            shutil.rmtree(state_dir, ignore_errors=True)
            # Set-up is one REGISTER→ACK after another, so the generator
            # and the daemon never need a CPU at the same time.
            with on_cpu(cpu):
                speed = calibrate()
                daemon = spawn(f"setup{index}")
                probe_s = 0.0
                if index == setups - 1:
                    began = time.monotonic()
                    server_zero, clock_rtt = probe_clock(daemon.http_port)
                    probe_s = time.monotonic() - began
                traffic = open_traffic(daemon.address, schedule)
                register_s += register_all(traffic, schedule)
                first_round = sum(traffic.heartbeat(reg, [])
                                  for reg in range(workload.registrations))
                traffic.send()
                wall = time.monotonic() - daemon.spawned_at - probe_s
                speed = (speed + calibrate()) / 2
            setup_wall_s.append(wall)
            setup_s.append(wall * REFERENCE_CALIBRATION_S / speed)
            if index < setups - 1:
                traffic.close()
                traffic = None
                daemon.stop()
                daemon = None

        client_recorder = None
        if traced and workload.sender == "sdk":
            client_recorder = spans.SpanRecorder()
            spans.install_client_spans(client_recorder, traffic.client)
        spans_of = os.path.join(work, f"spans-setup{setups - 1}")
        if traced:
            # Set-up spans go to <spans_of>.1.json, phase spans to .2.
            daemon.proc.send_signal(signal.SIGUSR1)
        health_before = health(daemon.http_port)
        cpu_before = daemon.cpu_seconds()
        loop = OpenLoop(traffic, schedule, daemon.http_port, daemon.port)
        log = loop.run(schedule.seconds)
        cpu_s = daemon.cpu_seconds() - cpu_before
        if traced:
            daemon.proc.send_signal(signal.SIGUSR1)
        loop.finish()
        client_dump = client_recorder.take() if client_recorder else None
        if workload.sender == "sdk":
            traffic.flush()
        health_after = _wait_drained(daemon, first_round + log.sent)
        rss_mb = daemon.peak_rss_mb()
        malformed = _malformed_frames(daemon.http_port)
        dumps: Dict[str, Dict[str, Any]] = {}
        if traced:
            dumps["setup"] = _load_spans(spans_of + ".1.json")
            dumps["phase"] = _load_spans(spans_of + ".2.json")
        snapshot_path = os.path.join(state_dir, "snapshot.json")
        snapshot_bytes = (os.path.getsize(snapshot_path)
                          if os.path.exists(snapshot_path) else 0)
        detections = [d for d in traffic.detections
                      if log.started <= d.received <= log.ended]
        traffic.close()
        traffic = None

        restore_s: List[float] = []
        for index in range(RESTARTS):
            killed_at = time.monotonic()
            daemon.kill()
            daemon = None
            daemon = spawn(f"restart{index}")
            restore_s.append(daemon.banner_at - killed_at)
        restored = daemon.restored
        daemon.stop()
        daemon = None
        if traced:
            dumps["restore"] = _load_spans(
                os.path.join(work, f"spans-restart{RESTARTS - 1}.1.json"))
    finally:
        if traffic is not None:
            traffic.close()
        if daemon is not None:
            daemon.kill()

    return Measurement(
        schedule=schedule, log=log, setup_s=setup_s,
        setup_wall_s=setup_wall_s, register_s=register_s,
        restore_s=restore_s, server_zero=server_zero, clock_rtt_s=clock_rtt,
        first_round=first_round, cpu_s=cpu_s, health_before=health_before,
        health_after=health_after, rss_mb=rss_mb, malformed=malformed,
        restored=restored, detections=detections,
        snapshot_bytes=snapshot_bytes, dumps=dumps, client_dump=client_dump,
    )


# ----------------------------------------------------------------------
# detections vs silences
# ----------------------------------------------------------------------
@dataclass
class Matching:
    #: Silence start → first matching DETECTION received, seconds.
    latencies: List[float]
    #: DETECTION server time → received, seconds (every detection).
    push_lags: List[float]
    false_detections: int
    undetected: int


def match_detections(m: Measurement) -> Matching:
    """Pair each DETECTION with the silence it reports.

    A detection is legitimate when its runnable was silent in the
    detection's aliveness window or the one before it; any other
    detection is false.  A silence nobody reported is undetected.
    """
    started = m.log.started
    by_runnable: Dict[Tuple[str, str], List[Silence]] = {}
    for s in m.schedule.silences:
        key = (registration_name(s.registration), runnable_name(s.runnable))
        by_runnable.setdefault(key, []).append(s)
    first: Dict[Silence, float] = {}
    push_lags: List[float] = []
    false = 0
    for d in sorted(m.detections, key=lambda d: d.received):
        raised = m.server_zero + d.server_time_us / 1e6
        push_lags.append(d.received - raised)
        at = raised - started
        match = None
        if d.error_type == "aliveness":
            for s in by_runnable.get((d.registration, d.runnable), ()):
                if (s.start - MATCH_TOLERANCE_S <= at
                        <= s.end + 2 * WINDOW_S + MATCH_TOLERANCE_S):
                    match = s
                    break
        if match is None:
            false += 1
        elif match not in first:
            first[match] = d.received - (started + match.start)
    return Matching(
        latencies=list(first.values()), push_lags=push_lags,
        false_detections=false,
        undetected=len(m.schedule.silences) - len(first),
    )


# ----------------------------------------------------------------------
# metrics and gates
# ----------------------------------------------------------------------
Metric = Tuple[float, str, int]  # value, unit, samples


def gate(m: Measurement, match: Matching) -> Tuple[int, int, List[str]]:
    """The correctness gate: (attempted, failed, problems)."""
    applied = m.health_after["indications"]
    error_acks = m.malformed + m.log.churn_errors
    handler_errors = m.health_after["handler_errors"]
    failures = {
        "indications sent but not applied": abs(m.sent_total - applied),
        "undetected silences": match.undetected,
        "false detections": match.false_detections,
        "error ACKs": error_acks,
        "registrations not restored": abs(m.expected_restored - m.restored),
        "handler errors": handler_errors,
    }
    attempted = (m.sent_total + len(m.schedule.silences)
                 + len(m.register_s) + m.log.churn_sent + m.expected_restored)
    problems = [f"{n} {what}" for what, n in failures.items() if n]
    return attempted, sum(failures.values()), problems


def check_valid(m: Measurement) -> Dict[str, Metric]:
    """The generator's self-measurement; raises :class:`InvalidRun`."""
    late_p99_ms = percentile(list(m.log.late), 99) * 1e3
    cpu_util = m.log.loadgen_cpu_s / m.wall_s
    rtt_ms = m.clock_rtt_s * 1e3
    if (late_p99_ms > MAX_LATE_P99_MS or cpu_util > MAX_LOADGEN_CPU
            or rtt_ms > MAX_CLOCK_RTT_MS):
        raise InvalidRun(
            f"{m.schedule.workload.name}: generator late p99 "
            f"{late_p99_ms:.2f} ms, cpu {cpu_util:.2f}, clock rtt "
            f"{rtt_ms:.2f} ms (limits {MAX_LATE_P99_MS}, {MAX_LOADGEN_CPU}, "
            f"{MAX_CLOCK_RTT_MS})")
    return {
        "loadgen.late_p99_ms": (late_p99_ms, "ms", len(m.log.late)),
        "loadgen.cpu_util": (cpu_util, "cpu_s/s", 1),
        "loadgen.clock_rtt_ms": (rtt_ms, "ms", 20),
    }


def cpu_us_per_ind(m: Measurement) -> float:
    return m.cpu_s / m.applied_phase * 1e6


def end_to_end(m: Measurement, match: Matching,
               attempted: int, failed: int) -> Dict[str, Metric]:
    workload = m.schedule.workload
    registers = m.log.register_s if workload.churn_rate else m.register_s
    lat_ms = [v * 1e3 for v in match.latencies]
    lag_ms = [v * 1e3 for v in match.push_lags]
    return {
        "setup_s": (statistics.median(m.setup_s), "s", len(m.setup_s)),
        "setup_wall_s": (statistics.median(m.setup_wall_s), "s",
                         len(m.setup_wall_s)),
        "daemon_cpu_us_per_ind": (cpu_us_per_ind(m), "us", m.applied_phase),
        "daemon_cpu_util": (m.cpu_s / m.wall_s, "cpu_s/s", 1),
        "detect_p50_ms": (percentile(lat_ms, 50), "ms", len(lat_ms)),
        "detect_p95_ms": (percentile(lat_ms, 95), "ms", len(lat_ms)),
        "push_lag_p50_ms": (percentile(lag_ms, 50), "ms", len(lag_ms)),
        "push_lag_p95_ms": (percentile(lag_ms, 95), "ms", len(lag_ms)),
        "register_p50_ms": (percentile(registers, 50) * 1e3, "ms",
                            len(registers)),
        "restore_s": (statistics.median(m.restore_s), "s", len(m.restore_s)),
        "client_us_per_ind": (m.log.client_s / m.log.sent * 1e6, "us",
                              m.log.sent),
        "rss_mb": (m.rss_mb, "MiB", 1),
        "failed_ratio": (failed / attempted, "ratio", attempted),
    }


def _aggregate_rate(dump: Optional[Dict[str, Any]], name: str, field: int,
                    scale: float, per: Optional[int] = None):
    entry = (dump or {}).get("aggregates", {}).get(name)
    count = per if per is not None else (entry[spans.COUNT] if entry else 0)
    if not entry or not count:
        return None
    return entry[field] / count * scale, count


def _record_mean(dump: Dict[str, Any], name: str, scale: float, *,
                 own: bool = False):
    values = (spans.self_times if own else spans.durations)(dump, name)
    if not values:
        return None
    return statistics.fmean(values) * scale, len(values)


#: Whole-daemon (and sender) numbers of the untraced twin, recorded with
#: the per-layer metrics: on a shared host their run-to-run spread is too
#: wide for an end-to-end bound (README.md, "Measured spreads").
UNBOUNDED = {
    "server.cpu_us_per_ind": "daemon_cpu_us_per_ind",
    "server.push_lag_p50_ms": "push_lag_p50_ms",
    "server.push_lag_p95_ms": "push_lag_p95_ms",
    "client.us_per_ind": "client_us_per_ind",
}


def per_layer(traced: Measurement,
              base_metrics: Dict[str, Metric]) -> Dict[str, Metric]:
    """Per-layer metrics of a traced run; ``base_metrics`` are the
    end-to-end metrics of its untraced twin (same workload and seed).
    A metric whose layer the workload never exercises is left out."""
    phase = traced.dumps["phase"]
    # The REGISTER path runs during set-up, and during the phase on
    # durable_restart (churn).
    control = spans.merge([traced.dumps["setup"], phase])
    restore = traced.dumps["restore"]
    tallies = phase["tallies"]
    frames = tallies.get("protocol.feed.frames", 0)
    ticks = [d * 1e3 for d in spans.durations(phase, "server.tick")]
    coverage = spans.coverage(phase, traced.cpu_s)
    health = traced.log.health
    before, after = traced.health_before, traced.health_after
    candidates = {
        "protocol.feed_us_per_frame": (_aggregate_rate(
            phase, "protocol.feed", spans.TOTAL, 1e6, per=frames), "us"),
        "protocol.bytes_per_frame": (
            (tallies["protocol.feed.bytes"] / frames, frames)
            if frames else None, "bytes"),
        "protocol.encode_us_per_frame": (_aggregate_rate(
            phase, "protocol.encode", spans.TOTAL, 1e6), "us"),
        "server.tick_ms_p50": (
            (percentile(ticks, 50), len(ticks)) if ticks else None, "ms"),
        "server.tick_ms_p95": (
            (percentile(ticks, 95), len(ticks)) if ticks else None, "ms"),
        "server.residual_cpu_share": ((1.0 - coverage, 1), "ratio"),
        "server.queue_depth_max": (
            (max(h["queued"] for h in health), len(health)), "count"),
        "server.dropped_ind": (
            (after["dropped"] - before["dropped"], 1), "count"),
        "server.missed_ticks": (
            (after["missed_ticks"] - before["missed_ticks"], 1), "count"),
        "supervisor.heartbeat_self_us_per_ind": (_aggregate_rate(
            phase, "supervisor.heartbeat", spans.SELF, 1e6), "us"),
        "supervisor.register_self_ms": (_record_mean(
            control, "supervisor.register", 1e3, own=True), "ms"),
        "supervisor.tick_self_ms": (_record_mean(
            phase, "supervisor.tick", 1e3, own=True), "ms"),
        "watchdog.heartbeat_us_per_ind": (_aggregate_rate(
            phase, "watchdog.heartbeat", spans.TOTAL, 1e6), "us"),
        "watchdog.check_cycle_us": (_aggregate_rate(
            phase, "watchdog.check_cycle", spans.TOTAL, 1e6), "us"),
        "fleet.rollup_ms": (_record_mean(
            phase, "fleet.tick", 1e3, own=True), "ms"),
        "fleet.snapshot_ms": (_record_mean(
            phase, "fleet.snapshot", 1e3), "ms"),
        "fleet.restore_ms": (_record_mean(
            restore, "fleet.restore", 1e3), "ms"),
        "lint.register_ms": (_record_mean(
            control, "lint.lint_hypothesis", 1e3), "ms"),
        "config_io.parse_ms": (_record_mean(
            control, "config_io.hypothesis_from_dict", 1e3), "ms"),
        "persistence.append_us": (_record_mean(
            control, "persistence.append", 1e6), "us"),
        "persistence.snapshot_write_ms": (_record_mean(
            phase, "persistence.write_snapshot_payload", 1e3), "ms"),
        "persistence.truncate_ms": (_record_mean(
            phase, "persistence.truncate_journal_through", 1e3), "ms"),
        "persistence.snapshot_bytes": (
            (traced.snapshot_bytes, 1) if traced.snapshot_bytes else None,
            "bytes"),
        "persistence.load_ms": (_record_mean(
            restore, "persistence.load", 1e3), "ms"),
        "client.heartbeat_self_us": (_aggregate_rate(
            traced.client_dump, "client.heartbeat", spans.SELF, 1e6), "us"),
        "client.flush_us_per_frame": (_aggregate_rate(
            traced.client_dump, "client.flush", spans.TOTAL, 1e6), "us"),
        "telemetry.inc_per_ind": (
            (tallies["telemetry.inc"] / traced.applied_phase,
             traced.applied_phase), "ratio"),
        "trace.coverage": ((coverage, 1), "ratio"),
        "trace.overhead": ((spans.overhead(
            cpu_us_per_ind(traced), base_metrics["daemon_cpu_us_per_ind"][0]),
            1), "ratio"),
    }
    out = {
        name: (got[0], unit, got[1])
        for name, (got, unit) in candidates.items() if got is not None
    }
    out.update((name, base_metrics[e2e]) for name, e2e in UNBOUNDED.items())
    return out


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
@dataclass
class Result:
    workload: str
    metrics: Dict[str, Metric]
    attempted: int
    failed: int
    problems: List[str]


def _evaluate(m: Measurement) -> Result:
    """Validity check, correctness gate and end-to-end metrics."""
    loadgen_metrics = check_valid(m)
    match = match_detections(m)
    attempted, failed, problems = gate(m, match)
    metrics = dict(end_to_end(m, match, attempted, failed), **loadgen_metrics)
    return Result(m.schedule.workload.name, metrics, attempted, failed,
                  problems)


def _measure_valid(schedule: Schedule, **kwargs: Any
                   ) -> Tuple[Measurement, Result]:
    """:func:`measure` until the generator held its schedule, at most
    ``ATTEMPTS`` times; an invalid attempt is discarded, not reported."""
    for attempt in range(1, ATTEMPTS):
        m = measure(schedule, **kwargs)
        try:
            return m, _evaluate(m)
        except InvalidRun as exc:
            print(f"wdbench: discarded invalid attempt {attempt}: {exc}",
                  file=sys.stderr, flush=True)
    m = measure(schedule, **kwargs)
    return m, _evaluate(m)


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 root: str, work: str, cpu: Optional[int]) -> Result:
    schedule = build_schedule(WORKLOADS[name], seed, seconds)
    where = dict(root=root, work=work, cpu=cpu)
    if not trace:
        return _measure_valid(schedule, setups=SETUPS, traced=False,
                              **where)[1]
    untraced = _measure_valid(schedule, setups=1, traced=False, **where)[1]
    m, traced = _measure_valid(schedule, setups=1, traced=True, **where)
    metrics = per_layer(m, untraced.metrics)
    metrics.update((k, v) for k, v in traced.metrics.items()
                   if k.startswith("loadgen."))
    return Result(name, metrics, untraced.attempted + traced.attempted,
                  untraced.failed + traced.failed,
                  untraced.problems + traced.problems)


def main(argv: List[str], *, root: str) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py", description="wdbench: open-loop end-to-end and "
        "per-layer benchmark of the live supervision daemon")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload (seeds S, S+1, ...); "
                        "prints median and quartiles")
    args = parser.parse_args(argv)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    reported = [m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]]
    names = [args.workload] if args.workload else list(WORKLOADS)

    cpu = pin_cpus()
    workdir = os.path.join(root, ".wdbench")
    os.makedirs(workdir, exist_ok=True)
    work = tempfile.mkdtemp(dir=workdir)
    summary: Dict[str, Dict[str, Any]] = {}
    attempted = failed = 0
    problems: List[str] = []
    try:
        for name in names:
            runs: List[Result] = []
            for index in range(args.repeat):
                result = run_workload(name, args.seed + index, args.seconds,
                                      bool(args.trace), root=root, work=work,
                                      cpu=cpu)
                runs.append(result)
                attempted += result.attempted
                failed += result.failed
                problems += [f"{name} seed {args.seed + index}: {p}"
                             for p in result.problems]
            summary.update(_report(name, runs, reported,
                                   suffix=len(names) > 1))
    except InvalidRun as exc:
        print(f"wdbench: invalid run: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"wdbench: correctness: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": summary,
    }))
    return 1 if problems else 0


def _report(workload: str, runs: List[Result], reported: List[str], *,
            suffix: bool) -> Dict[str, Dict[str, Any]]:
    """Print every metric; return the JSON entries of the reported ones
    (the median over repeated runs)."""
    out: Dict[str, Dict[str, Any]] = {}
    for name in reported:
        if name not in runs[0].metrics:
            raise RuntimeError(f"{workload} did not measure {name}")
    for name, (_, unit, n) in runs[0].metrics.items():
        values = [r.metrics[name][0] for r in runs if name in r.metrics]
        value = statistics.median(values)
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (max(values) - min(values)) / value if value else 0.0
            iqr = (q3 - q1) / value if value else 0.0
            print(f"{workload} {name} median={value:.6g} q1={q1:.6g} "
                  f"q3={q3:.6g} min={min(values):.6g} max={max(values):.6g} "
                  f"{unit} range/median={spread:.3f} iqr/median={iqr:.3f} "
                  f"(runs={len(values)})", flush=True)
        else:
            print(f"{workload} {name} {value:.6g} {unit} (n={n})", flush=True)
        if name in reported:
            key = f"{name}@{workload}" if suffix else name
            out[key] = {"value": value, "unit": unit}
    return out
