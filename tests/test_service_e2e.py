"""End-to-end smoke: a real ``python -m repro serve`` daemon process.

Marked ``serve_smoke`` (tier-2, like ``bench_smoke``): one daemon
subprocess, two SDK clients, one induced crash.  The crashed client's
silence must surface as a DETECTION push on the survivor's wire, and
SIGTERM must shut the daemon down cleanly (exit 0, shutdown summary,
no pending-task warnings).

Run: ``make serve-smoke`` or ``pytest tests/test_service_e2e.py -m serve_smoke``.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.core import FaultHypothesis, RunnableHypothesis
from repro.service import WatchdogClient
from testutil import wait_for

pytestmark = pytest.mark.serve_smoke

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def make_hypothesis(prefix):
    # Periods are in *check cycles*: with --tick-ms 5 an aliveness
    # window of 10 cycles is ~50 ms of daemon wall-clock.
    hyp = FaultHypothesis()
    hyp.add_runnable(RunnableHypothesis(
        f"{prefix}.step", task=f"{prefix}.T", aliveness_period=10,
        min_heartbeats=1, arrival_period=10, max_heartbeats=1000))
    return hyp


@pytest.fixture
def daemon(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO_ROOT, "src")
    telemetry = tmp_path / "serve.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--http-port", "0", "--tick-ms", "5",
         "--telemetry", str(telemetry)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    banner = proc.stdout.readline()
    match = re.search(r"tcp=([\d.]+):(\d+) http=([\d.]+):(\d+)", banner)
    assert match, f"unparseable banner: {banner!r}"
    info = {
        "proc": proc,
        "address": (match.group(1), int(match.group(2))),
        "http": f"http://{match.group(3)}:{match.group(4)}",
        "telemetry": telemetry,
    }
    yield info
    if proc.poll() is None:
        proc.kill()
        proc.communicate(timeout=10)


def test_two_clients_one_crash_one_detection(daemon):
    address = daemon["address"]

    survivor = WatchdogClient(address, client_name="survivor", watch=True)
    survivor.connect()
    survivor.register("survivor", make_hypothesis("survivor"))

    victim = WatchdogClient(address, client_name="victim", reconnect=False)
    victim.connect()
    victim.register("victim", make_hypothesis("victim"))

    # Both processes live for a few beats.
    for _ in range(5):
        survivor.heartbeat("survivor.step", task="survivor.T")
        victim.heartbeat("victim.step", task="victim.T")
        survivor.flush()
        victim.flush()
        time.sleep(0.01)

    # Induced crash: the victim vanishes without a BYE.
    victim._drop_connection()

    # The survivor keeps heartbeating and polls for pushes.  The
    # victim's aliveness window (10 check cycles ~= 50 ms of daemon
    # wall-clock) lapses, so a DETECTION about victim.step must arrive.
    def victim_detected():
        survivor.heartbeat("survivor.step", task="survivor.T")
        survivor.flush()
        survivor.poll()
        return next(
            (d for d in survivor.detections
             if d.get("runnable") == "victim.step"), None)

    detected = wait_for(victim_detected, timeout=15.0,
                        message="the victim's DETECTION")
    assert detected is not None, "victim crash never surfaced as DETECTION"
    assert detected["error_type"] == "aliveness"
    assert detected["name"] == "victim"

    # The survivor itself must still be healthy on the daemon's books.
    with urllib.request.urlopen(daemon["http"] + "/healthz", timeout=5) as rsp:
        health = json.loads(rsp.read())
    assert health["status"] == "ok"
    assert health["registrations"] == 2
    assert health["detections"] >= 1

    metrics = urllib.request.urlopen(
        daemon["http"] + "/metrics", timeout=5).read().decode()
    assert "service_indications_total" in metrics
    assert 'service_disconnects_total{graceful="false"} 1' in metrics

    survivor.close()

    # SIGTERM: clean shutdown, summary line, no warnings.
    proc = daemon["proc"]
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=15)
    assert proc.returncode == 0
    assert "shutdown" in out
    assert "Task was destroyed" not in out
    assert "pending" not in out
    summary = out.splitlines()[-1]
    assert "detections=" in summary

    # The telemetry stream survived the daemon's death and parses —
    # including tolerating a crash-truncated trailing line.
    from repro.telemetry.events import read_jsonl
    with open(daemon["telemetry"], encoding="utf-8") as handle:
        events = read_jsonl(handle)
    assert any(e.kind == "detection" for e in events)
