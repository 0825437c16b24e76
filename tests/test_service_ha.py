"""HA smoke: the daemon survives kill -9, and a standby takes over.

Marked ``ha_smoke`` (tier-2, like ``serve_smoke``): real ``python -m
repro serve`` subprocesses with ``--state-dir``.  Scenarios:

* **kill -9 recovery** — registrations and traffic, SIGKILL mid-stream,
  restart from the same state directory: zero lost registrations, the
  restored fleet state equals what the dead daemon had snapshotted, and
  a crashed client's silence still surfaces as a DETECTION within a
  bounded gap after the restart;
* **standby failover** — a ``--standby`` daemon waits for the primary's
  state-dir lock, restores the directory and promotes itself when the
  primary is SIGKILLed, and the client's failover address list lands
  its reconnect/re-register replay on the standby;
* **one server per state directory** — a primary paused with SIGSTOP
  keeps its directory (the standby does not promote), and a second
  primary on a held directory exits non-zero.

Run: ``make ha-smoke`` or ``pytest tests/test_service_ha.py -m ha_smoke``.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.core import FaultHypothesis, RunnableHypothesis
from repro.service import WatchdogClient

from testutil import wait_for

pytestmark = pytest.mark.ha_smoke

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_BANNER_RE = re.compile(r"tcp=([\d.]+):(\d+)")


def make_hypothesis(prefix):
    hyp = FaultHypothesis()
    hyp.add_runnable(RunnableHypothesis(
        f"{prefix}.step", task=f"{prefix}.T", aliveness_period=10,
        min_heartbeats=1, arrival_period=10, max_heartbeats=1000))
    return hyp


def spawn(*extra_args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO_ROOT, "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--tick-ms", "5",
         *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)


def read_banner(proc, *, expect="listening"):
    banner = proc.stdout.readline()
    assert expect in banner, f"unexpected banner: {banner!r}"
    return banner


def tcp_address(banner):
    match = _BANNER_RE.search(banner)
    assert match, f"no tcp endpoint in banner: {banner!r}"
    return (match.group(1), int(match.group(2)))


def http_url(banner):
    match = re.search(r"http=([\d.]+):(\d+)", banner)
    assert match, f"no http endpoint in banner: {banner!r}"
    return f"http://{match.group(1)}:{match.group(2)}"


def reap(proc):
    if proc.poll() is None:
        proc.kill()
    try:
        proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:  # pragma: no cover - last resort
        proc.terminate()


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_kill_dash_nine_recovery_round_trip(tmp_path):
    state_dir = str(tmp_path / "state")
    first = spawn("--port", "0", "--http-port", "0",
                  "--state-dir", state_dir, "--snapshot-interval", "0.1")
    try:
        banner = read_banner(first)
        assert f"state_dir={state_dir}" in banner
        assert "restored=0" in banner
        address = tcp_address(banner)

        steady = WatchdogClient(address, client_name="steady")
        steady.connect()
        steady.register("steady", make_hypothesis("steady"))
        victim = WatchdogClient(address, client_name="victim",
                                reconnect=False)
        victim.connect()
        victim.register("victim", make_hypothesis("victim"))
        for _ in range(5):
            steady.heartbeat("steady.step", task="steady.T")
            victim.heartbeat("victim.step", task="victim.T")
            steady.flush()
            victim.flush()
            time.sleep(0.01)

        # Wait for a snapshot covering both registrations, then murder
        # the daemon mid-stream — no farewell, no final snapshot.
        snapshot_path = os.path.join(state_dir, "snapshot.json")

        def snapshot_has_both():
            try:
                with open(snapshot_path, encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, ValueError):
                return None
            names = {
                record["name"] for record in payload["fleet"]["registrations"]
            }
            return payload if names == {"steady", "victim"} else None

        pre_kill = wait_for(snapshot_has_both,
                            message="snapshot with both registrations")
        killed_at = time.monotonic()
        first.send_signal(signal.SIGKILL)
        first.wait(timeout=10)
        steady._drop_connection()
        victim._drop_connection()

        # Restart from the same state directory on a fresh port.
        second = spawn("--port", "0", "--http-port", "0",
                       "--state-dir", state_dir,
                       "--snapshot-interval", "0.1")
        try:
            banner = read_banner(second)
            # Zero lost registrations.
            assert "restored=2" in banner
            restarted_at = time.monotonic()
            address = tcp_address(banner)
            health_url = http_url(banner)

            with urllib.request.urlopen(health_url + "/healthz",
                                        timeout=5) as rsp:
                health = json.loads(rsp.read())
            assert health["registrations"] == 2
            assert health["restored_registrations"] == 2
            assert health["role"] == "primary"

            # Differential check: the restored fleet carries exactly the
            # per-registration bookkeeping the dead daemon snapshotted.
            snapshotted = {
                record["name"]: record
                for record in pre_kill["fleet"]["registrations"]
            }
            assert health["indications"] == sum(
                r["indications"] for r in snapshotted.values())

            # The steady client reconnects (its ordinary re-register
            # replay) and keeps heartbeating; the victim stays dead, so
            # its registration — restored ACTIVE — must produce a
            # DETECTION within a bounded gap of the restart.
            steady2 = WatchdogClient(address, client_name="steady",
                                     watch=True)
            steady2.connect()
            ack = steady2.register("steady", make_hypothesis("steady"))
            assert ack.get("rebound") is True

            def victim_detected():
                steady2.heartbeat("steady.step", task="steady.T")
                steady2.flush()
                steady2.poll()
                return next(
                    (d for d in steady2.detections
                     if d.get("runnable") == "victim.step"), None)

            detected = wait_for(victim_detected, timeout=15,
                                message="victim DETECTION after restart")
            assert detected["error_type"] == "aliveness"
            detection_gap = time.monotonic() - killed_at
            # Bounded detection gap: daemon downtime + one aliveness
            # window (10 cycles x 5 ms) + slack, far under the ceiling.
            assert detection_gap < 15.0
            assert restarted_at - killed_at < detection_gap
            steady2.close()
        finally:
            reap(second)
    finally:
        reap(first)


def test_warm_standby_promotes_and_client_fails_over(tmp_path):
    state_dir = str(tmp_path / "state")
    standby_port = free_port()
    primary = spawn("--port", "0", "--http-port", "0",
                    "--state-dir", state_dir, "--snapshot-interval", "0.1")
    standby = None
    try:
        primary_banner = read_banner(primary)
        primary_address = tcp_address(primary_banner)

        # The standby's port is fixed up front: a failover list is
        # static client configuration, known before any failure.
        standby = spawn("--port", str(standby_port), "--standby",
                        "--state-dir", state_dir)
        read_banner(standby, expect="standby")

        client = WatchdogClient(
            primary_address,
            failover=(("127.0.0.1", standby_port),),
            client_name="app", backoff_initial=0.05, backoff_max=0.5,
            max_retries=40)
        client.connect()
        client.register("app", make_hypothesis("app"))
        for _ in range(5):
            client.heartbeat("app.step", task="app.T")
            client.flush()
            time.sleep(0.01)

        # Let a snapshot reach the state dir, then SIGKILL the primary.
        wait_for(lambda: os.path.exists(
            os.path.join(state_dir, "snapshot.json")),
            message="first snapshot")
        primary.send_signal(signal.SIGKILL)
        primary.wait(timeout=10)

        # The kernel released the dead primary's lock; the standby
        # takes it and promotes.
        promoted_banner = wait_for(
            lambda: standby.stdout.readline(),
            timeout=20, message="standby promotion banner")
        assert "promoted listening" in promoted_banner
        assert tcp_address(promoted_banner) == ("127.0.0.1", standby_port)

        # The client's next flush reconnects via the failover list and
        # replays HELLO + REGISTER onto the promoted standby.
        client._drop_connection()
        client.heartbeat("app.step", task="app.T")
        assert wait_for(lambda: client.flush(), timeout=15,
                        message="client failover flush")
        assert client.address == ("127.0.0.1", standby_port)
        assert client.sync()
        client.close()

        standby.send_signal(signal.SIGTERM)
        out, _ = standby.communicate(timeout=15)
        assert standby.returncode == 0
        assert "shutdown" in out
    finally:
        if standby is not None:
            reap(standby)
        reap(primary)


def journal_subjects(state_dir):
    """The journal's ``(seq, registration)`` pairs, in file order."""
    with open(os.path.join(state_dir, "journal.jsonl"),
              encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return [(record["time"], record["subject"]) for record in records]


def test_paused_primary_keeps_its_state_dir(tmp_path):
    """A primary paused past several standby polls keeps the kernel
    lock, so the standby never promotes and only one server journals
    into the directory when the primary resumes."""
    state_dir = str(tmp_path / "state")
    standby_port = free_port()
    # No periodic snapshot: the journal keeps every record to inspect.
    primary = spawn("--port", "0", "--http-port", "0",
                    "--state-dir", state_dir, "--snapshot-interval", "0")
    standby = None
    try:
        primary_address = tcp_address(read_banner(primary))
        standby = spawn("--port", str(standby_port), "--http-port", "0",
                        "--standby", "--state-dir", state_dir)
        read_banner(standby, expect="standby")

        primary.send_signal(signal.SIGSTOP)
        time.sleep(6.0)
        primary.send_signal(signal.SIGCONT)
        assert standby.poll() is None

        alpha = WatchdogClient(primary_address, client_name="alpha")
        alpha.connect()
        alpha.register("alpha", make_hypothesis("alpha"))
        alpha.close()
        bravo = WatchdogClient(("127.0.0.1", standby_port),
                               client_name="bravo", reconnect=False)
        with pytest.raises(ConnectionRefusedError):
            bravo.connect()
        assert journal_subjects(state_dir) == [(1, "alpha"), (2, "alpha")]
    finally:
        if standby is not None:
            reap(standby)
        reap(primary)


def test_second_primary_on_held_state_dir_exits(tmp_path):
    state_dir = str(tmp_path / "state")
    primary = spawn("--port", "0", "--http-port", "0",
                    "--state-dir", state_dir)
    try:
        read_banner(primary)
        second = spawn("--port", "0", "--http-port", "0",
                       "--state-dir", state_dir, "--run-seconds", "5")
        out, _ = second.communicate(timeout=30)
        assert second.returncode != 0
        assert "listening" not in out
        assert state_dir in out
        assert primary.poll() is None
    finally:
        reap(primary)
