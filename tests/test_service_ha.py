"""HA smoke: the daemon survives kill -9, and failover is a restart.

Marked ``ha_smoke`` (tier-2, like ``serve_smoke``): real ``python -m
repro serve`` subprocesses with ``--state-dir``.  Scenarios:

* **kill -9 recovery** — registrations and traffic, SIGKILL mid-stream,
  restart from the same state directory: zero lost registrations, the
  restored fleet state equals what the dead daemon had snapshotted, and
  a crashed client's silence still surfaces as a DETECTION within a
  bounded gap after the restart;
* **restart on a failover address** — the daemon is SIGKILLed and
  restarted on the same state directory at another port, and the
  client's failover address list lands its reconnect/re-register
  replay there;
* **one server per state directory** — a second primary on a held
  directory exits non-zero, also while the first is paused with
  SIGSTOP, and the first keeps journaling when it resumes.

Every child's banner is read with a deadline, so a daemon that prints
nothing fails its test instead of hanging it.

Run: ``make ha-smoke`` or ``pytest tests/test_service_ha.py -m ha_smoke``.
"""

import json
import os
import re
import selectors
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
#: Seconds a child may take to print its banner.
BANNER_DEADLINE_S = 20.0


def make_hypothesis(prefix):
    hyp = FaultHypothesis()
    hyp.add_runnable(RunnableHypothesis(
        f"{prefix}.step", task=f"{prefix}.T", aliveness_period=10,
        min_heartbeats=1, arrival_period=10, max_heartbeats=1000))
    return hyp


def spawn(*extra_args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.join(_REPO_ROOT, "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--tick-ms", "5",
         *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)


def read_banner(proc, *, deadline_s=BANNER_DEADLINE_S):
    """The child's first line, which must be its ``listening`` banner.

    The pipe is read with a deadline, not a blocking ``readline()``: a
    child that prints nothing, or exits, fails the test with whatever it
    did print."""
    fd = proc.stdout.fileno()
    out = b""
    end = time.monotonic() + deadline_s
    with selectors.DefaultSelector() as selector:
        selector.register(fd, selectors.EVENT_READ)
        while b"\n" not in out and selector.select(
                max(0.0, end - time.monotonic())):
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            out += chunk
    banner = out.decode(errors="replace").partition("\n")[0]
    if " listening " not in banner:
        pytest.fail(f"no banner within {deadline_s:g} s; the child "
                    f"printed: {out!r}")
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


def test_kill_dash_nine_restores_from_the_journal_alone(tmp_path):
    """With no periodic snapshot, a restart after ``kill -9`` rebuilds
    every ACKed registration by replaying the journal."""
    state_dir = str(tmp_path / "state")
    first = spawn("--port", "0", "--http-port", "0",
                  "--state-dir", state_dir, "--snapshot-interval", "0")
    try:
        address = tcp_address(read_banner(first))
        for name in ("alpha", "bravo"):
            client = WatchdogClient(address, client_name=name,
                                    reconnect=False)
            client.connect()
            client.register(name, make_hypothesis(name))  # returns on ACK
            client._drop_connection()
        first.send_signal(signal.SIGKILL)
        first.wait(timeout=10)
    finally:
        reap(first)
    assert not os.path.exists(os.path.join(state_dir, "snapshot.json"))
    assert journal_subjects(state_dir) == [(1, "alpha"), (2, "bravo")]

    second = spawn("--port", "0", "--http-port", "0",
                   "--state-dir", state_dir, "--snapshot-interval", "0")
    try:
        banner = read_banner(second)
        assert "restored=2" in banner
        with urllib.request.urlopen(http_url(banner) + "/healthz",
                                    timeout=5) as rsp:
            health = json.loads(rsp.read())
        assert health["registrations"] == 2
        assert health["restored_registrations"] == 2
    finally:
        reap(second)


def test_restart_on_a_failover_address_serves_the_client(tmp_path):
    state_dir = str(tmp_path / "state")
    failover_port = free_port()
    primary = spawn("--port", "0", "--http-port", "0",
                    "--state-dir", state_dir, "--snapshot-interval", "0.1")
    restarted = None
    try:
        primary_address = tcp_address(read_banner(primary))
        # The failover port is fixed up front: a failover list is
        # static client configuration, known before any failure.
        client = WatchdogClient(
            primary_address,
            failover=(("127.0.0.1", failover_port),),
            client_name="app", backoff_initial=0.05, backoff_max=0.5,
            max_retries=40)
        client.connect()
        client.register("app", make_hypothesis("app"))
        for _ in range(5):
            client.heartbeat("app.step", task="app.T")
            client.flush()
            time.sleep(0.01)

        # Let a snapshot reach the state dir, then SIGKILL the daemon
        # and restart it on the failover port, as a service manager
        # configured with that address would.
        wait_for(lambda: os.path.exists(
            os.path.join(state_dir, "snapshot.json")),
            message="first snapshot")
        primary.send_signal(signal.SIGKILL)
        primary.wait(timeout=10)
        restarted = spawn("--port", str(failover_port), "--http-port", "0",
                          "--state-dir", state_dir)
        banner = read_banner(restarted)
        assert tcp_address(banner) == ("127.0.0.1", failover_port)
        assert "restored=1" in banner

        # The client's next flush reconnects via the failover list and
        # replays HELLO + REGISTER onto the restarted daemon.
        client._drop_connection()
        client.heartbeat("app.step", task="app.T")
        assert wait_for(lambda: client.flush(), timeout=15,
                        message="client failover flush")
        assert client.address == ("127.0.0.1", failover_port)
        assert client.sync()
        client.close()

        restarted.send_signal(signal.SIGTERM)
        out, _ = restarted.communicate(timeout=15)
        assert restarted.returncode == 0
        assert "shutdown" in out
    finally:
        if restarted is not None:
            reap(restarted)
        reap(primary)


def journal_subjects(state_dir):
    """The journal's ``(seq, registration)`` pairs, in file order."""
    with open(os.path.join(state_dir, "journal.jsonl"),
              encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return [(record["time"], record["subject"]) for record in records]


def test_second_primary_on_held_state_dir_exits(tmp_path):
    """A second primary on a held directory exits non-zero without
    serving, while the first runs and again while it is stopped with
    SIGSTOP: the kernel lock stays with a paused holder.  Resumed, the
    first is still the only server journaling into the directory."""
    state_dir = str(tmp_path / "state")
    # No periodic snapshot: the journal keeps every record to inspect.
    primary = spawn("--port", "0", "--http-port", "0",
                    "--state-dir", state_dir, "--snapshot-interval", "0")
    try:
        primary_address = tcp_address(read_banner(primary))
        for paused in (False, True):
            if paused:
                primary.send_signal(signal.SIGSTOP)
            second = spawn("--port", "0", "--http-port", "0",
                           "--state-dir", state_dir, "--run-seconds", "5")
            out, _ = second.communicate(timeout=30)
            if paused:
                primary.send_signal(signal.SIGCONT)
            assert second.returncode != 0, f"paused={paused}"
            assert "listening" not in out
            assert state_dir in out
            assert primary.poll() is None

        alpha = WatchdogClient(primary_address, client_name="alpha")
        alpha.connect()
        alpha.register("alpha", make_hypothesis("alpha"))
        alpha.close()
        assert journal_subjects(state_dir) == [(1, "alpha"), (2, "alpha")]
    finally:
        reap(primary)


def test_silent_child_fails_within_the_banner_deadline():
    """The deadline holds: a child that prints nothing fails the test
    that waits for its banner instead of hanging it."""
    silent = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(60)"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        began = time.monotonic()
        with pytest.raises(pytest.fail.Exception, match="no banner"):
            read_banner(silent, deadline_s=0.5)
        assert time.monotonic() - began < 5.0
    finally:
        reap(silent)
