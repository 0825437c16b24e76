"""Live supervision of real processes: daemon, two children, two crashes.

The service layer moves the Software Watchdog out of the simulated
kernel: ``python -m repro serve`` supervises real operating system
processes that heartbeat over a socket.  This example spawns the
daemon plus two genuine child processes:

* ``steady`` — heartbeats forever, also subscribes to every detection
  (``watch=True``) and reports what it observes,
* ``doomed`` — heartbeats for a while, then simulates a lockup by
  simply stopping (no BYE — exactly what a crashed process looks like
  from the daemon's side).

Act one: the daemon maps the dropped connection to missed heartbeats,
the aliveness window lapses, and the detection is pushed to ``steady``.

Act two crashes **the watchdog itself**: the daemon runs with
``--state-dir``, so when it is SIGKILLed mid-stream a restart on the
same port restores every registration from snapshot + journal,
``steady``'s client reconnects through its ordinary backoff path, and
``doomed``'s registration — restored ACTIVE, still silent — is
re-detected by a daemon that was not even alive when the process died.

Run:  PYTHONPATH=src python examples/live_supervision.py
"""

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
sys.path.insert(0, SRC)

#: Glue code run by each supervised child process.  Periods are in
#: check cycles: at --tick-ms 10, aliveness_period=10 is a 100 ms window.
CHILD = r"""
import sys, time
sys.path.insert(0, {src!r})
from repro.core import FaultHypothesis, RunnableHypothesis
from repro.service import WatchdogClient

name, port, beats, watch = (sys.argv[1], int(sys.argv[2]),
                            int(sys.argv[3]), sys.argv[4] == "watch")
hyp = FaultHypothesis()
hyp.add_runnable(RunnableHypothesis(
    name + ".work", task=name + ".T", aliveness_period=10,
    min_heartbeats=1, arrival_period=10, max_heartbeats=1000))

client = WatchdogClient(("127.0.0.1", port), client_name=name, watch=watch)
client.connect()
client.register(name, hyp)
announced = set()
for beat in range(beats):
    client.heartbeat(name + ".work", task=name + ".T")
    client.flush()
    client.poll()
    for detection in client.detections:
        key = (detection["name"], detection["runnable"])
        if key not in announced:
            announced.add(key)
            print(f"{{name}} observed: {{detection['name']}}/"
                  f"{{detection['runnable']}} -> {{detection['error_type']}}",
                  flush=True)
    client.detections.clear()
    time.sleep(0.02)
if announced:
    print(f"{{name}} saw detections about: "
          f"{{sorted(n for n, _ in announced)}}", flush=True)
if watch:
    client.close()           # deliberate departure: BYE deactivates
# else: just fall off the end -- a crash, as far as the daemon knows
"""


def spawn_daemon(env, state_dir, port):
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--http-port", "0", "--tick-ms", "10",
         "--state-dir", state_dir, "--snapshot-interval", "0.5"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    banner = daemon.stdout.readline().strip()
    print(f"daemon: {banner}")
    match = re.search(r"tcp=[\d.]+:(\d+) http=([\d.]+:\d+)", banner)
    return daemon, int(match.group(1)), f"http://{match.group(2)}"


def main() -> None:
    # The state directory goes when the example ends, also on an error;
    # any process still running then is killed first, so none outlives
    # the example or writes into the removed directory.
    processes = []
    with tempfile.TemporaryDirectory(prefix="repro-state-") as state_dir:
        try:
            run(state_dir, processes)
        finally:
            for process in processes:
                if process.poll() is None:
                    process.kill()
                    process.communicate()


def run(state_dir, processes) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    daemon, port, http = spawn_daemon(env, state_dir, 0)
    processes.append(daemon)

    print("== act 1: spawn two real child processes ==")
    steady = subprocess.Popen(
        [sys.executable, "-c", CHILD.format(src=SRC),
         "steady", str(port), "250", "watch"], text=True, env=env)
    processes.append(steady)
    doomed = subprocess.Popen(
        [sys.executable, "-c", CHILD.format(src=SRC),
         "doomed", str(port), "40", "plain"], text=True, env=env)
    processes.append(doomed)

    doomed.wait()
    print("== 'doomed' stopped heartbeating (no BYE) ==")

    print("== act 2: kill -9 the watchdog daemon itself ==")
    daemon.send_signal(signal.SIGKILL)
    daemon.wait()
    # Same port, same state directory: the restart restores both
    # registrations from snapshot + journal.  'steady' reconnects and
    # re-registers through its ordinary backoff path; 'doomed' is
    # restored ACTIVE, stays silent, and gets re-detected by a daemon
    # that was dead when the process crashed.
    daemon, port, http = spawn_daemon(env, state_dir, port)
    processes.append(daemon)
    steady.wait()

    health = json.loads(urllib.request.urlopen(http + "/healthz",
                                               timeout=5).read())
    print(f"daemon verdict: fleet={health['fleet_state']} "
          f"restored={health['restored_registrations']} "
          f"detections={health['detections']} "
          f"indications={health['indications']}")

    daemon.send_signal(signal.SIGTERM)
    out, _ = daemon.communicate(timeout=10)
    print(f"daemon: {out.strip()}")


if __name__ == "__main__":
    main()
