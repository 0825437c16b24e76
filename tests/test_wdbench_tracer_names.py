"""The traced wdbench run's span names still fire, under the same parents.

``benchmarks/wdbench/spans.py`` wraps daemon methods by class and name.
A refactor that renames, merges or bypasses one of them would leave its
per-layer metric silently empty.  This drives every wrapped layer once
with the tracer installed and checks each wrapped name recorded calls,
and each recorded span's parent.  The tracer patches classes in place,
so the check runs in a subprocess.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_TRACED_SCRIPT = r"""
import json, sys, tempfile

sys.path.insert(0, sys.argv[1])
import spans

from repro.core import FaultHypothesis, RunnableHypothesis
from repro.core.config_io import hypothesis_to_dict
from repro.service import StateStore, SupervisionServer, protocol
from repro.service.fleet import Fleet


class NamingRecorder(spans.SpanRecorder):
    def __init__(self):
        super().__init__()
        self.installed = set()

    def wrap(self, fn, name, *, aggregate=False):
        self.installed.add(name)
        return super().wrap(fn, name, aggregate=aggregate)

    def tally(self, fn, name):
        self.installed.add(name)
        return super().tally(fn, name)


recorder = NamingRecorder()
spans.install_daemon_spans(recorder)

hyp = FaultHypothesis()
for name in ("sense", "act"):
    hyp.add_runnable(RunnableHypothesis(
        name, task="T", aliveness_period=2, min_heartbeats=1))
hypothesis = hypothesis_to_dict(hyp)

server = SupervisionServer(port=0, tick_interval=None)
server.fleet.register("p", hypothesis)
server.fleet.heartbeat("p", "sense", 1, "T")
for cycle in range(1, 21):
    server.tick(cycle * 10)
protocol.FrameDecoder().feed(protocol.encode_frame("HELLO", client="c"))
with tempfile.TemporaryDirectory() as state_dir:
    store = StateStore(state_dir)
    store.append("register", "p", hypothesis=hypothesis, app_of_task=None)
    store.write_snapshot(server.fleet.snapshot())
    Fleet().restore(store.load().snapshot["fleet"])
    store.close()

taken = recorder.take()
parents = {}
for name, _start, _end, _self, parent, _thread in taken["records"]:
    parents.setdefault(name, set()).add(parent)
json.dump({
    "installed": sorted(recorder.installed),
    "parents": {name: sorted(p or "" for p in found)
                for name, found in parents.items()},
    "aggregates": {name: entry[0]
                   for name, entry in taken["aggregates"].items()},
    "tallies": taken["tallies"],
}, sys.stdout)
"""

#: Every recorded (non-aggregated) span and the parents it ran under
#: ("" for a root span).
EXPECTED_PARENTS = {
    "server.tick": [""],
    "fleet.tick": ["server.tick"],
    "supervisor.tick": ["fleet.tick"],
    "supervisor.register": ["", "fleet.restore"],
    "config_io.hypothesis_from_dict": ["supervisor.register"],
    "lint.lint_hypothesis": ["supervisor.register"],
    "fleet.snapshot": [""],
    "fleet.restore": [""],
    "persistence.append": [""],
    "persistence.write_snapshot_payload": [""],
    "persistence.truncate_journal_through": [""],
    "persistence.load": [""],
}


def test_every_wdbench_span_name_fires_under_its_parent():
    result = subprocess.run(
        [sys.executable, "-c", _TRACED_SCRIPT,
         os.path.join(ROOT, "benchmarks", "wdbench")],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
    )
    assert result.returncode == 0, result.stderr
    trace = json.loads(result.stdout)
    assert trace["parents"] == EXPECTED_PARENTS
    assert all(count > 0 for count in trace["aggregates"].values()), \
        trace["aggregates"]
    assert all(count > 0 for count in trace["tallies"].values()), \
        trace["tallies"]
    fired = (set(trace["parents"]) | set(trace["aggregates"])
             | set(trace["tallies"]))
    assert set(trace["installed"]) <= fired
