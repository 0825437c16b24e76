"""wdbench smoke: every workload for ~3 s, untraced and traced.

Asserts that every metric BENCHMARK.json names is printed with its unit
for every workload, and that the correctness gate passes.  Slow for a
unit test (about a minute), so it lives with the benchmarks:
``make bench-smoke`` runs it.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
LINE = re.compile(r"^(\S+) (\S+) (\S+) (\S+) \(n=\d+\)$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def test_every_metric_printed_and_gate_passes():
    # One test, so the suite's first-test-per-file bench_smoke marker
    # covers both runs.
    run_and_check("0", "end_to_end")
    run_and_check("1", "per_layer")


def run_and_check(trace, section):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seed", "1",
         "--seconds", "3", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] and summary["failed"] == 0
    printed = {}
    for line in lines[:-1]:
        match = LINE.match(line)
        if match:
            workload, name, value, unit = match.groups()
            printed[(workload, name)] = unit
    for workload in SPEC["workloads"]:
        for metric in SPEC[section]:
            key = (workload["name"], metric["name"])
            assert printed.get(key) == metric["unit"], key
            assert f"{metric['name']}@{workload['name']}" in summary["metrics"]
