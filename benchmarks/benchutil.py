"""Shared helpers for the benchmark suite (import as `benchutil`)."""

import json
import os
import platform
import subprocess

#: Checkout root: ``BENCH_<name>.json`` trajectories live here.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark an expensive experiment exactly once."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def _commit():
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def record(name, metrics, *, root=REPO_ROOT):
    """Append one run to ``BENCH_<name>.json`` and return the entry.

    The file holds a list of ``{commit, python, cores, metrics}``
    entries, oldest first, so a benchmark's trajectory survives across
    changes.  A file from before this format (one bare object) becomes
    the first element of the list.
    """
    path = os.path.join(root, f"BENCH_{name}.json")
    history = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            history = json.load(handle)
        if not isinstance(history, list):
            history = [history]
    entry = {
        "commit": _commit(),
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "metrics": dict(metrics),
    }
    history.append(entry)
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(history, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(path + ".tmp", path)
    return entry
