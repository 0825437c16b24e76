"""Shared helpers for the benchmark suite (import as `benchutil`)."""

import json
import os
import platform
import selectors
import signal
import subprocess
import sys
import time

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


def daemon_env(pycache):
    """Environment for a ``python -m repro serve`` child: this checkout's
    sources, bytecode cached in ``pycache`` (warm after the first spawn,
    as a deployed daemon finds it)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"),
               PYTHONPYCACHEPREFIX=pycache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn_daemon(pycache, *args, timeout=10.0):
    """Start ``python -m repro serve --port 0 --http-port 0 *args`` and
    wait for its banner; returns ``(process, banner line)``."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--http-port", "0", *args],
        cwd=REPO_ROOT, env=daemon_env(pycache), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + timeout
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while sel.select(max(0.0, deadline - time.monotonic())):
            line = proc.stdout.readline().decode()
            if " listening " in line:
                return proc, line
            if not line:
                break
    stop_daemon(proc, timeout=timeout)
    raise RuntimeError("daemon printed no banner")


def stop_daemon(proc, *, timeout=10.0):
    """SIGTERM a :func:`spawn_daemon` child and reap it (``kill`` after
    ``timeout``)."""
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()
