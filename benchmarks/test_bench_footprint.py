"""Start-up footprint of the supervision daemon and of the CLI parser.

The Software Watchdog is a lightweight basic-software service, so the
idle daemon's footprint should be what it serves, not what it happens
to import.  The daemon is spawned as wdbench spawns it —
``python -m repro serve --port 0 --http-port 0``, sources on
``PYTHONPATH``, a warm bytecode cache in a private
``PYTHONPYCACHEPREFIX`` and ``PYTHONDONTWRITEBYTECODE`` removed — and,
as the median of :data:`REPEATS` spawns, the benchmark reports

* ``vm_hwm_mib`` — peak resident set (``VmHWM``) once the banner is out;
* ``rss_anon_mib`` / ``rss_file_mib`` — its anonymous and file-backed
  parts (``RssAnon``, ``RssFile``);
* ``banner_ms`` — spawn to banner line;
* ``parser_ms`` — ``import repro.__main__`` plus ``build_parser()`` in a
  fresh interpreter, the start-up cost every subcommand pays;
* ``openssl_mapped`` — whether libssl or libcrypto is in the daemon's
  ``/proc/<pid>/maps`` (the daemon never speaks TLS).

The record is appended to ``BENCH_footprint.json``
(:func:`benchutil.record`).
"""

import statistics
import subprocess
import sys
import time

from benchutil import (
    REPO_ROOT,
    daemon_env,
    record,
    run_once,
    spawn_daemon,
    stop_daemon,
)

REPEATS = 5
TIMEOUT_S = 10.0
_STATUS_FIELDS = {"VmHWM": "vm_hwm_mib", "RssAnon": "rss_anon_mib",
                  "RssFile": "rss_file_mib"}
_PARSER_PROBE = ("import time; began = time.perf_counter(); "
                 "from repro.__main__ import build_parser; build_parser(); "
                 "print(time.perf_counter() - began)")


def spawn_idle_daemon(pycache):
    """Spawn one daemon, wait for its banner, read its ``/proc`` figures
    and stop it; returns one sample."""
    began = time.perf_counter()
    proc, _ = spawn_daemon(pycache, timeout=TIMEOUT_S)
    try:
        sample = {"banner_ms": (time.perf_counter() - began) * 1000}
        with open(f"/proc/{proc.pid}/status") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                if key in _STATUS_FIELDS:
                    sample[_STATUS_FIELDS[key]] = int(value.split()[0]) / 1024
        with open(f"/proc/{proc.pid}/maps") as handle:
            maps = handle.read()
        sample["openssl_mapped"] = "libssl" in maps or "libcrypto" in maps
    finally:
        stop_daemon(proc, timeout=TIMEOUT_S)
    return sample


def parser_seconds(pycache):
    result = subprocess.run(
        [sys.executable, "-c", _PARSER_PROBE], cwd=REPO_ROOT,
        env=daemon_env(pycache), capture_output=True, text=True, check=True,
        timeout=TIMEOUT_S)
    return float(result.stdout)


def measure(pycache, repeats=REPEATS):
    # Warm-up: fill the bytecode cache, as a deployed daemon finds it.
    spawn_idle_daemon(pycache)
    parser_seconds(pycache)
    samples = [spawn_idle_daemon(pycache) for _ in range(repeats)]
    result = {
        key: round(statistics.median(s[key] for s in samples), 3)
        for key in ("vm_hwm_mib", "rss_anon_mib", "rss_file_mib",
                    "banner_ms")
    }
    result["openssl_mapped"] = any(s["openssl_mapped"] for s in samples)
    result["parser_ms"] = round(statistics.median(
        parser_seconds(pycache) for _ in range(repeats)) * 1000, 3)
    return result


def test_footprint_smoke(benchmark, tmp_path):
    """One spawn of the measured path (the ``bench_smoke`` rot check);
    records nothing."""
    result = run_once(benchmark, measure, str(tmp_path / "pycache"),
                      repeats=1)
    assert result["vm_hwm_mib"] > 0 and result["parser_ms"] > 0


def test_bench_footprint(benchmark, tmp_path):
    result = run_once(benchmark, measure, str(tmp_path / "pycache"))
    print(f"\nidle daemon: VmHWM {result['vm_hwm_mib']:.2f} MiB "
          f"(anon {result['rss_anon_mib']:.2f}, file "
          f"{result['rss_file_mib']:.2f}), banner {result['banner_ms']:.0f} "
          f"ms, openssl mapped: {result['openssl_mapped']}; "
          f"build_parser {result['parser_ms']:.1f} ms")
    record("footprint", dict(result, repeats=REPEATS))
