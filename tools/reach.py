"""Reach ledger: list the functions in ``src/`` that no product path runs.

Run from the repository root (``make reach``)::

    python tools/reach.py

A product path is something a user runs: every experiment
(``python -m repro all``, serial and with worker processes and
telemetry), ``lint``, ``metrics``, ``rig``, the examples, the
tutorial's executable snippets, the F1 benchmark that regenerates the
platform topology (``benchmarks/test_bench_platform.py``) and the two
daemon smokes with their ``repro serve`` children.  Each runs in a
child process whose ``PYTHONPATH`` starts with a generated
``sitecustomize`` that installs a ``sys.setprofile`` hook.  The hook
writes each ``src/`` code object the first time it runs, not at exit:
daemon children end by ``SIGKILL``/``SIGTERM`` and never reach
``atexit``.

Every function that none of them ran must be listed, with a reason, in
``tools/reach_allowlist.txt``; the script exits 1 naming any that is
not.  A nested function whose enclosing function never ran is counted
with it, not on its own; a stub body (docstring, ``...`` or ``pass``
only) is not counted.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALLOWLIST = Path(__file__).resolve().parent / "reach_allowlist.txt"

#: The reasons an unreached function may stay, one tag per allowlist entry.
CATEGORIES = ("safety", "equality", "tracer", "api")

PRODUCT_PATHS: List[List[str]] = [
    ["-m", "repro", "all"],
    ["-m", "repro", "all", "--workers", "2", "--telemetry", "{tmp}/all.jsonl"],
    ["-m", "repro", "lint"],
    ["-m", "repro", "lint", "--format", "json"],
    ["-m", "repro", "metrics", "rig", "--seconds", "1"],
    ["-m", "repro", "metrics", "rig", "--seconds", "1", "--format", "json"],
    ["-m", "repro", "metrics", "faulty", "--seconds", "1"],
    ["-m", "repro", "metrics", "faulty", "--seconds", "1", "--format", "json"],
    ["-m", "repro", "metrics", "coverage"],
    ["-m", "repro", "metrics", "coverage", "--format", "json"],
    ["-m", "repro", "rig"],
    *[[str(path.relative_to(ROOT))]
      for path in sorted((ROOT / "examples").glob("*.py"))],
    ["-m", "pytest", "-q", "-p", "no:cacheprovider",
     "tests/test_docs_tutorial.py"],
    ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
     "benchmarks/test_bench_platform.py"],
    ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-m", "serve_smoke",
     "tests/test_service_e2e.py"],
    ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-m", "ha_smoke",
     "tests/test_service_ha.py"],
]

HOOK = '''\
import os, sys, threading

_SRC = {src!r}
_OUT = os.open({out!r}, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
_seen = {{}}


def _reach(frame, event, arg):
    if event == "call":
        code = frame.f_code
        # Keyed by id; holding the code object keeps the id from reuse.
        if id(code) not in _seen:
            _seen[id(code)] = code
            if code.co_filename.startswith(_SRC):
                os.write(_OUT, f"{{code.co_filename}}\\t"
                               f"{{code.co_firstlineno}}\\n".encode())


sys.setprofile(_reach)
threading.setprofile(_reach)
'''


class Function(NamedTuple):
    name: str              # "repro.kernel.errors:make_diagnostic"
    path: str              # absolute file path
    first_line: int        # the first decorator's line, as co_firstlineno
    lines: int
    parent: Optional[Tuple[str, int]]  # enclosing function's key


def src_functions(src: Path = SRC) -> Dict[Tuple[str, int], Function]:
    """Every ``def`` under *src*, keyed by ``(path, first line)``."""
    found: Dict[Tuple[str, int], Function] = {}
    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        tree = ast.parse(path.read_text(), str(path))
        _collect(tree, str(path), module, "", None, found)
    return found


def _collect(node, path, module, prefix, parent, found) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno]
                        + [d.lineno for d in child.decorator_list])
            key = (path, first)
            if not _is_stub(child):
                found[key] = Function(f"{module}:{prefix}{child.name}", path,
                                      first, child.end_lineno - first + 1,
                                      parent)
            _collect(child, path, module, f"{prefix}{child.name}.<locals>.",
                     key, found)
        elif isinstance(child, ast.ClassDef):
            _collect(child, path, module, f"{prefix}{child.name}.", parent,
                     found)
        else:
            _collect(child, path, module, prefix, parent, found)


def _is_stub(function) -> bool:
    """A body of only a docstring, ``...`` or ``pass`` (a ``Protocol``
    member, a no-op hook) has no code to run."""
    return all(
        isinstance(stmt, ast.Pass)
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and (stmt.value.value is Ellipsis
                 or isinstance(stmt.value.value, str)))
        for stmt in function.body)


def read_allowlist(path: Path = ALLOWLIST) -> List[Tuple[str, str]]:
    """``(name, reason)`` per entry; ``#`` starts a comment line."""
    entries = []
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, reason = line.strip().partition(" ")
            entries.append((name, reason.strip()))
    return entries


def run_product_paths(hits: Path, tmp: str) -> List[str]:
    """Run every product path under the hook; return the failed ones."""
    hook_dir = Path(tmp) / "hook"
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(
        HOOK.format(src=str(SRC) + os.sep, out=str(hits)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(hook_dir), str(SRC), os.environ.get("PYTHONPATH")])))
    failed = []
    for args in PRODUCT_PATHS:
        command = [sys.executable, *(a.format(tmp=tmp) for a in args)]
        print("reach: run", " ".join(command[1:]), flush=True)
        result = subprocess.run(command, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            failed.append(f"{' '.join(command[1:])} exited "
                          f"{result.returncode}:\n{result.stdout[-2000:]}")
    return failed


def unreached(functions, hits: Path) -> List[Function]:
    reached = set()
    for line in hits.read_text().splitlines():
        path, _, first = line.partition("\t")
        reached.add((path, int(first)))
    return [fn for key, fn in functions.items()
            if key not in reached
            and (fn.parent is None or fn.parent in reached)]


def main() -> int:
    functions = src_functions()
    allowed = dict(read_allowlist())
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        hits = Path(tmp) / "hits.txt"
        failed = run_product_paths(hits, tmp)
        missed = unreached(functions, hits)
    for failure in failed:
        print("reach: product path failed:", failure, file=sys.stderr)
    unlisted = [fn for fn in missed if fn.name not in allowed]
    stale = sorted(set(allowed) - {fn.name for fn in missed})
    print(f"reach: {len(functions)} functions in src/, {len(missed)} "
          f"unreached ({sum(fn.lines for fn in missed)} lines), "
          f"{len(missed) - len(unlisted)} of them allowlisted")
    for name in stale:
        print(f"reach: allowlisted but not unreached in this run: {name}")
    for fn in unlisted:
        print(f"reach: UNREACHED {fn.name} "
              f"({os.path.relpath(fn.path, ROOT)}:{fn.first_line}, "
              f"{fn.lines} lines)")
    return 1 if failed or unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
