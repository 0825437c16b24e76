"""Static guard for the reach ledger's allowlist.

``make reach`` (tools/reach.py) runs every product path and fails on an
unreached ``src/`` function that ``tools/reach_allowlist.txt`` does not
list.  This guard keeps the list itself from rotting between such runs:
it parses ``src/`` with ``ast`` only and starts no process.
"""

import importlib.util
from pathlib import Path

import pytest

_REACH = Path(__file__).resolve().parent.parent / "tools" / "reach.py"


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach", _REACH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_names_a_src_function_with_a_reason(reach):
    names = {fn.name for fn in reach.src_functions().values()}
    entries = reach.read_allowlist()
    assert entries
    for name, reason in entries:
        assert name in names, f"{name}: no such function in src/"
        category, _, why = reason.partition(":")
        assert category in reach.CATEGORIES and why.strip(), (
            f"{name}: the reason must be '<category>: <why>' with a "
            f"category from {reach.CATEGORIES}, got {reason!r}")


def test_no_entry_is_listed_twice(reach):
    names = [name for name, _ in reach.read_allowlist()]
    assert len(names) == len(set(names))
