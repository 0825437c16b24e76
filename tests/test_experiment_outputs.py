"""Golden outputs: every deterministic experiment prints the same text.

Each case runs ``python -m repro <command>`` in-process and compares the
captured stdout byte for byte with a committed file under
``tests/data/experiment_outputs/``.  The experiments run on simulated
time and seeded fault campaigns, so their tables are exact; any change
in the text is a change in what the reproduction measures.  A PR that
deletes code under the kernel, platform or network models must leave
every file here unedited.

``overhead`` is left out on purpose: its E2 tables print wall-clock
columns (``us_per_cycle``, ``wall_s``, ``runs_per_s``,
``speedup_vs_serial``) that differ between two runs of the same code.
``serve`` and ``metrics`` are not experiments: the daemon runs until
stopped and ``metrics`` renders a registry that has its own tests.

To regenerate a file after an intended change of results, run the
command from the repo root and redirect its stdout, e.g.::

    PYTHONPATH=src python -m repro figures \\
        > tests/data/experiment_outputs/figures.txt
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.__main__ import main

OUTPUTS = Path(__file__).parent / "data" / "experiment_outputs"

COMMANDS = {
    "figures": ["figures"],
    "coverage": ["coverage"],
    "latency": ["latency"],
    "treatment": ["treatment"],
    "reconfig": ["reconfig"],
    "distributed": ["distributed"],
    "jitter": ["jitter"],
    "toolchain": ["toolchain"],
    "rig": ["rig"],
    "lint": ["lint", "safespeed", "safelane", "steer-by-wire"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_experiment_prints_golden_output(name, capsys):
    assert main(COMMANDS[name]) == 0
    printed = capsys.readouterr().out
    expected = (OUTPUTS / f"{name}.txt").read_text()
    assert printed == expected, (
        f"`python -m repro {' '.join(COMMANDS[name])}` no longer prints "
        f"{OUTPUTS.name}/{name}.txt"
    )
