"""wdbench — open-loop benchmark of the live supervision daemon.

    PYTHONPATH=src python benchmarks/wdbench/run.py --seed S \\
        [--workload W] [--seconds T] [--trace [0|1]] [--repeat N]

Run it from the root of a checkout; it builds nothing and needs only the
checkout's ``src/``.  See README.md in this directory.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"wdbench: no repro package under {SRC}; "
                 "run from the root of a full checkout")
    sys.path.insert(0, SRC)
    import bench

    sys.exit(bench.main(sys.argv[1:], root=ROOT))
