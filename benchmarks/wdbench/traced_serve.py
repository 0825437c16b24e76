"""``repro serve`` with wdbench's layer spans installed.

    PYTHONPATH=src python benchmarks/wdbench/traced_serve.py \\
        --spans-out PREFIX [repro serve flags...]

Parses the same flags as ``python -m repro serve`` (through
``repro.service.cli.add_serve_arguments``), wraps the daemon's layers
(:func:`spans.install_daemon_spans`) and runs
``repro.service.cli.run_serve``.  Spans go to ``PREFIX.<n>.json``: one
file on each SIGUSR1 (the benchmark marks the start and the end of its
measured phase this way, which also saves what a later ``kill -9``
would lose) and a last one after the clean SIGTERM stop.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

from repro.service.cli import add_serve_arguments, run_serve
from repro.service.server import SupervisionServer

from spans import SpanRecorder, install_daemon_spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True, metavar="PREFIX")
    add_serve_arguments(parser)
    args = parser.parse_args(argv)
    recorder = SpanRecorder()
    install_daemon_spans(recorder)

    original_start = SupervisionServer.start

    async def start(server):
        await original_start(server)
        # A loop callback runs between tasks, never inside a span.
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGUSR1, recorder.dump, args.spans_out)

    SupervisionServer.start = start
    code = run_serve(args)
    recorder.dump(args.spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
