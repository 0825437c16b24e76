"""``python -m repro serve`` — run the live supervision daemon.

Runs until SIGTERM/SIGINT (clean shutdown: listeners closed, tasks
awaited, UNIX socket unlinked, telemetry sink flushed and closed) or
until ``--run-seconds`` elapses (used by the smoke tests).  The bound
addresses are printed on startup — with ``--port 0`` / ``--http-port 0``
the OS picks free ports and the printed line is how a test harness
discovers them.

Only :func:`run_serve` imports asyncio: building the ``repro`` argument
parser, which every subcommand does, must not load the daemon.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional

__all__ = ["add_serve_arguments", "run_serve"]


def _checked(kind: Callable, ok: Callable, requirement: str) -> Callable:
    """An argparse ``type=``: parse with *kind*, then reject values that
    fail *ok* as a usage error (exit 2), not a traceback later."""

    def parse(text: str):
        value = kind(text)  # ValueError -> argparse's "invalid value"
        if not ok(value):
            raise argparse.ArgumentTypeError(
                f"must be {requirement}, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


_positive_float = _checked(float, lambda value: value > 0, "> 0")


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address for TCP and HTTP listeners")
    parser.add_argument("--port", type=int, default=None,
                        help="TCP listener port (0 = OS-assigned; "
                             "default 6060 unless --socket is given)")
    parser.add_argument("--socket", metavar="PATH", default=None,
                        help="additionally (or instead) listen on this "
                             "UNIX socket path")
    parser.add_argument("--http-port", type=int, default=None,
                        help="HTTP port for /metrics and /healthz "
                             "(0 = OS-assigned; default: TCP port + 1)")
    parser.add_argument("--strict", action="store_true",
                        help="reject REGISTERs whose hypothesis has any "
                             "lint diagnostics (not just errors)")
    parser.add_argument("--tick-ms", type=_positive_float, default=10.0,
                        help="real-time check-cycle period in ms")
    parser.add_argument("--telemetry", metavar="PATH", default=None,
                        help="stream structured telemetry events to this "
                             "JSONL file (flushed every 64 events)")
    parser.add_argument("--state-dir", metavar="DIR", default=None,
                        help="durable state directory: snapshots + journal "
                             "are written here and restored on restart, so "
                             "the daemon survives its own death")
    parser.add_argument("--snapshot-interval", type=float, default=5.0,
                        metavar="SECONDS",
                        help="seconds between state snapshots (with "
                             "--state-dir; 0 disables periodic snapshots, "
                             "journal + shutdown snapshot remain)")
    parser.add_argument("--fsync", action="store_true",
                        help="fsync every journal append (survives host "
                             "crashes, not just process crashes)")
    parser.add_argument("--run-seconds", type=float, default=None,
                        help="exit after this many seconds (smoke tests; "
                             "default: run until SIGTERM/SIGINT)")


def _banner(server, args: argparse.Namespace) -> str:
    endpoints = []
    if server.port is not None:
        endpoints.append(f"tcp={server.host}:{server.port}")
    if server.unix_path is not None:
        endpoints.append(f"unix={server.unix_path}")
    if server.http_port is not None:
        endpoints.append(f"http={server.host}:{server.http_port}")
    line = (f"{server.name} listening {' '.join(endpoints)} "
            f"strict={args.strict} tick_ms={args.tick_ms:g}")
    if server.store is not None:
        line += (f" state_dir={server.store.state_dir}"
                 f" restored={server.restored_registrations}")
    return line


def run_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .persistence import StateDirHeld

    port: Optional[int] = args.port
    if port is None and args.socket is None:
        port = 6060
    http_port = args.http_port
    if http_port is None and port is not None:
        http_port = port + 1 if port else 0
    try:
        asyncio.run(_serve(args, port=port, http_port=http_port))
    except KeyboardInterrupt:
        pass
    except StateDirHeld as held:
        # One argparse-style line on stderr and the usage-error code.
        print(f"repro serve: error: {held}", file=sys.stderr)
        return 2
    return 0


class _TelemetryFile:
    """The ``--telemetry`` event sink, whose file is opened (and
    truncated) only by a server that owns its state: at the first event,
    or by :meth:`open` once the server listens.  A server refused a held
    state directory leaves the running server's file untouched."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._sink = None

    def open(self):
        if self._sink is None:
            from ..telemetry import JsonlFileSink

            self._sink = JsonlFileSink(self.path, flush_every=64)
        return self._sink

    def emit(self, event) -> None:
        self.open().emit(event)

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()


async def _serve(
    args: argparse.Namespace, *, port: Optional[int], http_port: Optional[int]
) -> None:
    import asyncio
    import signal

    from .server import SupervisionServer

    telemetry = _TelemetryFile(args.telemetry) if args.telemetry else None
    state_dir = args.state_dir
    snapshot_interval = args.snapshot_interval
    server = SupervisionServer(
        host=args.host,
        port=port,
        unix_path=args.socket,
        http_port=http_port,
        strict=args.strict,
        tick_interval=args.tick_ms / 1000.0,
        event_sink=telemetry,
        state_dir=state_dir,
        snapshot_interval=(snapshot_interval if state_dir
                           and snapshot_interval > 0 else None),
        fsync=args.fsync,
    )
    # Handlers go in before the banner: a supervisor that SIGTERMs the
    # daemon the instant it prints must still get the clean-stop path
    # (final snapshot + shutdown stats), not the default kill.
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass

    try:
        await server.start()
        if telemetry is not None:
            telemetry.open()
        print(_banner(server, args), flush=True)
        try:
            await asyncio.wait_for(stop.wait(), timeout=args.run_seconds)
        except asyncio.TimeoutError:
            pass
        finally:
            await server.stop()
            stats = server.fleet.stats()
            stats["missed_ticks"] = server.missed_ticks
            print("shutdown " + " ".join(f"{k}={v}" for k, v in stats.items()),
                  flush=True)
    finally:
        if telemetry is not None:
            telemetry.close()
        sys.stdout.flush()
