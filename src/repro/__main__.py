"""Command-line interface: regenerate any experiment from the shell.

Usage::

    python -m repro figures            # Figures 5, 5b, 5c, 6
    python -m repro figures --which 6
    python -m repro coverage           # E1 coverage matrix
    python -m repro coverage --workers 4   # ... across 4 processes
    python -m repro overhead           # E2 tables (+ S12XF projection)
    python -m repro latency            # E3 latency table
    python -m repro treatment          # E4 sweeps
    python -m repro reconfig           # E5 containment scenario
    python -m repro distributed        # E6 multi-ECU supervision
    python -m repro jitter             # E7 release-offset ablation
    python -m repro toolchain          # F3 pipeline + RTA cross-check
    python -m repro rig --seconds 10   # drive the HIL validator
    python -m repro serve --port 6060  # run the live supervision daemon
    python -m repro lint               # wdlint the shipped app hypotheses
    python -m repro lint my.json --format json   # ... or your own files
    python -m repro metrics rig        # telemetry snapshot of a healthy rig
    python -m repro metrics faulty --format json
    python -m repro all                # everything above

The ``lint`` subcommand exits 0 when every hypothesis is free of
error-severity diagnostics (warnings allowed unless ``--strict``), 1 on
lint errors and 2 when a target cannot be loaded — wire it into CI
(``make lint`` does).

The ``metrics`` subcommand runs one instrumented scenario and renders
the registry: ``--format prometheus`` (default) prints the text
exposition format, ``--format json`` a stable JSON snapshot.  It exits
0 on success and 2 on usage errors (argparse) — matching ``lint``'s
convention that 0 means "ran and rendered".  ``--telemetry out.jsonl``
additionally streams the scenario's structured events to a JSONL file;
the same flag on ``coverage``, ``latency``, ``overhead`` and ``all``
captures result rows and a final metrics snapshot of those runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import List


def _print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def cmd_figures(args: argparse.Namespace) -> None:
    from .experiments import run_figure5, run_figure5b, run_figure5c, run_figure6

    runners = {
        "5": run_figure5,
        "5b": run_figure5b,
        "5c": run_figure5c,
        "6": run_figure6,
    }
    which = runners if args.which == "all" else {args.which: runners[args.which]}
    for key, runner in which.items():
        result = runner()
        _print_header(f"Figure {key}: {result.description}")
        print(result.rendered)
        print("measured:", dict(result.measurements))


def _progress(done: int, total: int) -> None:
    print(f"  ... {done}/{total} runs", file=sys.stderr)


def _open_telemetry(args: argparse.Namespace):
    """Per-command telemetry setup for the ``--telemetry PATH`` flag.

    Returns ``(registry, sink, owned)``; ``owned`` is False when the
    pair is shared (``repro all`` opens one appending sink for every
    subcommand), in which case the caller must not close it.
    """
    shared = getattr(args, "_telemetry", None)
    if shared is not None:
        return shared[0], shared[1], False
    path = getattr(args, "telemetry", None)
    if not path:
        return None, None, False
    from .telemetry import JsonlFileSink, MetricsRegistry

    return MetricsRegistry(), JsonlFileSink(path), True


def _emit_rows(sink, registry, subject: str, rows, snapshot: bool = True) -> None:
    """Append one ``result_row`` event per row plus (by default) a
    ``metrics_snapshot`` of the registry."""
    from .telemetry import (
        KIND_METRICS_SNAPSHOT,
        KIND_RESULT_ROW,
        TelemetryEvent,
    )

    for row in rows:
        sink.emit(TelemetryEvent(
            time=0, kind=KIND_RESULT_ROW, subject=subject, data=dict(row)
        ))
    if snapshot:
        sink.emit(TelemetryEvent(
            time=0, kind=KIND_METRICS_SNAPSHOT, subject=subject,
            data=registry.snapshot(),
        ))


def cmd_coverage(args: argparse.Namespace) -> None:
    from .analysis import coverage_report
    from .experiments import run_coverage_campaign
    from .kernel import seconds

    registry, sink, owned = _open_telemetry(args)
    _print_header("E1 — fault detection coverage")
    result = run_coverage_campaign(
        observation=seconds(args.observation),
        repetitions=args.repetitions,
        workers=args.workers,
        progress=_progress if args.workers != 1 else None,
        telemetry=registry,
    )
    print(coverage_report(result))
    if sink is not None:
        _emit_rows(sink, registry, "coverage", result.coverage_table())
        if owned:
            sink.close()


def cmd_overhead(args: argparse.Namespace) -> None:
    from .analysis import format_table, projection_rows
    from .experiments import (
        campaign_scaling_rows,
        check_cycle_scaling_rows,
        flow_checking_rows,
        passive_vs_polling_rows,
        watchdog_cpu_rows,
    )

    registry, sink, owned = _open_telemetry(args)
    tables = [
        ("E2 — flow checking: look-up table vs CFCSS", flow_checking_rows),
        ("E2 — watchdog CPU share", watchdog_cpu_rows),
        ("E2 — passive heartbeats vs active polling", passive_vs_polling_rows),
        ("E2 — check-cycle scaling: expiry wheel", check_cycle_scaling_rows),
        ("E2 — campaign scaling: serial vs worker processes",
         campaign_scaling_rows),
        ("E2b — projection onto target MCUs (outlook: S12XF)",
         projection_rows),
    ]
    for title, rows_fn in tables:
        rows = rows_fn()
        _print_header(title)
        print(format_table(rows))
        if sink is not None:
            _emit_rows(sink, registry, title, rows, snapshot=False)
    if sink is not None:
        _emit_rows(sink, registry, "overhead", [])
        if owned:
            sink.close()


def cmd_latency(args: argparse.Namespace) -> None:
    from .analysis import format_table
    from .experiments import run_latency_study

    registry, sink, owned = _open_telemetry(args)
    _print_header("E3 — detection latency (period-end vs eager-arrival)")
    rows = run_latency_study(
        repetitions=args.repetitions, workers=args.workers,
        telemetry=registry,
    )
    print(format_table(rows))
    if sink is not None:
        _emit_rows(sink, registry, "latency", rows)
        if owned:
            sink.close()


def cmd_treatment(args: argparse.Namespace) -> None:
    from .analysis import format_table
    from .experiments import run_escalation_sweep, run_threshold_sweep
    from .kernel import ms

    _print_header("E4 — TSI threshold sweep")
    print(format_table([r.__dict__ for r in run_threshold_sweep()]))
    _print_header("E4 — escalation sweep (permanent fault)")
    print(format_table([r.__dict__ for r in run_escalation_sweep()]))
    _print_header("E4 — escalation (transient 400 ms fault)")
    print(format_table([
        r.__dict__
        for r in run_escalation_sweep(budgets=[3], transient_duration=ms(400))
    ]))


def cmd_reconfig(args: argparse.Namespace) -> None:
    from .experiments import run_reconfiguration

    _print_header("E5 — dynamic reconfiguration / containment")
    report = run_reconfiguration()
    for key, value in report.__dict__.items():
        print(f"  {key}: {value}")


def cmd_distributed(args: argparse.Namespace) -> None:
    from .analysis import format_table
    from .experiments import (
        run_distributed_supervision,
        run_supervision_latency_sweep,
    )

    _print_header("E6 — distributed supervision (crash/degrade/recover)")
    report = run_distributed_supervision()
    for key, value in report.__dict__.items():
        print(f"  {key}: {value}")
    _print_header("E6 — crash-detection latency vs check window")
    print(format_table(run_supervision_latency_sweep()))


def cmd_jitter(args: argparse.Namespace) -> None:
    from .analysis import format_table
    from .experiments import run_jitter_ablation

    _print_header("E7 — release offsets: alarms vs schedule table")
    print(format_table(run_jitter_ablation()))


def cmd_toolchain(args: argparse.Namespace) -> None:
    from .analysis import format_table
    from .experiments import run_toolchain

    _print_header("F3 — model-based tool chain + RTA cross-check")
    report = run_toolchain()
    rows = [
        {
            "task": task,
            "rta_bound_us": report.rta_bounds[task],
            "observed_worst_us": report.observed_worst.get(task),
        }
        for task in report.rta_bounds
    ]
    print(format_table(rows))
    print(f"utilization={report.utilization:.3f} "
          f"schedulable={report.schedulable} bounds_hold={report.bounds_hold} "
          f"lint_ok={report.lint_ok}")
    for line in report.lint_diagnostics:
        print(f"  lint: {line}")


def cmd_lint(args: argparse.Namespace) -> int:
    from .lint import run_lint

    return run_lint(args.targets, fmt=args.format, strict=args.strict)


def cmd_rig(args: argparse.Namespace) -> None:
    from .kernel import seconds
    from .validator import HilValidator

    _print_header(f"HIL validator — {args.seconds} simulated seconds")
    rig = HilValidator()
    rig.run(seconds(args.seconds))
    for key, value in rig.summary().items():
        print(f"  {key}: {value}")


def cmd_serve(args: argparse.Namespace) -> int:
    from .service.cli import run_serve

    return run_serve(args)


def cmd_metrics(args: argparse.Namespace) -> None:
    from .kernel import seconds
    from .telemetry import JsonlFileSink, MetricsRegistry

    registry = MetricsRegistry()
    sink = JsonlFileSink(args.telemetry) if args.telemetry else None

    if args.scenario in ("rig", "faulty"):
        from .validator import HilValidator

        rig = HilValidator(telemetry=registry, event_sink=sink)
        if args.scenario == "faulty":
            from .faults import ErrorInjector, FaultTarget, TimeScalarFault

            # Mirror Figure 5: scale the SafeSpeed release period for a
            # window so aliveness errors (and treatments) show up.
            horizon = seconds(args.seconds)
            injector = ErrorInjector(FaultTarget.from_ecu(rig.ecu))
            fault = TimeScalarFault("SafeSpeedTask", scalar=4.0)
            rig.start()
            injector.inject_at(horizon // 4, fault,
                               restore_at=3 * horizon // 4)
            rig.run(horizon)
        else:
            rig.run(seconds(args.seconds))
    else:  # coverage
        from .experiments import run_coverage_campaign

        run_coverage_campaign(telemetry=registry)

    if args.format == "prometheus":
        print(registry.render_prometheus(), end="")
    else:
        print(registry.render_json())
    if sink is not None:
        sink.close()


def cmd_all(args: argparse.Namespace) -> None:
    workers = getattr(args, "workers", 1)
    telemetry_path = getattr(args, "telemetry", None)
    shared = None
    if telemetry_path:
        from .telemetry import JsonlFileSink, MetricsRegistry

        shared = (MetricsRegistry(), JsonlFileSink(telemetry_path))
    try:
        for command in (cmd_figures, cmd_coverage, cmd_overhead, cmd_latency,
                        cmd_treatment, cmd_reconfig, cmd_distributed,
                        cmd_jitter, cmd_toolchain):
            defaults = argparse.Namespace(
                which="all", observation=2.0, repetitions=1, seconds=5.0,
                workers=workers, telemetry=None, _telemetry=shared,
            )
            command(defaults)
    finally:
        if shared is not None:
            shared[1].close()


def build_parser() -> argparse.ArgumentParser:
    from .service.cli import _checked, _positive_float, add_serve_arguments

    repetitions = _checked(int, lambda value: value >= 1, ">= 1")
    worker_count = _checked(int, lambda value: value >= 0, ">= 0")

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Software Watchdog (DSN 2007) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="Figures 5/5b/5c/6")
    figures.add_argument("--which", choices=["5", "5b", "5c", "6", "all"],
                         default="all")
    figures.set_defaults(func=cmd_figures)

    workers_help = ("worker processes for campaign runs "
                    "(1 = serial, 0 = os.cpu_count())")
    telemetry_help = "stream structured telemetry events to this JSONL file"

    coverage = sub.add_parser("coverage", help="E1 coverage matrix")
    coverage.add_argument("--observation", type=_positive_float, default=2.0,
                          help="observation window per injection (s)")
    coverage.add_argument("--repetitions", type=repetitions, default=1)
    coverage.add_argument("--workers", type=worker_count, default=1,
                          help=workers_help)
    coverage.add_argument("--telemetry", metavar="PATH", default=None,
                          help=telemetry_help)
    coverage.set_defaults(func=cmd_coverage)

    overhead = sub.add_parser("overhead", help="E2 overhead tables")
    overhead.add_argument("--telemetry", metavar="PATH", default=None,
                          help=telemetry_help)
    overhead.set_defaults(func=cmd_overhead)

    latency = sub.add_parser("latency", help="E3 latency table")
    latency.add_argument("--repetitions", type=repetitions, default=3)
    latency.add_argument("--workers", type=worker_count, default=1,
                         help=workers_help)
    latency.add_argument("--telemetry", metavar="PATH", default=None,
                         help=telemetry_help)
    latency.set_defaults(func=cmd_latency)

    sub.add_parser("treatment", help="E4 treatment sweeps").set_defaults(
        func=cmd_treatment)
    sub.add_parser("reconfig", help="E5 containment scenario").set_defaults(
        func=cmd_reconfig)
    sub.add_parser("distributed", help="E6 multi-ECU supervision").set_defaults(
        func=cmd_distributed)
    sub.add_parser("jitter", help="E7 release-offset ablation").set_defaults(
        func=cmd_jitter)
    sub.add_parser("toolchain", help="F3 pipeline").set_defaults(
        func=cmd_toolchain)

    rig = sub.add_parser("rig", help="drive the HIL validator")
    rig.add_argument("--seconds", type=_positive_float, default=5.0)
    rig.set_defaults(func=cmd_rig)

    lint = sub.add_parser(
        "lint", help="wdlint: statically analyze fault hypotheses")
    lint.add_argument(
        "targets", nargs="*",
        help="hypothesis JSON files and/or builtin app names "
             "(safespeed, safelane, steer-by-wire); default: all builtins")
    lint.add_argument("--format", choices=["text", "json"], default="text")
    lint.add_argument("--strict", action="store_true",
                      help="treat warnings as errors (exit 1)")
    lint.set_defaults(func=cmd_lint)

    metrics = sub.add_parser(
        "metrics", help="run one instrumented scenario, render the registry")
    metrics.add_argument(
        "scenario", nargs="?", choices=["rig", "faulty", "coverage"],
        default="rig",
        help="rig: healthy HIL run; faulty: HIL run with an injected "
             "aliveness fault; coverage: small E1 campaign")
    metrics.add_argument("--format", choices=["prometheus", "json"],
                         default="prometheus")
    metrics.add_argument("--seconds", type=_positive_float, default=2.0,
                         help="simulated seconds for the rig scenarios")
    metrics.add_argument("--telemetry", metavar="PATH", default=None,
                         help=telemetry_help)
    metrics.set_defaults(func=cmd_metrics)

    serve = sub.add_parser(
        "serve", help="run the live supervision daemon (asyncio)")
    add_serve_arguments(serve)
    serve.set_defaults(func=cmd_serve)

    all_cmd = sub.add_parser("all", help="run every experiment")
    all_cmd.add_argument("--workers", type=worker_count, default=1,
                         help=workers_help)
    all_cmd.add_argument("--telemetry", metavar="PATH", default=None,
                         help=telemetry_help)
    all_cmd.set_defaults(func=cmd_all)
    return parser


def main(argv: List[str] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    result = args.func(args)
    # Most commands print and return None; ``lint`` returns a CI-grade
    # exit code.
    return int(result or 0)


if __name__ == "__main__":
    if sys.argv[1:2] == ["serve"]:
        # The daemon serves plain TCP, UNIX sockets and HTTP, never TLS,
        # but asyncio imports ``ssl`` whenever it can, and libssl plus
        # libcrypto are ~4 MiB of its ~24 MiB peak RSS
        # (BENCH_footprint.json).  A None entry makes ``import ssl``
        # raise ImportError, which asyncio handles as on a Python built
        # without OpenSSL.  In-process callers of main() keep ``ssl``.
        sys.modules.setdefault("ssl", None)
    sys.exit(main())
