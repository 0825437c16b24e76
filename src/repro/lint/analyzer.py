"""wdlint — static analysis of fault-hypothesis configurations.

The watchdog is only as good as its configuration: an unreachable
runnable in the flow table, an unsatisfiable ``min_heartbeats`` /
``max_heartbeats`` pair or a threshold for an error type that can never
occur surface — if ever — as runtime false positives or blind spots.
This module checks the §3.2.1–§3.2.3 design artefacts *statically*,
before deployment:

* **flow-graph analysis** (``WD1xx``) — reachability of the look-up
  table from its entry points, dead transitions, per-task entry points,
  and transitions the per-task stream keying can never observe,
* **counter-bound feasibility** (``WD2xx``) — windows where the
  aliveness minimum forces a heartbeat rate the arrival maximum must
  reject (a guaranteed false positive), vacuous checks, and TSI
  thresholds validated at configuration time instead of deep in the
  monitoring hot path,
* **system cross-checks** (``WD3xx``) — per-runnable completion rates
  derived from the task mapping (tool-chain step 2) and its
  response-time analysis, bracketed against the hypothesis windows;
  task placement, attribution and schedulability.  A report without
  errors is the deploy verdict.

The analyzer never mutates the hypothesis and never raises on a broken
one — defects come back as structured :class:`~.diagnostics.Diagnostic`
objects so callers (CLI, CI, the construction-time ``lint=`` knob)
decide the policy.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.hypothesis import FaultHypothesis
from ..core.reports import ErrorType
from .diagnostics import Diagnostic, LintReport, make_diagnostic

FlowPair = Tuple[Optional[str], str]


# ----------------------------------------------------------------------
# flow-graph analysis (WD1xx)
# ----------------------------------------------------------------------
def lint_flow_pairs(
    pairs: Iterable[FlowPair],
    *,
    known: Set[str],
    task_of: Optional[Dict[str, Optional[str]]] = None,
) -> List[Diagnostic]:
    """Analyze a predecessor→successor pair list as a graph.

    ``known`` is the universe of hypothesized runnables (pairs that step
    outside it are dead transitions); ``task_of`` attributes runnables to
    tasks for the stream-keying checks.
    """
    task_of = task_of or {}
    pairs = list(pairs)
    diagnostics: List[Diagnostic] = []
    if not pairs:
        return diagnostics

    monitored: Set[str] = set()
    entries: Set[str] = set()
    for pred, succ in pairs:
        if pred is None:
            entries.add(succ)
        else:
            monitored.add(pred)
        monitored.add(succ)

    # WD102 — dead transitions stepping outside the hypothesis.
    for name in sorted(monitored - known):
        offending = [
            [pred, succ] for pred, succ in pairs if name in (pred, succ)
        ]
        diagnostics.append(make_diagnostic(
            "WD102",
            f"flow table references {name!r}, which the hypothesis does "
            "not monitor — the transition can never match a configured "
            "runnable",
            subject=name,
            pairs=offending,
        ))

    # WD104 — transitions across task streams.  ``stream_key`` tracks one
    # stream per task, so a pair whose endpoints live on different tasks
    # is never looked up: the successor's heartbeat lands in another
    # stream whose predecessor is not ``pred``.
    cross_task: Set[FlowPair] = set()
    for pred, succ in pairs:
        if pred is None:
            continue
        pred_task = task_of.get(pred)
        succ_task = task_of.get(succ)
        if pred_task and succ_task and pred_task != succ_task:
            if (pred, succ) in cross_task:
                continue
            cross_task.add((pred, succ))
            diagnostics.append(make_diagnostic(
                "WD104",
                f"transition {pred!r} → {succ!r} crosses task streams "
                f"({pred_task!r} → {succ_task!r}) and can never be "
                "observed: streams are keyed per task",
                subject=succ,
                predecessor=pred, successor=succ,
                predecessor_task=pred_task, successor_task=succ_task,
            ))

    # WD101 — reachability from the entry points over *observable* edges
    # (cross-task edges are excluded: they can never fire, so they grant
    # no reachability).
    successors: Dict[Optional[str], Set[str]] = {}
    for pred, succ in pairs:
        if pred is not None and (pred, succ) in cross_task:
            continue
        successors.setdefault(pred, set()).add(succ)
    reachable: Set[str] = set()
    frontier = deque(successors.get(None, ()))
    while frontier:
        node = frontier.popleft()
        if node in reachable:
            continue
        reachable.add(node)
        frontier.extend(successors.get(node, ()))
    for name in sorted((monitored & known) - reachable):
        diagnostics.append(make_diagnostic(
            "WD101",
            f"runnable {name!r} is flow-monitored but unreachable from "
            "every entry point: each observation of it raises a "
            "PROGRAM_FLOW error",
            subject=name,
            entry_points=sorted(entries),
        ))

    # WD103 — every task whose runnables participate in flow monitoring
    # needs at least one entry point among them, or the first observation
    # of every activation flags.
    streams: Dict[Optional[str], Set[str]] = {}
    for name in monitored & known:
        streams.setdefault(task_of.get(name), set()).add(name)
    for task in sorted(streams, key=lambda t: (t is None, t or "")):
        members = streams[task]
        if entries & members:
            continue
        label = task if task is not None else "<global>"
        diagnostics.append(make_diagnostic(
            "WD103",
            f"task {label!r} has flow-monitored runnables "
            f"({', '.join(sorted(members))}) but none of them is a legal "
            "entry point: every activation starts with a PROGRAM_FLOW "
            "error",
            subject=task,
            members=sorted(members),
        ))
    return diagnostics


# ----------------------------------------------------------------------
# counter-bound feasibility (WD2xx)
# ----------------------------------------------------------------------
def _counter_diagnostics(hypothesis: FaultHypothesis) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for name, hyp in hypothesis.runnables.items():
        if not hyp.active:
            continue
        # The aliveness check demands ≥ min/aliveness_period heartbeats
        # per cycle on average; the arrival check tolerates at most
        # max/arrival_period.  If the demanded rate exceeds the tolerated
        # one, any compliant runnable trips one of the two checks —
        # compare cross-multiplied to stay in integers.
        if hyp.min_heartbeats * hyp.arrival_period > (
                hyp.max_heartbeats * hyp.aliveness_period):
            diagnostics.append(make_diagnostic(
                "WD201",
                f"aliveness demands ≥{hyp.min_heartbeats} heartbeats per "
                f"{hyp.aliveness_period} cycles but arrival tolerates "
                f"≤{hyp.max_heartbeats} per {hyp.arrival_period} cycles: "
                "every execution rate violates one of the two bounds",
                subject=name,
                min_heartbeats=hyp.min_heartbeats,
                aliveness_period=hyp.aliveness_period,
                max_heartbeats=hyp.max_heartbeats,
                arrival_period=hyp.arrival_period,
            ))
            continue
        if hyp.min_heartbeats == 0:
            diagnostics.append(make_diagnostic(
                "WD202",
                "min_heartbeats is 0 on an active runnable: the aliveness "
                "check can never fire (vacuous)",
                subject=name,
                aliveness_period=hyp.aliveness_period,
            ))
        if hyp.max_heartbeats == 0:
            diagnostics.append(make_diagnostic(
                "WD203",
                "max_heartbeats is 0 on an active runnable: every single "
                "heartbeat raises an ARRIVAL_RATE error",
                subject=name,
                arrival_period=hyp.arrival_period,
            ))
    return diagnostics


def _threshold_diagnostics(hypothesis: FaultHypothesis) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    thresholds = hypothesis.thresholds
    if thresholds.default < 1:
        diagnostics.append(make_diagnostic(
            "WD204",
            f"default TSI threshold {thresholds.default} is below 1: the "
            "first error of any type must already flip the task state, "
            "which a threshold below 1 cannot express",
            subject=None,
            threshold=thresholds.default,
        ))
    for error_type, value in thresholds.per_type.items():
        if value < 1:
            diagnostics.append(make_diagnostic(
                "WD204",
                f"TSI threshold {value} for {error_type.value} is below 1",
                subject=error_type.value,
                threshold=value,
                error_type=error_type.value,
            ))
    if ErrorType.PROGRAM_FLOW in thresholds.per_type and not hypothesis.flow_pairs:
        diagnostics.append(make_diagnostic(
            "WD105",
            "a PROGRAM_FLOW threshold is configured but the flow table is "
            "empty: no flow check exists that could ever reach it",
            subject=ErrorType.PROGRAM_FLOW.value,
            threshold=thresholds.per_type[ErrorType.PROGRAM_FLOW],
        ))
    return diagnostics


# ----------------------------------------------------------------------
# system cross-checks (WD3xx)
# ----------------------------------------------------------------------
#: A window or bound this many times wider than the schedule needs only
#: catches near-total starvation or a runaway loop (WD305/WD306).
_LOOSE_FACTOR = 4


def _system_diagnostics(
    hypothesis: FaultHypothesis,
    mapping,
    watchdog_period: int,
) -> List[Diagnostic]:
    """Bracket the hypothesis windows against the mapping's schedule.

    ``mapping`` is a :class:`~repro.platform.application.TaskMapping`
    (duck-typed: ``task_of``, ``task_specs`` and ``task_timings``
    suffice) — the output of tool-chain step 2, which fixes every task's
    activation period and, through response-time analysis, the latest
    point after each release at which its runnables complete.
    """
    # Imported here: a daemon REGISTER lints without a mapping and must
    # not load the simulated platform.
    from ..platform.schedulability import response_time_analysis

    response_times = response_time_analysis(mapping.task_timings())
    diagnostics: List[Diagnostic] = []
    for name, hyp in hypothesis.runnables.items():
        try:
            placed_task = mapping.task_of(name)
        except Exception:
            diagnostics.append(make_diagnostic(
                "WD303",
                f"runnable {name!r} is monitored but not placed anywhere "
                "in the system mapping: it can never produce heartbeats",
                subject=name,
            ))
            continue
        if hyp.task is not None and hyp.task != placed_task:
            diagnostics.append(make_diagnostic(
                "WD302",
                f"hypothesis attributes {name!r} to task {hyp.task!r} but "
                f"the mapping places it on {placed_task!r}: TSI error "
                "vectors would aggregate onto the wrong task",
                subject=name,
                hypothesis_task=hyp.task,
                mapped_task=placed_task,
            ))
        response = response_times.get(placed_task)
        if response is None:
            diagnostics.append(make_diagnostic(
                "WD304",
                f"hosting task {placed_task!r} of {name!r} misses its "
                "deadline under response-time analysis: no hypothesis "
                "window can be met",
                subject=name,
                task=placed_task,
            ))
            continue
        if not hyp.active:
            continue
        period = mapping.task_specs[placed_task].period
        # Aliveness side: jobs are released every P ticks and each
        # completes within R of its release, so any window of length W
        # holds at least floor((W - R) / P) completions (none if W < R).
        # Demanding more alarms on a healthy schedule.
        window = hyp.aliveness_period * watchdog_period
        guaranteed = max(0, (window - response) // period)
        if hyp.min_heartbeats > guaranteed:
            diagnostics.append(make_diagnostic(
                "WD301",
                f"min_heartbeats={hyp.min_heartbeats} exceeds the "
                f"{guaranteed} completions the {period}-tick task period "
                f"guarantees in a {window}-tick aliveness window with a "
                f"{response}-tick worst-case response: false positives "
                "on a healthy schedule",
                subject=name,
                bound="min_heartbeats",
                min_heartbeats=hyp.min_heartbeats,
                guaranteed=guaranteed,
                window=window,
                task_period=period,
                response_time=response,
            ))
        if window > _LOOSE_FACTOR * period and hyp.min_heartbeats <= 1:
            diagnostics.append(make_diagnostic(
                "WD305",
                f"aliveness window of {window} ticks is more than "
                f"{_LOOSE_FACTOR}x the {period}-tick task period: it "
                "detects only near-total starvation",
                subject=name,
                min_heartbeats=hyp.min_heartbeats,
                window=window,
                task_period=period,
            ))
        # Arrival side: the schedule nominally delivers
        # ceil(window/period) activations per arrival window.
        arrival_window = hyp.arrival_period * watchdog_period
        nominal = -(-arrival_window // period)
        if hyp.max_heartbeats < nominal:
            diagnostics.append(make_diagnostic(
                "WD301",
                f"max_heartbeats={hyp.max_heartbeats} is below the "
                f"{nominal} activations the {period}-tick task period "
                f"nominally delivers per {arrival_window}-tick arrival "
                "window: guaranteed false positives on a healthy schedule",
                subject=name,
                bound="max_heartbeats",
                max_heartbeats=hyp.max_heartbeats,
                nominal=nominal,
                window=arrival_window,
                task_period=period,
            ))
        elif hyp.max_heartbeats > _LOOSE_FACTOR * nominal:
            diagnostics.append(make_diagnostic(
                "WD306",
                f"max_heartbeats={hyp.max_heartbeats} is more than "
                f"{_LOOSE_FACTOR}x the {nominal} activations nominally "
                f"delivered per {arrival_window}-tick arrival window: "
                "excessive dispatch goes undetected",
                subject=name,
                max_heartbeats=hyp.max_heartbeats,
                nominal=nominal,
                window=arrival_window,
                task_period=period,
            ))
    return diagnostics


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def lint_hypothesis(
    hypothesis: FaultHypothesis,
    *,
    mapping=None,
    watchdog_period: Optional[int] = None,
    source: Optional[str] = None,
) -> LintReport:
    """Run every wdlint analysis over one fault hypothesis.

    Parameters
    ----------
    hypothesis:
        The configuration to analyze.  It is *not* required to pass
        ``FaultHypothesis.validate()`` — the linter reports the defects
        ``validate()`` would reject as structured diagnostics instead of
        raising on the first one.
    mapping:
        Optional :class:`~repro.platform.application.TaskMapping` to
        cross-check placement, schedulability and completion rates
        against (requires ``watchdog_period``).  With a mapping,
        ``report.ok`` is the deploy verdict.
    watchdog_period:
        Check-cycle period in kernel ticks; converts the hypothesis'
        cycle-denominated windows into time for the WD3xx rate checks.
    source:
        Label stamped onto every diagnostic (file path, builtin name).
    """
    if mapping is not None and not watchdog_period:
        raise ValueError(
            "cross-checking against a mapping requires watchdog_period"
        )
    task_of = {
        name: hyp.task for name, hyp in hypothesis.runnables.items()
    }
    diagnostics: List[Diagnostic] = []
    diagnostics.extend(lint_flow_pairs(
        hypothesis.flow_pairs,
        known=set(hypothesis.runnables),
        task_of=task_of,
    ))
    diagnostics.extend(_counter_diagnostics(hypothesis))
    diagnostics.extend(_threshold_diagnostics(hypothesis))
    if mapping is not None:
        diagnostics.extend(
            _system_diagnostics(hypothesis, mapping, watchdog_period)
        )
    return _stamped(LintReport(diagnostics=diagnostics, source=source))


def _stamped(report: LintReport) -> LintReport:
    """Stamp the report's source onto every diagnostic."""
    if report.source is not None:
        report.diagnostics = [
            Diagnostic(
                code=d.code, severity=d.severity, message=d.message,
                subject=d.subject, source=report.source, context=d.context,
            )
            for d in report.diagnostics
        ]
    return report
