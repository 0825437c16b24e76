"""Diagnostic model of **wdlint**, the fault-hypothesis static analyzer.

A lint run produces :class:`Diagnostic` objects — stable machine-readable
codes plus human-readable context — collected into a :class:`LintReport`
with text and JSON renderers.  The code space is partitioned by analysis
family:

* ``WD1xx`` — flow-graph analysis of the program-flow look-up table,
* ``WD2xx`` — counter-bound feasibility of the heartbeat hypothesis,
* ``WD3xx`` — cross-checks against the system mapping and its
  response-time analysis.

Codes are part of the public contract: tooling (CI gates, editors,
``--format json`` consumers) keys on them, so existing codes never change
meaning and retired codes are never reused.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional

from ..core.hypothesis import HypothesisError


class Severity(enum.Enum):
    """How bad a diagnostic is.

    ``ERROR`` — the configuration will false-positive, can never fire, or
    is internally inconsistent; deployment must be blocked.
    ``WARNING`` — the configuration is legal but suspicious (vacuous
    checks, unobservable table entries); deployment may proceed.
    """

    ERROR = "error"
    WARNING = "warning"


#: Registry of every diagnostic wdlint can emit:
#: code → (slug, severity, one-line description).  The docs table in
#: ``docs/supervising_your_application.md`` mirrors this registry.
CODES: Dict[str, tuple] = {
    "WD101": ("unreachable-runnable", Severity.ERROR,
              "flow-monitored runnable is unreachable from every entry point"),
    "WD102": ("dead-transition", Severity.ERROR,
              "flow pair references a runnable the hypothesis does not monitor"),
    "WD103": ("missing-entry-point", Severity.ERROR,
              "a task's flow-monitored runnables contain no legal entry point"),
    "WD104": ("cross-task-transition", Severity.WARNING,
              "flow pair crosses task streams and can never be observed"),
    "WD105": ("unreachable-flow-threshold", Severity.WARNING,
              "PROGRAM_FLOW threshold configured but the flow table is empty"),
    "WD201": ("contradictory-bounds", Severity.ERROR,
              "aliveness minimum forces a rate above the arrival maximum"),
    "WD202": ("vacuous-aliveness", Severity.WARNING,
              "min_heartbeats == 0 on an active runnable: check never fires"),
    "WD203": ("vacuous-arrival", Severity.WARNING,
              "max_heartbeats == 0 on an active runnable: any heartbeat flags"),
    "WD204": ("invalid-threshold", Severity.ERROR,
              "TSI threshold below 1 can never be configured meaningfully"),
    "WD301": ("schedule-rate-mismatch", Severity.ERROR,
              "hypothesis window contradicts the task's scheduled rate"),
    "WD302": ("task-attribution-mismatch", Severity.ERROR,
              "hypothesis names a different task than the system mapping"),
    "WD303": ("unplaced-runnable", Severity.ERROR,
              "monitored runnable is not placed anywhere in the mapping"),
    "WD304": ("unschedulable-task", Severity.ERROR,
              "the runnable's hosting task misses its deadline under RTA"),
    "WD305": ("loose-aliveness-window", Severity.WARNING,
              "aliveness window over 4 task periods detects only starvation"),
    "WD306": ("loose-arrival-bound", Severity.WARNING,
              "max_heartbeats over 4x the nominal rate misses runaway dispatch"),
}


class LintWarning(UserWarning):
    """Python warning category used by the construction-time ``lint="warn"``
    mode, so test-suites and applications can filter wdlint output
    separately from other warnings."""


class Diagnostic:
    """One finding of the analyzer.

    ``subject`` is the runnable / task / threshold the finding is about,
    if any; ``source`` where the linted hypothesis came from (file path,
    builtin name, watchdog name), filled in by the lint driver;
    ``context`` the machine-readable details (the offending pair,
    bounds, rates, ...).
    """

    __slots__ = ("code", "severity", "message", "subject", "source",
                 "context")

    def __init__(self, code: str, severity: Severity, message: str,
                 subject: Optional[str] = None,
                 source: Optional[str] = None,
                 context: Optional[Dict[str, Any]] = None) -> None:
        self.code = code
        self.severity = severity
        self.message = message
        self.subject = subject
        self.source = source
        self.context = {} if context is None else context

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "slug": CODES[self.code][0],
            "severity": self.severity.value,
            "subject": self.subject,
            "source": self.source,
            "message": self.message,
            "context": dict(self.context),
        }

    def __str__(self) -> str:
        subject = f" [{self.subject}]" if self.subject else ""
        return f"{self.severity.value} {self.code}{subject}: {self.message}"


class LintReport:
    """All diagnostics of one lint run over one hypothesis."""

    __slots__ = ("diagnostics", "source")

    def __init__(self, diagnostics: Optional[List[Diagnostic]] = None,
                 source: Optional[str] = None) -> None:
        self.diagnostics = [] if diagnostics is None else diagnostics
        self.source = source

    # ------------------------------------------------------------------
    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """A hypothesis is deployable when it has no error diagnostics."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """No diagnostics at all, not even warnings."""
        return not self.diagnostics

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "ok": self.ok,
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
            },
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def render_text(self) -> str:
        """Human-readable rendering, one diagnostic per line."""
        name = self.source or "<hypothesis>"
        if self.clean:
            return f"{name}: ok"
        head = (f"{name}: {len(self.errors)} error(s), "
                f"{len(self.warnings)} warning(s)")
        return "\n".join([head] + [f"  {d}" for d in self.diagnostics])


class LintError(HypothesisError):
    """Raised by the construction-time ``lint="error"`` mode when the
    analyzer found error-severity diagnostics."""

    def __init__(self, report: LintReport) -> None:
        super().__init__(report.render_text())
        self.report = report


def make_diagnostic(
    code: str,
    message: str,
    *,
    subject: Optional[str] = None,
    source: Optional[str] = None,
    **context: Any,
) -> Diagnostic:
    """Build a diagnostic with its registry severity (codes are never
    emitted with an ad-hoc severity — the registry is the contract)."""
    severity = CODES[code][1]
    return Diagnostic(
        code=code,
        severity=severity,
        message=message,
        subject=subject,
        source=source,
        context=context,
    )
