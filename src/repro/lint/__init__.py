"""wdlint — static analyzer for Software Watchdog fault hypotheses.

Public surface:

* :func:`lint_hypothesis` — run every analysis (flow graph, counter
  feasibility, thresholds, optional system cross-checks) over one
  :class:`~repro.core.hypothesis.FaultHypothesis`,
* :func:`lint_flow_pairs` — flow-graph-only analysis of a pair list,
* :class:`Diagnostic` / :class:`LintReport` / :class:`Severity` — the
  structured result model with text and JSON renderers,
* :data:`CODES` — the stable diagnostic-code registry,
* :class:`LintError` / :class:`LintWarning` — the construction-time
  ``lint="error"`` / ``lint="warn"`` policies of
  :class:`~repro.core.watchdog.SoftwareWatchdog`,
* :func:`run_lint` — the ``python -m repro lint`` driver.
"""

from .analyzer import lint_flow_pairs, lint_hypothesis
from .cli import BUILTIN_TARGETS, lint_builtin, lint_file, run_lint
from .diagnostics import (
    CODES,
    Diagnostic,
    LintError,
    LintReport,
    LintWarning,
    Severity,
    make_diagnostic,
)

__all__ = [
    "BUILTIN_TARGETS",
    "CODES",
    "Diagnostic",
    "LintError",
    "LintReport",
    "LintWarning",
    "Severity",
    "lint_builtin",
    "lint_file",
    "lint_flow_pairs",
    "lint_hypothesis",
    "make_diagnostic",
    "run_lint",
]
