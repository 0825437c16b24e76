"""Fault-hypothesis serialization.

The fault hypothesis is a *design artefact*: it is authored with the
system configuration (EASIS deliverable style), reviewed, and only then
deployed.  :func:`hypothesis_to_dict` / :func:`hypothesis_from_dict`
(de)serialize it losslessly to plain dicts (JSON/YAML-ready), so
hypotheses can live in version-controlled configuration files.  Checking
one against its task mapping and schedule is wdlint's job
(:func:`repro.lint.lint_hypothesis`, codes ``WD3xx``).
"""

from __future__ import annotations

from typing import Any, Dict

from .hypothesis import FaultHypothesis, RunnableHypothesis, ThresholdPolicy
from .reports import ErrorType

_FORMAT_VERSION = 1


def hypothesis_to_dict(hypothesis: FaultHypothesis) -> Dict[str, Any]:
    """Serialise a hypothesis to a plain dict (JSON-compatible)."""
    return {
        "version": _FORMAT_VERSION,
        "runnables": [
            {
                "runnable": h.runnable,
                "task": h.task,
                "aliveness_period": h.aliveness_period,
                "min_heartbeats": h.min_heartbeats,
                "arrival_period": h.arrival_period,
                "max_heartbeats": h.max_heartbeats,
                "active": h.active,
            }
            for h in hypothesis.runnables.values()
        ],
        "flow_pairs": [
            {"predecessor": pred, "successor": succ}
            for pred, succ in hypothesis.flow_pairs
        ],
        "thresholds": {
            "default": hypothesis.thresholds.default,
            "per_type": {
                et.value: value
                for et, value in hypothesis.thresholds.per_type.items()
            },
        },
    }


def hypothesis_from_dict(data: Dict[str, Any], *, validate: bool = True) -> FaultHypothesis:
    """Rebuild a hypothesis from :func:`hypothesis_to_dict` output.

    ``validate=False`` skips the final consistency check — used by the
    wdlint CLI, which wants to load a *broken* hypothesis and report its
    defects as structured diagnostics instead of dying on the first
    inconsistency.
    """
    version = data.get("version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported hypothesis format version: {version!r}")
    thresholds = ThresholdPolicy(
        default=data["thresholds"]["default"],
        per_type={
            ErrorType(key): value
            for key, value in data["thresholds"]["per_type"].items()
        },
    )
    hypothesis = FaultHypothesis(thresholds=thresholds)
    for entry in data["runnables"]:
        hypothesis.add_runnable(RunnableHypothesis(**entry))
    for pair in data["flow_pairs"]:
        hypothesis.allow_flow(pair["predecessor"], pair["successor"])
    if validate:
        hypothesis.validate()
    return hypothesis
