"""Fault hypothesis configuration for the Software Watchdog.

The paper (§3.2.1) anchors all monitoring in a *fault hypothesis*: per
runnable, the monitoring periods of the aliveness and arrival-rate
checks (counted in watchdog check cycles, the Cycle Counters CCA and
CCAR) and the expected heartbeat bounds within those periods.  This
module is the declarative side of that hypothesis; the counters
themselves live in :mod:`repro.core.counters`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from .reports import ErrorType

if TYPE_CHECKING:  # pragma: no cover - typing only (flowcheck imports us)
    from .flowcheck import FlowTable


class HypothesisError(ValueError):
    """Raised for an inconsistent fault hypothesis."""


@dataclass
class RunnableHypothesis:
    """Monitoring parameters for one runnable.

    Parameters
    ----------
    runnable:
        Name of the monitored runnable.
    task:
        Name of the OSEK task hosting the runnable (used by the TSI unit
        to aggregate runnable errors into task states).
    aliveness_period:
        Length of the aliveness monitoring period in watchdog check
        cycles (the CCA rollover value).
    min_heartbeats:
        Minimum number of heartbeats expected within one aliveness
        period; fewer indications mean the runnable "is blocked or
        preempted ... and its aliveness indication routine is not
        executed frequently enough".
    arrival_period:
        Length of the arrival-rate monitoring period in watchdog check
        cycles (the CCAR rollover value).
    max_heartbeats:
        Maximum number of heartbeats tolerated within one arrival
        period; more indications mean the runnable "is excessively
        dispatched for execution".
    active:
        Initial Activation Status (AS) of the runnable's monitoring.
    """

    runnable: str
    task: Optional[str] = None
    aliveness_period: int = 1
    min_heartbeats: int = 1
    arrival_period: int = 1
    max_heartbeats: int = 1
    active: bool = True

    def __post_init__(self) -> None:
        if self.aliveness_period < 1:
            raise HypothesisError(
                f"{self.runnable}: aliveness_period must be >= 1"
            )
        if self.arrival_period < 1:
            raise HypothesisError(f"{self.runnable}: arrival_period must be >= 1")
        if self.min_heartbeats < 0:
            raise HypothesisError(f"{self.runnable}: min_heartbeats must be >= 0")
        if self.max_heartbeats < 0:
            raise HypothesisError(f"{self.runnable}: max_heartbeats must be >= 0")


@dataclass
class ThresholdPolicy:
    """TSI thresholds: errors tolerated before a task is declared faulty.

    A threshold of ``n`` means the *n*-th recorded error of that type for
    a runnable flips the hosting task to FAULTY (the paper's Figure 6
    uses a program-flow threshold of 3).  ``per_type`` overrides the
    default for individual error types.
    """

    default: int = 3
    per_type: Dict[ErrorType, int] = field(default_factory=dict)

    def validate(self) -> None:
        """Reject non-positive thresholds at configuration time.

        Runs from :meth:`FaultHypothesis.validate` (and therefore at
        watchdog construction) so a bad policy fails before monitoring
        starts — :meth:`threshold_for` sits in the per-error hot path and
        must stay a plain lookup.
        """
        if self.default < 1:
            raise HypothesisError(
                f"default threshold must be >= 1, got {self.default}"
            )
        for error_type, value in self.per_type.items():
            if value < 1:
                raise HypothesisError(
                    f"threshold for {error_type} must be >= 1, got {value}"
                )

    def threshold_for(self, error_type: ErrorType) -> int:
        return self.per_type.get(error_type, self.default)


class StaticTables:
    """The design-time look-up tables every watchdog derives from one
    hypothesis: slot interning, per-slot hypotheses, the runnable→task
    attribution and the PFC flow table.

    Built once per hypothesis by :meth:`FaultHypothesis.static_tables`
    and shared by every watchdog built from it, so the objects are
    read-only: a unit that needs to change one copies it first.
    """

    __slots__ = ("names", "slot_of", "hyps", "task_of_runnable",
                 "task_of_slot", "flow_table", "_source")

    def __init__(self, hypothesis: "FaultHypothesis") -> None:
        from .flowcheck import FlowTable

        #: Runnable names in slot order (registration order).
        self.names: List[str] = list(hypothesis.runnables)
        self.slot_of: Dict[str, int] = {
            name: slot for slot, name in enumerate(self.names)
        }
        self.hyps: List[RunnableHypothesis] = [
            hypothesis.runnables[name] for name in self.names
        ]
        self.task_of_runnable: Dict[str, str] = {
            h.runnable: h.task for h in self.hyps if h.task is not None
        }
        self.task_of_slot: List[Optional[str]] = [h.task for h in self.hyps]
        self.flow_table: "FlowTable" = FlowTable.from_hypothesis(hypothesis)
        self._source = (hypothesis.runnables, len(hypothesis.runnables),
                        hypothesis.flow_pairs, len(hypothesis.flow_pairs))

    def derived_from(self, hypothesis: "FaultHypothesis") -> bool:
        """Whether the tables still describe ``hypothesis``: the same two
        containers at the same sizes, so replacing or growing either one
        directly (bypassing ``add_runnable``/``allow_flow``) still
        invalidates the memo."""
        runnables, n_runnables, flow_pairs, n_pairs = self._source
        return (runnables is hypothesis.runnables
                and n_runnables == len(runnables)
                and flow_pairs is hypothesis.flow_pairs
                and n_pairs == len(flow_pairs))


@dataclass
class FaultHypothesis:
    """The complete static configuration of one Software Watchdog.

    Collects the per-runnable hypotheses, the allowed program-flow
    transitions (predecessor → successors look-up table, §3.2.2) and the
    TSI threshold policy (§3.2.3).
    """

    runnables: Dict[str, RunnableHypothesis] = field(default_factory=dict)
    flow_pairs: List[Tuple[Optional[str], str]] = field(default_factory=list)
    thresholds: ThresholdPolicy = field(default_factory=ThresholdPolicy)
    #: Memo of :meth:`static_tables` (not part of the configuration).
    _tables: Optional[StaticTables] = field(
        default=None, init=False, repr=False, compare=False)

    def add_runnable(self, hypothesis: RunnableHypothesis) -> RunnableHypothesis:
        """Register monitoring parameters for a runnable (unique name)."""
        if hypothesis.runnable in self.runnables:
            raise HypothesisError(f"duplicate hypothesis for {hypothesis.runnable!r}")
        self.runnables[hypothesis.runnable] = hypothesis
        self._tables = None
        return hypothesis

    def allow_flow(self, predecessor: Optional[str], successor: str) -> None:
        """Whitelist a predecessor→successor transition.

        A ``None`` predecessor marks ``successor`` as a legal entry point
        (the first monitored runnable of a task activation).
        """
        self.flow_pairs.append((predecessor, successor))
        self._tables = None

    def static_tables(self) -> StaticTables:
        """The read-only tables every watchdog of this hypothesis shares,
        derived on first use and kept until the hypothesis changes."""
        tables = self._tables
        if tables is None or not tables.derived_from(self):
            tables = self._tables = StaticTables(self)
        return tables

    def allow_sequence(self, names: Iterable[str]) -> None:
        """Whitelist a linear sequence: entry point plus each adjacency."""
        names = list(names)
        if not names:
            return
        self.allow_flow(None, names[0])
        for pred, succ in zip(names, names[1:]):
            self.allow_flow(pred, succ)

    def tasks(self) -> List[str]:
        """Distinct task names referenced by the hypothesis."""
        seen: Dict[str, None] = {}
        for hyp in self.runnables.values():
            if hyp.task is not None:
                seen.setdefault(hyp.task, None)
        return list(seen)

    def validate(self) -> None:
        """Check cross-references (flow pairs must name known runnables)
        and the threshold policy.

        This guards the hard *consistency* invariants only; the wdlint
        analyzer (:func:`repro.lint.lint_hypothesis`) additionally finds
        configurations that are consistent but defective (unreachable
        runnables, contradictory bounds, schedule mismatches).
        """
        self.thresholds.validate()
        for pred, succ in self.flow_pairs:
            if pred is not None and pred not in self.runnables:
                raise HypothesisError(f"flow predecessor {pred!r} is not monitored")
            if succ not in self.runnables:
                raise HypothesisError(f"flow successor {succ!r} is not monitored")
