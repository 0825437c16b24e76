"""Program Flow Checking (PFC) unit — look-up table sequence monitoring.

The paper (§3.2.2) deliberately avoids embedded-signature control-flow
checking (CFCSS-style) and instead keeps "a simple approach with a
look-up table ... to minimize performance penalty and extensive
modification requirements of applications": the table stores all legal
predecessor/successor relationships of the monitored runnables, and the
actually observed execution sequence — derived from the same aliveness
indications the HBM unit consumes — is checked against it.

Streams are tracked per task, because runnables of different tasks
interleave under preemption; an interleaved observation must not be
misread as a flow violation.  A task's stream is reset at each task
activation (a new activation may legally start at any whitelisted entry
point).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Set

from ..telemetry import NULL_REGISTRY, Sample, rebase
from .hypothesis import FaultHypothesis
from .reports import ErrorType, RunnableError

ErrorListener = Callable[[RunnableError], None]

#: Key used for heartbeats that carry no task attribution.
_GLOBAL_STREAM = "<global>"

#: The families a unit reports (read at export time, see ``_metrics``).
_TM_FAMILIES = (
    ("wd_pfc_observations_total", "counter", "Monitored executions observed"),
    ("wd_pfc_violations_total", "counter", "Illegal transitions detected"),
    ("wd_pfc_table_pairs", "gauge",
     "Whitelisted (predecessor, successor) pairs in the flow table"),
)


def stream_key(
    task: Optional[str],
    runnable: str,
    task_attribution: Optional[Dict[str, str]],
) -> str:
    """The per-task stream a heartbeat belongs to.

    Fallback chain: explicit task context on the heartbeat → configured
    runnable→task attribution → the global stream.
    """
    if task:
        return task
    if task_attribution:
        attributed = task_attribution.get(runnable)
        if attributed:
            return attributed
    return _GLOBAL_STREAM


class FlowTable:
    """The predecessor → successors look-up table."""

    def __init__(self) -> None:
        self._successors: Dict[Optional[str], Set[str]] = {}
        self._monitored: Set[str] = set()

    # ------------------------------------------------------------------
    def allow(self, predecessor: Optional[str], successor: str) -> None:
        """Whitelist one transition; ``None`` predecessor = entry point."""
        self._successors.setdefault(predecessor, set()).add(successor)
        if predecessor is not None:
            self._monitored.add(predecessor)
        self._monitored.add(successor)

    def allow_sequence(self, names: List[str]) -> None:
        """Whitelist a linear sequence including its entry point."""
        if not names:
            return
        self.allow(None, names[0])
        for pred, succ in zip(names, names[1:]):
            self.allow(pred, succ)

    def allow_cycle(self, names: List[str]) -> None:
        """Whitelist a repeating sequence (last element may precede first)."""
        self.allow_sequence(names)
        if len(names) > 1:
            self.allow(names[-1], names[0])

    # ------------------------------------------------------------------
    def is_monitored(self, runnable: str) -> bool:
        """Whether the runnable participates in flow checking at all."""
        return runnable in self._monitored

    def is_allowed(self, predecessor: Optional[str], successor: str) -> bool:
        """Table look-up: may ``successor`` follow ``predecessor``?"""
        return successor in self._successors.get(predecessor, ())

    def pair_count(self) -> int:
        """Number of whitelisted (predecessor, successor) pairs."""
        return sum(len(s) for s in self._successors.values())

    @classmethod
    def from_hypothesis(cls, hypothesis: FaultHypothesis) -> "FlowTable":
        """Build the table from a fault hypothesis' flow pairs."""
        table = cls()
        for pred, succ in hypothesis.flow_pairs:
            table.allow(pred, succ)
        return table


class ProgramFlowCheckingUnit:
    """Checks observed runnable sequences against a :class:`FlowTable`.

    The table and the task attribution are configuration: the unit only
    reads them, so every unit built from one hypothesis shares the same
    objects (:meth:`FaultHypothesis.static_tables`).
    """

    __slots__ = (
        "table", "task_attribution", "_last", "_listeners",
        "observation_count", "violation_count", "_tm_base",
    )

    def __init__(
        self,
        table: FlowTable,
        *,
        task_attribution: Optional[Dict[str, str]] = None,
        telemetry=None,
    ) -> None:
        self.table = table
        #: Maps runnable name → owning task, for attributing errors when a
        #: heartbeat arrives without task context (read-only).
        self.task_attribution = (
            task_attribution if task_attribution is not None else {})
        self._last: Dict[str, Optional[str]] = {}
        self._listeners: List[ErrorListener] = []
        self.observation_count = 0
        self.violation_count = 0
        #: Subtracted from the two tallies on export (see ``rebase``).
        self._tm_base = (0, 0)
        (telemetry or NULL_REGISTRY).add_source(_TM_FAMILIES, self._metrics)

    def _metrics(self) -> Iterator[Sample]:
        """The registry's read of this unit (a telemetry source)."""
        observed, violated = self._tm_base
        yield ("wd_pfc_observations_total", (),
               self.observation_count - observed)
        yield "wd_pfc_violations_total", (), self.violation_count - violated
        yield "wd_pfc_table_pairs", (), self.table.pair_count()

    # ------------------------------------------------------------------
    def add_listener(self, listener: ErrorListener) -> None:
        """Register a sink for detected flow errors (the TSI unit)."""
        self._listeners.append(listener)

    def reset_stream(self, task: Optional[str]) -> None:
        """Restart the sequence of ``task`` (new activation)."""
        self._last[task or _GLOBAL_STREAM] = None

    def reset_all(self) -> None:
        """Forget every stream (watchdog restart)."""
        self._last.clear()

    def snapshot_state(self) -> Dict[str, object]:
        """JSON-compatible checker state (daemon persistence): the
        per-stream predecessors plus the tallies."""
        return {
            "last": dict(self._last),
            "observation_count": self.observation_count,
            "violation_count": self.violation_count,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Resume from a :meth:`snapshot_state` capture (the unit must
        carry the same flow table and task attribution)."""
        before = (self.observation_count, self.violation_count)
        self._last = dict(state["last"])
        self.observation_count = int(state["observation_count"])
        self.violation_count = int(state["violation_count"])
        # Exported counters count only this process's work.
        self._tm_base = rebase(self._tm_base, before,
                               (self.observation_count, self.violation_count))

    # ------------------------------------------------------------------
    def observe(
        self, runnable: str, time: int, task: Optional[str] = None
    ) -> Optional[RunnableError]:
        """Feed one observed execution into the checker.

        Returns the emitted :class:`RunnableError` when the transition is
        illegal, else ``None``.  Unmonitored runnables are transparent:
        they neither advance nor disturb the stream (the paper monitors
        "only the sequence of the safety-critical runnables ... to reduce
        the overhead involved during program flow checks").
        """
        if not self.table.is_monitored(runnable):
            return None
        self.observation_count += 1
        stream = stream_key(task, runnable, self.task_attribution)
        previous = self._last.get(stream)
        error: Optional[RunnableError] = None
        if not self.table.is_allowed(previous, runnable):
            self.violation_count += 1
            error = RunnableError(
                time=time,
                runnable=runnable,
                task=task or self.task_attribution.get(runnable),
                error_type=ErrorType.PROGRAM_FLOW,
                details={"previous": previous, "observed": runnable},
            )
            for listener in self._listeners:
                listener(error)
        # The observed runnable becomes the new predecessor either way:
        # resynchronising on the observed block avoids cascades of
        # secondary violations after a single bad branch.
        self._last[stream] = runnable
        return error
