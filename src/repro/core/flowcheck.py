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

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..telemetry import NULL_REGISTRY
from .hypothesis import FaultHypothesis
from .reports import ErrorType, RunnableError

ErrorListener = Callable[[RunnableError], None]

#: Key used for heartbeats that carry no task attribution.
_GLOBAL_STREAM = "<global>"


def stream_key(
    task: Optional[str],
    runnable: str,
    task_attribution: Optional[Dict[str, str]],
) -> str:
    """The per-task stream a heartbeat belongs to.

    Fallback chain: explicit task context on the heartbeat → configured
    runnable→task attribution → the global stream.  Both the runtime
    checker (:meth:`ProgramFlowCheckingUnit.observe`) and table mining
    (:meth:`FlowTable.mine_from_trace`) MUST use this one function: a
    table mined with a different stream keying than the checker replays
    against can flag the very trace it was mined from.
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

    def successors(self, predecessor: Optional[str]) -> Set[str]:
        """Allowed successors of ``predecessor`` (empty set if none)."""
        return set(self._successors.get(predecessor, ()))

    def entry_points(self) -> Set[str]:
        """Runnables allowed to start a sequence."""
        return set(self._successors.get(None, ()))

    def pair_count(self) -> int:
        """Number of whitelisted (predecessor, successor) pairs."""
        return sum(len(s) for s in self._successors.values())

    def pairs(self) -> List[Tuple[Optional[str], str]]:
        """Every whitelisted pair, entry points as ``(None, successor)``.

        Deterministic order (insertion order of predecessors, successors
        sorted) so review diffs and lint output are stable; this is the
        hand-off format to :func:`repro.lint.lint_flow_pairs`.
        """
        return [
            (pred, succ)
            for pred, succs in self._successors.items()
            for succ in sorted(succs)
        ]

    @classmethod
    def from_hypothesis(cls, hypothesis: FaultHypothesis) -> "FlowTable":
        """Build the table from a fault hypothesis' flow pairs."""
        table = cls()
        for pred, succ in hypothesis.flow_pairs:
            table.allow(pred, succ)
        return table

    @classmethod
    def mine_from_trace(
        cls,
        trace,
        *,
        runnables: Optional[Set[str]] = None,
        task_attribution: Optional[Dict[str, str]] = None,
    ) -> "FlowTable":
        """Learn the look-up table from an observed *healthy* run.

        The paper's table is authored from design knowledge; in practice
        the legal predecessor/successor pairs can also be mined from a
        validated golden execution (the Software-in-the-Loop phase of
        Figure 3).  Heartbeat records are grouped into per-task streams;
        each task activation opens a fresh stream (its first monitored
        runnable becomes an entry point), exactly matching the runtime
        checker's semantics — a table mined from a healthy trace will
        never flag a replay of that trace.

        ``runnables`` restricts mining to the safety-critical set; by
        default every heartbeating runnable is included.

        ``task_attribution`` is the same runnable→task mapping the
        runtime :class:`ProgramFlowCheckingUnit` will be configured
        with.  Pass it whenever the checker has one: heartbeats recorded
        *without* task context are then grouped into the stream the
        checker will actually use (via :func:`stream_key`) instead of
        the global stream, which keeps the mined-table-never-flags-its-
        own-trace guarantee.

        This is a learning aid, not a safety argument: a mined table is
        only as complete as the scenarios the golden run exercised, so
        review it (``pair_count``, ``successors``) before deployment.
        """
        from ..kernel.tracing import TraceKind

        table = cls()
        last: Dict[str, Optional[str]] = {}
        for record in trace:
            if record.kind is TraceKind.TASK_ACTIVATE:
                last[record.subject] = None
            elif record.kind is TraceKind.HEARTBEAT:
                name = record.subject
                if runnables is not None and name not in runnables:
                    continue
                stream = stream_key(
                    record.info.get("task"), name, task_attribution
                )
                table.allow(last.get(stream), name)
                last[stream] = name
        return table


class ProgramFlowCheckingUnit:
    """Checks observed runnable sequences against a :class:`FlowTable`.

    The table and the task attribution are configuration: the unit only
    reads them, so every unit built from one hypothesis shares the same
    objects (:meth:`FaultHypothesis.static_tables`).
    """

    __slots__ = (
        "table", "task_attribution", "_last", "_listeners",
        "observation_count", "violation_count",
        "telemetry", "_tm_enabled", "_tm_observations", "_tm_lookups",
        "_tm_violations", "_tm_table_pairs", "_tm_synced",
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
        # Telemetry mirrors of the plain-int tallies above, folded in by
        # :meth:`sync_telemetry` (the facade calls it once per check
        # cycle) so the per-observation hot path stays untouched.
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        self._tm_enabled = self.telemetry.enabled
        tm = self.telemetry
        self._tm_observations = tm.counter(
            "wd_pfc_observations_total", "Monitored executions observed")
        self._tm_lookups = tm.counter(
            "wd_pfc_lookups_total", "Flow-table look-up operations")
        self._tm_violations = tm.counter(
            "wd_pfc_violations_total", "Illegal transitions detected")
        self._tm_table_pairs = tm.gauge(
            "wd_pfc_table_pairs",
            "Whitelisted (predecessor, successor) pairs in the flow table")
        self._tm_table_pairs.set(table.pair_count())
        self._tm_synced = (0, 0)

    @property
    def lookup_operations(self) -> int:
        """Table look-ups (one per monitored observation), for the
        overhead comparison with signature-based checking (E2)."""
        return self.observation_count

    def sync_telemetry(self) -> None:
        """Fold the plain-int tallies into the registry counters and
        refresh the table-size gauge."""
        if not self._tm_enabled:
            return
        last = self._tm_synced
        observed = self.observation_count - last[0]
        self._tm_observations.inc(observed)
        self._tm_lookups.inc(observed)
        self._tm_violations.inc(self.violation_count - last[1])
        self._tm_synced = (self.observation_count, self.violation_count)
        self._tm_table_pairs.set(self.table.pair_count())

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
        self._last = dict(state["last"])
        self.observation_count = int(state["observation_count"])
        self.violation_count = int(state["violation_count"])
        # Post-restore telemetry deltas count from the restored tallies.
        self._tm_synced = (self.observation_count, self.violation_count)

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

    def expected_next(self, task: Optional[str] = None) -> Set[str]:
        """Successors currently legal for the given task's stream."""
        previous = self._last.get(task or _GLOBAL_STREAM)
        return self.table.successors(previous) | (
            self.table.entry_points() if previous is None else set()
        )
