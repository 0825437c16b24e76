"""Executable reference model of the paper's Software Watchdog.

A plain, per-cycle restatement of the three units of §3.2, written from
DESIGN.md §1 rather than from the production code: no interned slots,
no expiry wheel, no telemetry, no tables shared between watchdogs.
Every piece of state is a dict a reader can check against the paper:

* **HBM** (§3.2.1): per runnable the Aliveness Counter AC, the Arrival
  Rate Counter ARC, the Cycle Counters CCA and CCAR and the Activation
  Status AS.  A heartbeat increments AC and ARC.  Each check cycle
  increments CCA and CCAR; when a period expires its bound is checked
  and its counters are reset, whether or not an error was found.
* **PFC** (§3.2.2): a look-up table of allowed (predecessor, successor)
  pairs, checked against the observed sequence of each task.
* **TSI** (§3.2.3): per task an error indication vector of
  runnable → error type → count; an element reaching its threshold
  declares the task faulty, and states roll up task → application →
  ECU.

Where the paper leaves a choice open, the behaviour that the figure and
experiment tests (Fig. 5/5b/5c/6, E1–E7) pin is written down as a
``RULE`` comment with its one-line reason.  ``test_reference_model.py``
runs this model against ``SoftwareWatchdog`` and the daemon's ``Fleet``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.hypothesis import FaultHypothesis
from repro.core.reports import ErrorType, MonitorState, RunnableError

ALIVENESS = ErrorType.ALIVENESS
ARRIVAL_RATE = ErrorType.ARRIVAL_RATE
PROGRAM_FLOW = ErrorType.PROGRAM_FLOW

#: The stream of a heartbeat with no task, reported or configured.
GLOBAL_STREAM = "<global>"
#: The task an error is recorded under when nothing names one.
UNMAPPED_TASK = "<unmapped>"


def worst(states) -> MonitorState:
    """FAULTY beats SUSPICIOUS beats OK (OK for no states at all)."""
    states = list(states)
    for state in (MonitorState.FAULTY, MonitorState.SUSPICIOUS):
        if state in states:
            return state
    return MonitorState.OK


class ReferenceWatchdog:
    """One watchdog: HBM, PFC and TSI over one fault hypothesis."""

    def __init__(self, hypothesis: FaultHypothesis, *, eager: bool = False,
                 app_of_task: Optional[Dict[str, str]] = None) -> None:
        #: runnable → its RunnableHypothesis, in registration order.
        self.hyps = dict(hypothesis.runnables)
        self.allowed = set(hypothesis.flow_pairs)
        self.flow_monitored = {
            name for pair in self.allowed for name in pair if name is not None}
        self.thresholds = hypothesis.thresholds
        self.eager = eager
        self.app_of_task = dict(app_of_task or {})
        # HBM
        self.counters = {
            name: {"AC": 0, "ARC": 0, "CCA": 0, "CCAR": 0, "AS": hyp.active}
            for name, hyp in self.hyps.items()}
        self.unknown_heartbeats = 0
        #: Runnables whose aliveness or arrival period expired in the
        #: last cycle (a runnable due for both counts once).
        self.due_last_cycle = 0
        # PFC: stream → last observed runnable (None: activation start).
        self.last: Dict[str, Optional[str]] = {}
        # TSI
        # RULE: attribution is learned from the first error that names a
        # runnable's task, and a reset keeps it (the TSI never forgets).
        self.task_of = {name: hyp.task for name, hyp in self.hyps.items()
                        if hyp.task is not None}
        self.vectors: Dict[str, Dict[str, Dict[ErrorType, int]]] = {}
        self.faulty: Dict[str, int] = {}
        #: Every detection, in the order the units raised them.
        self.detections: List[RunnableError] = []
        #: (time, task, trigger runnable, trigger error type) per task
        #: declared faulty.
        self.task_faults: List[tuple] = []

    # ------------------------------------------------------------------
    # the glue-code interfaces
    # ------------------------------------------------------------------
    def heartbeat(self, runnable: str, time: int,
                  task: Optional[str] = None) -> None:
        counters = self.counters.get(runnable)
        if counters is None:
            # RULE: a corrupted identifier is counted and otherwise
            # ignored (a fault can corrupt the name glue code reports).
            self.unknown_heartbeats += 1
            return
        if not counters["AS"]:
            # RULE: AS off hides a runnable from both HBM and PFC, so a
            # terminated application neither alarms nor breaks a stream.
            return
        hyp = self.hyps[runnable]
        # RULE: the flow check sees the indication before the counters
        # do, so a PFC error precedes an eager arrival error.
        self._observe_flow(runnable, time, task)
        counters["AC"] += 1
        counters["ARC"] += 1
        if self.eager and counters["ARC"] > hyp.max_heartbeats:
            # RULE (E3 ablation): eager mode flags the overflowing
            # heartbeat at once and restarts only ARC; CCAR keeps the
            # configured window boundary.
            self._detect(RunnableError(
                time, runnable, task or hyp.task, ARRIVAL_RATE,
                {"arc": counters["ARC"], "max": hyp.max_heartbeats,
                 "eager": True}))
            counters["ARC"] = 0

    def task_start(self, task: str) -> None:
        """A task activation restarts its stream at a legal entry point."""
        self.last[task or GLOBAL_STREAM] = None

    def set_active(self, runnable: str, active: bool) -> None:
        counters = self.counters[runnable]
        if counters["AS"] != active:
            # RULE: flipping AS starts fresh windows, so a reactivated
            # runnable is not judged on a period it was not monitored in.
            counters.update(AC=0, ARC=0, CCA=0, CCAR=0, AS=active)

    def reset(self) -> None:
        """ECU software reset: counters, streams and vectors restart."""
        # RULE: AS survives a reset; a runnable the FMF switched off
        # stays off until it is switched on again.
        for counters in self.counters.values():
            counters.update(AC=0, ARC=0, CCA=0, CCAR=0)
        self.unknown_heartbeats = 0
        self.last.clear()
        self.vectors.clear()
        self.faulty.clear()

    # ------------------------------------------------------------------
    # the periodic check, "shortly before the next period begins"
    # ------------------------------------------------------------------
    def cycle(self, time: int) -> List[RunnableError]:
        found: List[RunnableError] = []
        self.due_last_cycle = 0
        for name, hyp in self.hyps.items():
            counters = self.counters[name]
            if not counters["AS"]:
                continue
            counters["CCA"] += 1
            counters["CCAR"] += 1
            due = False
            # RULE: within a cycle runnables are judged in registration
            # order, aliveness before arrival rate.
            if counters["CCA"] == hyp.aliveness_period:
                due = True
                if counters["AC"] < hyp.min_heartbeats:
                    found.append(RunnableError(
                        time, name, hyp.task, ALIVENESS,
                        {"ac": counters["AC"], "min": hyp.min_heartbeats}))
                counters["AC"] = counters["CCA"] = 0
            if counters["CCAR"] == hyp.arrival_period:
                due = True
                if counters["ARC"] > hyp.max_heartbeats:
                    found.append(RunnableError(
                        time, name, hyp.task, ARRIVAL_RATE,
                        {"arc": counters["ARC"], "max": hyp.max_heartbeats}))
                counters["ARC"] = counters["CCAR"] = 0
            self.due_last_cycle += due
        for error in found:
            self._detect(error)
        return found

    # ------------------------------------------------------------------
    # PFC and TSI
    # ------------------------------------------------------------------
    def _observe_flow(self, runnable: str, time: int,
                      task: Optional[str]) -> None:
        if runnable not in self.flow_monitored:
            return  # only safety-critical runnables are sequence-checked
        configured = self.hyps[runnable].task
        # RULE: a stream is the reported task, else the configured one;
        # preempting tasks interleave without flow errors.
        stream = task or configured or GLOBAL_STREAM
        previous = self.last.get(stream)
        if (previous, runnable) not in self.allowed:
            self._detect(RunnableError(
                time, runnable, task or configured, PROGRAM_FLOW,
                {"previous": previous, "observed": runnable}))
        # RULE: resynchronise on the observed runnable, so one bad
        # branch is one error (Fig. 6 counts one per injected branch).
        self.last[stream] = runnable

    def _detect(self, error: RunnableError) -> None:
        self.detections.append(error)
        task = error.task or self.task_of.get(error.runnable) or UNMAPPED_TASK
        self.task_of.setdefault(error.runnable, task)
        per_type = self.vectors.setdefault(task, {}).setdefault(
            error.runnable, {})
        per_type[error.error_type] = per_type.get(error.error_type, 0) + 1
        threshold = self.thresholds.threshold_for(error.error_type)
        if per_type[error.error_type] >= threshold and task not in self.faulty:
            # RULE: a task is declared faulty once; later crossings of
            # other elements do not re-declare it (Fig. 6: one reaction).
            self.faulty[task] = error.time
            self.task_faults.append(
                (error.time, task, error.runnable, error.error_type))

    # ------------------------------------------------------------------
    # derived states
    # ------------------------------------------------------------------
    def task_state(self, task: str) -> MonitorState:
        if task in self.faulty:
            return MonitorState.FAULTY
        if self.vectors.get(task):
            return MonitorState.SUSPICIOUS  # errors below threshold
        return MonitorState.OK

    def application_state(self, application: str) -> MonitorState:
        return worst(self.task_state(task)
                     for task, app in self.app_of_task.items()
                     if app == application)

    def ecu_state(self) -> MonitorState:
        # Only a task with recorded errors can be worse than OK.
        return worst(self.task_state(task) for task in self.vectors)

    def counter_values(self, runnable: str) -> Dict[str, int]:
        """AC/ARC/CCA/CCAR/AS of one runnable (AS as 0/1)."""
        counters = self.counters[runnable]
        return dict(counters, AS=int(counters["AS"]))
