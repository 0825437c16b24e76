"""Synchronous supervision core of the live service.

The asyncio daemon (:mod:`repro.service.server`) is deliberately a thin
transport: every supervision decision lives here, in plain synchronous
code, so the differential test can drive the exact same objects without
an event loop and pin the service path bit-for-bit to the in-process
path.

A :class:`SupervisorShard` is the supervision table: it owns every
registration, drives their check cycles, and fans each registration's
detections, task faults and ECU-state changes out to table-level
listeners (``(registration name, event)``), so a subscriber — the
daemon's push channels, its event stream — is wired once, not per
registration.  The daemon's table is a
:class:`~repro.service.fleet.Fleet`, which adds the fleet rollup.  Each
registration wraps one
:class:`~repro.core.watchdog.SoftwareWatchdog` built from the
client-submitted fault hypothesis — the same construction an embedded
integrator would use in-process, so detections, thresholds and
task-state rollups are byte-identical to local supervision.  REGISTER
runs the hypothesis through wdlint (:func:`repro.lint.lint_hypothesis`);
error-severity diagnostics always reject, ``strict`` mode also rejects
warnings (the ``--strict`` serve flag).

The fault hypothesis is static configuration, so a fleet compiles each
distinct one once (:class:`HypothesisCache`): N clients submitting the
same hypothesis share one parsed :class:`FaultHypothesis`, its static
tables and its lint result, and each registration owns only its
watchdog's run-time state.  The admission rules still run on every
REGISTER.
"""

from __future__ import annotations

import json
import marshal
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..core.config_io import hypothesis_from_dict
from ..core.hypothesis import FaultHypothesis, HypothesisError
from ..core.reports import EcuStateChange, RunnableError, TaskFaultEvent
from ..core.watchdog import SoftwareWatchdog

__all__ = [
    "CompiledHypothesis",
    "HypothesisCache",
    "Registration",
    "RegistrationError",
    "SupervisorShard",
    "build_watchdog",
]

#: Detection callback: ``(registration name, error)``.
DetectionListener = Callable[[str, RunnableError], None]
TaskFaultListener = Callable[[str, TaskFaultEvent], None]
EcuStateListener = Callable[[str, EcuStateChange], None]


class RegistrationError(ValueError):
    """A REGISTER frame was rejected; carries the human-readable reasons."""

    def __init__(self, reasons: List[str]) -> None:
        super().__init__("; ".join(reasons))
        self.reasons = list(reasons)


def build_watchdog(
    name: str,
    hypothesis: FaultHypothesis,
    *,
    app_of_task: Optional[Dict[str, str]] = None,
    telemetry=None,
) -> SoftwareWatchdog:
    """The one watchdog construction both supervision paths share.

    The differential test builds its in-process reference watchdog
    through this same function, so a knob added here (eager mode, ...)
    can never silently diverge the two paths.  ``lint="off"``
    because the service lints explicitly on REGISTER — it needs the
    structured report for the ACK, not a warning on the server's stderr.
    """
    return SoftwareWatchdog(
        hypothesis,
        name=name,
        app_of_task=app_of_task,
        lint="off",
        telemetry=telemetry,
    )


class Registration:
    """One registered client hypothesis and its supervision state.

    ``hypothesis``, ``hypothesis_dict`` and ``lint_diagnostics`` come
    from the fleet's :class:`HypothesisCache` and are shared, read-only,
    by every registration of the same hypothesis; the watchdog's
    run-time state and the bookkeeping below are this registration's own.
    """

    __slots__ = (
        "name", "hypothesis", "hypothesis_dict", "watchdog",
        "app_of_task", "lint_diagnostics", "active", "connected",
        "indications", "task_starts", "_table",
    )

    def __init__(
        self,
        name: str,
        hypothesis: FaultHypothesis,
        hypothesis_dict: Dict[str, Any],
        watchdog: SoftwareWatchdog,
        app_of_task: Optional[Dict[str, str]] = None,
        lint_diagnostics: Optional[List[str]] = None,
    ) -> None:
        self.name = name
        self.hypothesis = hypothesis
        self.hypothesis_dict = hypothesis_dict
        self.watchdog = watchdog
        #: The runnable→task application mapping submitted with REGISTER
        #: (kept so the registration can be journaled and rebuilt verbatim).
        self.app_of_task = app_of_task
        self.lint_diagnostics = (
            lint_diagnostics if lint_diagnostics is not None else [])
        #: False after a graceful BYE (monitoring deactivated, state kept).
        self.active = True
        #: True while a client connection is bound to this registration.
        self.connected = False
        self.indications = 0
        self.task_starts = 0
        #: The hosting table, set when it admits the registration.
        self._table: Optional["SupervisorShard"] = None

    @property
    def detections(self) -> int:
        """Detections its watchdog has raised."""
        return sum(self.watchdog.detected.values())

    def deactivate(self) -> None:
        """Graceful departure: switch every runnable's Activation Status
        off so the silence that follows is not misread as a crash."""
        self.active = False
        for runnable in self.hypothesis.runnables:
            self.watchdog.set_activation_status(runnable, False)

    def reactivate(self) -> None:
        """Rebind after BYE or reconnect: restore the hypothesis's
        configured Activation Status per runnable."""
        self.active = True
        for runnable, hyp in self.hypothesis.runnables.items():
            self.watchdog.set_activation_status(runnable, hyp.active)

    # Watchdog listeners: bound methods, which cost less per registration
    # than a closure over the name.
    def _on_detection(self, error: RunnableError) -> None:
        self._table._notify_detection(self.name, error)

    def _on_task_fault(self, event: TaskFaultEvent) -> None:
        self._table._notify_task_fault(self.name, event)

    def _on_ecu_state(self, change: EcuStateChange) -> None:
        self._table._notify_ecu_state(self.name, change)


class CompiledHypothesis:
    """One distinct submitted hypothesis, parsed and linted once.

    Shared read-only by every registration that submitted an equal
    hypothesis: the parsed :class:`FaultHypothesis` (and through it the
    static tables its watchdogs share), one canonical copy of the
    submitted dict, and the rendered lint diagnostics.
    """

    __slots__ = ("hypothesis", "hypothesis_dict", "diagnostics")

    def __init__(self, hypothesis: FaultHypothesis,
                 hypothesis_dict: Dict[str, Any],
                 diagnostics: List[str]) -> None:
        self.hypothesis = hypothesis
        self.hypothesis_dict = hypothesis_dict
        self.diagnostics = diagnostics


class HypothesisCache:
    """Compile each distinct hypothesis once; enforce the admission rules
    on every REGISTER.

    Entries are keyed on the canonical JSON (``sort_keys=True``) of the
    submitted dict, and a hit must also compare equal to the submission,
    so two hypotheses the rebind rule tells apart are never merged.  Only
    admitted hypotheses are cached: a parse failure, a lint error or a
    ``strict`` rejection recompiles on every attempt.

    Encoding that key costs more than admitting a hit, so a cached entry
    is also found by the :mod:`marshal` bytes of each submission it
    admitted.  Those bytes record every value's type, so a submission
    they match has the same canonical JSON too.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, CompiledHypothesis] = {}
        #: marshal bytes of an admitted submission → its entry.
        self._seen: Dict[bytes, CompiledHypothesis] = {}
        #: Parse-and-lint runs (cache misses, rejected attempts included).
        self.compiles = 0
        #: Admissions served from an already compiled hypothesis.
        self.hits = 0

    def admit(self, name: str, submitted: Dict[str, Any], *,
              strict: bool) -> CompiledHypothesis:
        """The compiled form of ``submitted``; raises
        :class:`RegistrationError` when the hypothesis is rejected."""
        try:
            seen: Optional[bytes] = marshal.dumps(submitted)
        except ValueError:  # an object marshal cannot encode
            seen = None
        entry = self._seen.get(seen) if seen is not None else None
        key: Optional[str] = None
        if entry is None:
            try:
                key = json.dumps(submitted, sort_keys=True)
            except (TypeError, ValueError, RecursionError):
                pass  # not plain JSON: admitted, never cached
            else:
                entry = self._entries.get(key)
        cached = entry is not None and entry.hypothesis_dict == submitted
        if not cached:
            self.compiles += 1
            entry = _compile(name, submitted)
        if strict and entry.diagnostics:
            raise RegistrationError(
                ["strict mode rejects lint warnings"] + entry.diagnostics
            )
        if cached:
            self.hits += 1
        elif key is not None:
            self._entries[key] = entry
        if key is not None and seen is not None:
            self._seen[seen] = entry
        return entry


def _compile(name: str, submitted: Dict[str, Any]) -> CompiledHypothesis:
    """Parse and lint one hypothesis; error diagnostics reject it.

    Both steps resolve their function at call time (the module-level
    :func:`hypothesis_from_dict`, :func:`repro.lint.lint_hypothesis`),
    so an outside tracer wrapping either sees every compile.
    """
    from ..lint import Severity, lint_hypothesis

    try:
        hypothesis = hypothesis_from_dict(dict(submitted))
    except (AttributeError, HypothesisError, KeyError, TypeError,
            ValueError) as exc:
        raise RegistrationError([f"invalid hypothesis: {exc}"]) from None
    report = lint_hypothesis(hypothesis, source=name)
    errors = [
        str(d) for d in report.diagnostics if d.severity is Severity.ERROR
    ]
    if errors:
        raise RegistrationError(errors)
    return CompiledHypothesis(
        hypothesis,
        dict(submitted),
        [str(d) for d in report.diagnostics],
    )


def _same_json(a: Any, b: Any) -> bool:
    """``a == b`` that also tells apart what Python equates across
    types: ``True`` and ``1``, ``8`` and ``8.0``.  The parser refuses a
    bool or float where it wants an int, so a rebind that compared with
    ``==`` admitted such a submission without ever parsing it."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_json(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same_json, a, b))
    return a == b


def _snapshot_record(entry: Registration) -> Dict[str, Any]:
    return {
        "name": entry.name,
        "hypothesis": entry.hypothesis_dict,
        "app_of_task": (
            dict(entry.app_of_task) if entry.app_of_task is not None
            else None
        ),
        "active": entry.active,
        "indications": entry.indications,
        "task_starts": entry.task_starts,
        "watchdog": entry.watchdog.snapshot_state(),
    }


class SupervisorShard:
    """The supervision table: every registration plus their check-cycle
    driver.

    ``tick()`` iterates registrations in registration order — the
    deterministic order the differential test replays.
    """

    def __init__(
        self,
        *,
        strict: bool = False,
        telemetry=None,
    ) -> None:
        self.strict = strict
        self.telemetry = telemetry
        self.registrations: Dict[str, Registration] = {}
        #: Compiled hypotheses, one per distinct submitted hypothesis.
        self.hypotheses = HypothesisCache()
        self.tick_count = 0
        #: Registration check cycles that raised.  Each is isolated: the
        #: other registrations' cycles still run.
        self.cycle_errors = 0
        self._detection_listeners: List[DetectionListener] = []
        self._task_fault_listeners: List[TaskFaultListener] = []
        self._ecu_state_listeners: List[EcuStateListener] = []

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        hypothesis_dict: Dict[str, Any],
        *,
        app_of_task: Optional[Dict[str, str]] = None,
    ) -> Registration:
        """Admit one hypothesis; lint it; reject what lint rejects.

        A hypothesis equal to one already admitted reuses its compiled
        form (:class:`HypothesisCache`) instead of being parsed and
        linted again.  Re-registering an existing name with an equal
        hypothesis and application map is a *rebind* (the reconnect
        path): the existing watchdog and its counters survive,
        monitoring is reactivated.  A different hypothesis or
        ``app_of_task`` under a taken name is rejected; the maps are
        compared the way the TSI reads them, so no map and an empty one
        are the same.
        """
        existing = self.registrations.get(name)
        if existing is not None:
            if not _same_json(existing.hypothesis_dict, hypothesis_dict):
                different = "hypothesis"
            elif (existing.app_of_task or {}) != (app_of_task or {}):
                different = "app_of_task"
            else:
                existing.reactivate()
                return existing
            raise RegistrationError(
                [f"registration name {name!r} is already in use "
                 f"with a different {different}"]
            )
        compiled = self.hypotheses.admit(
            name, hypothesis_dict, strict=self.strict)
        registration = Registration(
            name=name,
            hypothesis=compiled.hypothesis,
            hypothesis_dict=compiled.hypothesis_dict,
            watchdog=build_watchdog(
                name,
                compiled.hypothesis,
                app_of_task=app_of_task,
                telemetry=self.telemetry,
            ),
            app_of_task=dict(app_of_task) if app_of_task is not None else None,
            lint_diagnostics=compiled.diagnostics,
        )
        registration._table = self
        registration.watchdog.add_fault_listener(registration._on_detection)
        registration.watchdog.add_task_fault_listener(
            registration._on_task_fault)
        registration.watchdog.tsi.add_ecu_state_listener(
            registration._on_ecu_state)
        self.registrations[name] = registration
        return registration

    def deregister(self, name: str) -> None:
        """Graceful BYE: deactivate, keep counters for a later rebind."""
        self.registrations[name].deactivate()

    def discard(self, name: str) -> None:
        """Undo the admission of ``name``, whose REGISTER could not be
        journaled; the registry stops reading its watchdog."""
        self.registrations.pop(name).watchdog.withdraw_telemetry()

    # ------------------------------------------------------------------
    # the supervised interfaces
    # ------------------------------------------------------------------
    def heartbeat(
        self,
        registration: str,
        runnable: str,
        time: int,
        task: Optional[str] = None,
    ) -> None:
        entry = self.registrations.get(registration)
        if entry is None:
            return
        entry.indications += 1
        entry.watchdog.heartbeat_indication(runnable, time, task)

    def task_start(self, registration: str, task: str) -> None:
        entry = self.registrations.get(registration)
        if entry is None:
            return
        entry.task_starts += 1
        entry.watchdog.notify_task_start(task)

    def tick(self, time: int) -> List[Tuple[str, RunnableError]]:
        """One check cycle over every registration.  A registration whose
        cycle raises loses only that cycle (counted in ``cycle_errors``);
        the others are still checked."""
        self.tick_count += 1
        errors: List[Tuple[str, RunnableError]] = []
        for entry in self.registrations.values():
            try:
                found = entry.watchdog.check_cycle(time)
            except Exception:
                self.cycle_errors += 1
                continue
            for error in found:
                errors.append((entry.name, error))
        return errors

    # ------------------------------------------------------------------
    # persistence (the restartable daemon's snapshot/restore pair)
    # ------------------------------------------------------------------
    def snapshot_records(self) -> Iterator[Dict[str, Any]]:
        """Each registration's snapshot record, in registration order:
        its hypothesis, bookkeeping counters, and its watchdog's
        complete monitoring state
        (:meth:`SoftwareWatchdog.snapshot_state`).

        The list of registrations is fixed by this call; each record is
        built only when the iterator reaches it, so a streamed snapshot
        holds one record at a time and a record reflects its
        registration when it is encoded (the cut
        :mod:`repro.service.persistence` describes).  The hypothesis
        dict is the compiled one every registration of that hypothesis
        shares; it is never mutated, so a record holds it by
        reference."""
        return (_snapshot_record(entry)
                for entry in list(self.registrations.values()))

    def restore(self, state: Dict[str, Any]) -> None:
        """Rebuild every registration from a table state: the tick
        count and a list of :meth:`snapshot_records`.

        Each registration is re-admitted through :meth:`register` (so
        listeners are wired exactly like a live REGISTER would) and then
        its watchdog state is overwritten with the captured one —
        including counters mid-window, declared-faulty tasks and the
        wheel deadlines — so supervision resumes where the dead daemon
        left off.  The table must be empty.
        """
        if self.registrations:
            raise ValueError("restore() needs an empty table")
        self.tick_count = int(state["tick_count"])
        for record in state["registrations"]:
            entry = self.register(
                record["name"],
                record["hypothesis"],
                app_of_task=record["app_of_task"],
            )
            entry.watchdog.restore_state(record["watchdog"])
            # The Activation Status flags came back with the counter
            # block; only the bookkeeping flag needs setting (calling
            # deactivate() here would wrongly re-zero the counters).
            entry.active = bool(record["active"])
            entry.indications = int(record["indications"])
            entry.task_starts = int(record["task_starts"])

    # ------------------------------------------------------------------
    # rollups and listeners
    # ------------------------------------------------------------------
    def add_detection_listener(self, listener: DetectionListener) -> None:
        self._detection_listeners.append(listener)

    def add_task_fault_listener(self, listener: TaskFaultListener) -> None:
        self._task_fault_listeners.append(listener)

    def add_ecu_state_listener(self, listener: EcuStateListener) -> None:
        """Subscribe to every registration's ECU-state transitions:
        ``(registration name, change)``."""
        self._ecu_state_listeners.append(listener)

    def _notify_detection(self, registration: str, error: RunnableError) -> None:
        for listener in self._detection_listeners:
            listener(registration, error)

    def _notify_task_fault(self, registration: str, event: TaskFaultEvent) -> None:
        for listener in self._task_fault_listeners:
            listener(registration, event)

    def _notify_ecu_state(self, registration: str,
                          change: EcuStateChange) -> None:
        for listener in self._ecu_state_listeners:
            listener(registration, change)

    def task_states(self) -> Dict[str, Dict[str, Any]]:
        """Per-registration task-state map (the fleet's rollup input)."""
        return {
            name: {
                task: entry.watchdog.task_state(task)
                for task in entry.hypothesis.tasks()
            }
            for name, entry in self.registrations.items()
        }
