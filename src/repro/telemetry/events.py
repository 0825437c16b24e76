"""Structured telemetry events — the watchdog's exportable narrative.

Metrics (:mod:`repro.telemetry.registry`) aggregate; events record the
individual occurrences an integrator replays offline: detections, task
faults, ECU state changes, treatments, lint warnings.  Every event is a
versioned, JSON-serializable record so a JSONL stream written today
stays parseable when the schema grows — and so kernel trace records
and watchdog telemetry can be correlated record-by-record on the shared
``time`` axis.

The watchdog reports outward only through its listeners, so its
records come from one subscriber, :class:`WatchdogEvents`, attached to
a watchdog (the ECU) or once to a supervision table (the daemon, where
every record names its registration).

Sinks implement the :class:`TelemetrySink` protocol (one ``emit``
method).  Two are provided:

* :class:`InMemorySink` — list-backed, for tests and programmatic use,
* :class:`JsonlFileSink` — one JSON document per line, for the CLI
  (``--telemetry out.jsonl``).

A producer without a sink holds ``None`` and builds no event.
"""

from __future__ import annotations

import json
from functools import partial
from typing import Any, Dict, IO, Iterable, List, Optional, Protocol

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "InMemorySink",
    "JsonlFileSink",
    "TelemetryEvent",
    "TelemetrySink",
    "WatchdogEvents",
]

#: Version stamped into every record; bump on incompatible field changes.
EVENT_SCHEMA_VERSION = 1

#: Well-known event kinds (producers may add new ones; consumers must
#: ignore kinds they do not understand).
KIND_DETECTION = "detection"
KIND_TASK_FAULT = "task_fault"
KIND_ECU_STATE_CHANGE = "ecu_state_change"
KIND_TREATMENT = "treatment"
KIND_LINT_WARNING = "lint_warning"
KIND_RUN_COMPLETED = "run_completed"
KIND_METRICS_SNAPSHOT = "metrics_snapshot"
KIND_RESULT_ROW = "result_row"


class TelemetryEvent:
    """One versioned telemetry record.

    ``time`` is simulation ticks for in-run events (detections, state
    changes, treatments) — the same axis as the kernel trace — and 0
    for configuration-time or CLI-level events (lint warnings,
    snapshots).

    Two events are equal when every field is.
    """

    __slots__ = ("time", "kind", "subject", "data", "schema")

    def __init__(self, time: int, kind: str, subject: str,
                 data: Optional[Dict[str, Any]] = None,
                 schema: int = EVENT_SCHEMA_VERSION) -> None:
        self.time = time
        self.kind = kind
        self.subject = subject
        self.data = {} if data is None else data
        self.schema = schema

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.time == other.time and self.kind == other.kind
                and self.subject == other.subject and self.data == other.data
                and self.schema == other.schema)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "time": self.time,
            "kind": self.kind,
            "subject": self.subject,
            "data": dict(self.data),
        }

    def to_jsonl(self) -> str:
        """One-line JSON rendering (no trailing newline)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TelemetryEvent":
        return cls(
            time=payload["time"],
            kind=payload["kind"],
            subject=payload["subject"],
            data=dict(payload.get("data", {})),
            schema=payload.get("schema", EVENT_SCHEMA_VERSION),
        )

    @classmethod
    def from_jsonl(cls, line: str) -> "TelemetryEvent":
        return cls.from_dict(json.loads(line))


class TelemetrySink(Protocol):
    """Anything that accepts telemetry events."""

    def emit(self, event: TelemetryEvent) -> None: ...


class InMemorySink:
    """Collects events in a list (tests and programmatic consumers)."""

    def __init__(self) -> None:
        self.events: List[TelemetryEvent] = []

    def emit(self, event: TelemetryEvent) -> None:
        self.events.append(event)

    def filter(
        self, kind: Optional[str] = None, subject: Optional[str] = None
    ) -> List[TelemetryEvent]:
        """Events matching the given constraints."""
        return [
            e for e in self.events
            if (kind is None or e.kind == kind)
            and (subject is None or e.subject == subject)
        ]


class JsonlFileSink:
    """Writes one JSON document per event line (the CLI's export format).

    ``mode="a"`` appends to an existing stream (used when several
    subcommands share one ``--telemetry`` file).  ``flush_every=N``
    flushes the underlying file every N emitted events so a long-running
    daemon's stream is durable without reopening the file; the default
    (``None``) keeps the historical close-time flushing.
    """

    def __init__(
        self, path: str, mode: str = "w", *, flush_every: Optional[int] = None,
    ) -> None:
        if mode not in ("w", "a"):
            raise ValueError(f"mode must be 'w' or 'a', not {mode!r}")
        if flush_every is not None and flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, not {flush_every!r}")
        self.path = str(path)
        self.flush_every = flush_every
        self._handle: Optional[IO[str]] = open(self.path, mode,
                                               encoding="utf-8")
        self.emitted = 0

    def emit(self, event: TelemetryEvent) -> None:
        if self._handle is None:
            raise ValueError(f"sink for {self.path!r} is closed")
        self._handle.write(event.to_jsonl() + "\n")
        self.emitted += 1
        if (self.flush_every is not None
                and self.emitted % self.flush_every == 0):
            self.flush()

    def flush(self) -> None:
        """Push buffered lines to the OS now (no-op once closed)."""
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class WatchdogEvents:
    """The one subscriber that narrates a watchdog as telemetry events:
    ``detection``, ``task_fault`` and ``ecu_state_change`` records from
    its listeners, ``lint_warning`` records from its lint report.

    :meth:`attach` subscribes to one watchdog (the ECU path);
    :meth:`attach_table` subscribes once to a supervision table's
    ``(registration, event)`` listeners (the daemon path), and each
    record emitted there carries ``data["registration"]``.
    """

    __slots__ = ("sink",)

    def __init__(self, sink: TelemetrySink) -> None:
        self.sink = sink

    def attach(self, watchdog) -> None:
        """Emit the watchdog's lint warnings now, then narrate it.
        Attach before other subscribers to keep the stream's order
        (cause, effect, treatment)."""
        report = watchdog.lint_report
        for diagnostic in report.diagnostics if report is not None else ():
            self._emit(0, KIND_LINT_WARNING, watchdog.name, None, {
                "code": diagnostic.code,
                "severity": diagnostic.severity.value,
                "message": diagnostic.message,
            })
        watchdog.add_fault_listener(partial(self.detection, None))
        watchdog.add_task_fault_listener(partial(self.task_fault, None))
        watchdog.tsi.add_ecu_state_listener(
            partial(self.ecu_state_change, None, subject=watchdog.name))

    def attach_table(self, table) -> None:
        """Narrate every registration of a supervision table."""
        table.add_detection_listener(self.detection)
        table.add_task_fault_listener(self.task_fault)
        table.add_ecu_state_listener(self.ecu_state_change)

    def detection(self, registration: Optional[str], error) -> None:
        self._emit(error.time, KIND_DETECTION, error.runnable, registration, {
            "error_type": error.error_type.value,
            "task": error.task,
            "details": dict(error.details or {}),
        })

    def task_fault(self, registration: Optional[str], event) -> None:
        data = event.to_dict()
        self._emit(data.pop("time"), KIND_TASK_FAULT, data.pop("task"),
                   registration, data)

    def ecu_state_change(self, registration: Optional[str], change, *,
                         subject: Optional[str] = None) -> None:
        """A registration's state change names the registration; a
        watchdog's names the watchdog (``subject``)."""
        data = change.to_dict()
        self._emit(data.pop("time"), KIND_ECU_STATE_CHANGE,
                   registration if subject is None else subject,
                   registration, data)

    def _emit(self, time: int, kind: str, subject: str,
              registration: Optional[str], data: Dict[str, Any]) -> None:
        if registration is not None:
            data["registration"] = registration
        self.sink.emit(TelemetryEvent(time, kind, subject, data))


def read_jsonl(lines: Iterable[str]) -> List[TelemetryEvent]:
    """Parse an iterable of JSONL lines (blank lines skipped).

    A killed daemon leaves a crash-truncated final line; that one
    *trailing* partial line is tolerated and the intact prefix is
    returned.  A malformed line with more content after it is
    corruption and raises.
    """
    events: List[TelemetryEvent] = []
    pending: Optional[Exception] = None
    for line in lines:
        if not line.strip():
            continue
        if pending is not None:
            # The malformed line was not the trailing one after all.
            raise pending
        try:
            events.append(TelemetryEvent.from_jsonl(line))
        except (ValueError, KeyError, TypeError) as exc:
            pending = exc
    return events
