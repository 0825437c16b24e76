"""Telemetry: metrics instruments and structured event export.

The observability layer of the reproduction.  Every supervised
component — the HBM/PFC/TSI units, the service facade, the Fault
Management Framework, the campaign engine — accepts a ``telemetry=``
registry (metrics), whose default no-op twin (:data:`NULL_REGISTRY`)
costs an uninstrumented run one dead attribute check per hot-path
block; a component's own tallies are read at export time.  The
overhead benchmark (``benchmarks/test_bench_telemetry_overhead.py``)
holds the live registry within 1.15× of the null path.

Structured events (detections, task faults, state changes, lint
warnings) leave the watchdog the way every report does: through its
listeners.  :class:`WatchdogEvents` is that subscriber.  The
integration facades take an ``event_sink=`` and attach it — ``Ecu``
(and the ``HilValidator`` built on it) to its watchdog, before the
FMF, whose treatments go to the same sink; ``SupervisionServer`` once
to its supervision table, so every daemon record names its
registration.  The watchdog itself has no sink, and a facade given
none (``event_sink=None``, the default) builds no event.

Quickstart::

    from repro.telemetry import MetricsRegistry, InMemorySink
    from repro.validator import HilValidator

    registry, sink = MetricsRegistry(), InMemorySink()
    rig = HilValidator(telemetry=registry, event_sink=sink)
    rig.run(2_000_000)
    print(registry.render_prometheus())
    print({event.kind for event in sink.events})
"""

from .events import (
    EVENT_SCHEMA_VERSION,
    KIND_DETECTION,
    KIND_ECU_STATE_CHANGE,
    KIND_LINT_WARNING,
    KIND_METRICS_SNAPSHOT,
    KIND_RESULT_ROW,
    KIND_RUN_COMPLETED,
    KIND_TASK_FAULT,
    KIND_TREATMENT,
    InMemorySink,
    JsonlFileSink,
    TelemetryEvent,
    TelemetrySink,
    WatchdogEvents,
    read_jsonl,
)
from .registry import (
    Counter,
    DEFAULT_DURATION_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    Sample,
    rebase,
)

__all__ = [
    "Counter",
    "DEFAULT_DURATION_BUCKETS",
    "EVENT_SCHEMA_VERSION",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "KIND_DETECTION",
    "KIND_ECU_STATE_CHANGE",
    "KIND_LINT_WARNING",
    "KIND_METRICS_SNAPSHOT",
    "KIND_RESULT_ROW",
    "KIND_RUN_COMPLETED",
    "KIND_TASK_FAULT",
    "KIND_TREATMENT",
    "JsonlFileSink",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "Sample",
    "TelemetryEvent",
    "TelemetrySink",
    "WatchdogEvents",
    "read_jsonl",
    "rebase",
]
