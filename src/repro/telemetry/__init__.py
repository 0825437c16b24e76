"""Telemetry: metrics instruments and structured event export.

The observability layer of the reproduction.  Every supervised
component — the HBM/PFC/TSI units, the service facade, the Fault
Management Framework, the campaign engine — accepts a ``telemetry=``
registry (metrics) and, where it narrates discrete occurrences, an
``event_sink=`` (structured events); a component's own tallies are
read at export time.  Both default to no-op twins
(:data:`NULL_REGISTRY` / :data:`NULL_SINK`) so an uninstrumented run
pays one dead attribute check per hot-path block; the overhead
benchmark (``benchmarks/test_bench_telemetry_overhead.py``) holds the
live registry within 1.15× of the null path.

Quickstart::

    from repro.telemetry import MetricsRegistry, InMemorySink
    from repro.validator import HilValidator

    registry, sink = MetricsRegistry(), InMemorySink()
    rig = HilValidator(telemetry=registry, event_sink=sink)
    rig.run(2_000_000)
    print(registry.render_prometheus())
    print(sink.kinds())
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
    NULL_SINK,
    NullSink,
    TelemetryEvent,
    TelemetrySink,
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
    "NULL_SINK",
    "NullRegistry",
    "NullSink",
    "Sample",
    "TelemetryEvent",
    "TelemetrySink",
    "read_jsonl",
    "rebase",
]
