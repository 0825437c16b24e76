"""Zero-dependency metrics instruments and registry.

The watchdog's own behavior is observable only through the quantities it
chooses to export — the kernel :class:`~repro.kernel.tracing.Trace` is
ground truth the service deliberately never sees.  This module provides
the instruments that close that gap:

* :class:`Counter` — monotonically increasing event count,
* :class:`Gauge` — a value that is set, not counted (current states,
  table sizes, utilization),
* :class:`Histogram` — fixed-bucket distribution (durations, sizes)
  with Prometheus-style cumulative bucket exposition,
* :class:`MetricsRegistry` — the instrument factory and exporter
  (``render_prometheus()`` text exposition + ``snapshot()`` JSON dict),
* :class:`NullRegistry` — the no-op twin.  Every instrument it hands
  out is a shared do-nothing singleton, so instrumented code runs one
  dead method call per event and hot paths can gate entire measurement
  blocks on ``registry.enabled`` (``False`` here).  The telemetry
  overhead benchmark asserts the live registry stays within 1.15× of
  this null path.

Code that keeps its own tallies registers them as a *source*, read at
export time (:meth:`MetricsRegistry.add_source`), so the registry holds
no copy and observing never writes into the observed code.  Only what
no code keeps (timings, event counts) is pushed into get-or-create
instruments.  Label values are part of a series' identity
(``wd_detections_total{error_type="aliveness"}``); equal series from
several sources (a daemon's fleet) are summed.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from itertools import groupby
from operator import attrgetter
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple)

__all__ = [
    "Counter",
    "DEFAULT_DURATION_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "Sample",
    "rebase",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default buckets for wall-clock durations in seconds: 1 µs .. 10 s in
#: a 1-2.5-5 ladder, wide enough for both a single check cycle and a
#: whole campaign run.
DEFAULT_DURATION_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1,
    1.0, 2.5, 5.0, 10.0,
)

LabelsKey = Tuple[Tuple[str, str], ...]
#: What a source yields: ``(name, labels, value)``.
Sample = Tuple[str, LabelsKey, float]
Source = Callable[[], Iterable[Sample]]
#: A source's families: ``(name, kind, help)``, a counter or a gauge.
Families = Sequence[Tuple[str, str, str]]


def rebase(base: Tuple[int, ...], before: Tuple[int, ...],
           after: Tuple[int, ...]) -> Tuple[int, ...]:
    """The base keeping exported counters (``tally - base``) unchanged
    when tallies jump from ``before`` to ``after`` (a reset, a restore):
    counters stay monotonic and count only this process's work."""
    return tuple(b + a - p for b, p, a in zip(base, before, after))


def _freeze_labels(labels: Dict[str, str]) -> LabelsKey:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(labels: LabelsKey) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in labels)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


_name_of = attrgetter("name")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class Counter:
    """A monotonically increasing count of events."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelsKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount


class Gauge:
    """A value that is set, not counted (states, sizes, utilization)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelsKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket distribution of observed values.

    Buckets are cumulative upper bounds (Prometheus ``le`` semantics);
    an implicit ``+Inf`` bucket catches overflow.  Alongside the bucket
    counts the histogram tracks ``sum``, ``count``, ``minimum`` and
    ``maximum``, which bound the quantile estimates.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count",
                 "sum", "minimum", "maximum")

    def __init__(
        self,
        name: str,
        labels: LabelsKey = (),
        buckets: Sequence[float] = DEFAULT_DURATION_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be strictly increasing")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        #: Per-bound counts plus one trailing +Inf overflow slot.
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum: float = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation.  Bounds are inclusive upper limits
        (Prometheus ``le``), so a value equal to a bound lands in that
        bound's bucket — hence ``bisect_left``, not ``bisect_right``."""
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(le, cumulative count)`` pairs, ending with ``+Inf``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            running += bucket
            out.append((bound, running))
        out.append((math.inf, running + self.bucket_counts[-1]))
        return out


class _Reading:
    """A source's series as read (summed over sources): no ``inc`` or
    ``set``, since the source's own tally is the only copy."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelsKey, value: float) -> None:
        self.name = name
        self.labels = labels
        self.value = value


class MetricsRegistry:
    """Instrument factory plus Prometheus/JSON exporters."""

    enabled = True

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self) -> None:
        #: name → (kind, help text); one metric family per name.
        self._families: Dict[str, Tuple[str, str]] = {}
        #: Family creation order, for stable exposition output.
        self._order: List[str] = []
        #: (name, labels) → pushed instrument.
        self._instruments: Dict[Tuple[str, LabelsKey], Any] = {}
        #: The families sources report, and the sources (an ordered set).
        self._pulled: set = set()
        self._sources: Dict[Source, None] = {}

    # ------------------------------------------------------------------
    # instrument factories (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get_or_create("counter", name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get_or_create("gauge", name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_DURATION_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get_or_create(
            "histogram", name, help, labels, buckets=buckets
        )

    def _get_or_create(
        self,
        kind: str,
        name: str,
        help: str,
        labels: Dict[str, str],
        **extra: Any,
    ) -> Any:
        self._declare(kind, name, help)
        key = (name, _freeze_labels(labels))
        if name in self._pulled:
            # A source keeps this value: hand out a reading of it, never
            # a second, writable copy.
            return self.get(name, **labels) or _Reading(*key, 0)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._KINDS[kind](*key, **extra)
            self._instruments[key] = instrument
        return instrument

    def _declare(self, kind: str, name: str, help: str) -> None:
        """Create family ``name``, or check its kind and fill its help."""
        family = self._families.get(name)
        if family is None:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid metric name {name!r}")
            self._families[name] = (kind, help)
            self._order.append(name)
        elif family[0] != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {family[0]}, "
                f"cannot re-register as a {kind}"
            )
        elif help and not family[1]:
            self._families[name] = (kind, help)

    # ------------------------------------------------------------------
    # sources (read at export time)
    # ------------------------------------------------------------------
    def add_source(self, families: Families, collect: Source) -> None:
        """Read ``collect`` at every export.

        ``families`` declares the counter and gauge families it reports
        (no pushed instrument may join them); ``collect()`` yields
        ``(name, labels, value)`` samples, labels a key-sorted tuple of
        ``(label, value)`` string pairs.  Equal ``(name, labels)`` keys
        from several sources are summed.
        """
        for name, kind, help in families:
            self._declare(kind, name, help)
            self._pulled.add(name)
        self._sources[collect] = None

    def remove_source(self, collect: Source) -> None:
        """Stop reading ``collect`` (its owner is being discarded)."""
        self._sources.pop(collect, None)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def families(self) -> List[str]:
        """Declared metric family names, in creation order."""
        return list(self._order)

    def instruments(self, name: Optional[str] = None) -> List[Any]:
        """Every series (optionally of one family) in family creation
        order, label-sorted: the pushed instruments and a
        :class:`_Reading` per distinct source sample key."""
        pulled: Dict[Tuple[str, LabelsKey], float] = {}
        for collect in self._sources:
            for sample_name, labels, value in collect():
                key = (sample_name, labels)
                pulled[key] = pulled.get(key, 0) + value
        found = [*self._instruments.values(),
                 *(_Reading(*key, value) for key, value in pulled.items())]
        rank = {family: index for index, family in enumerate(self._order)}
        found.sort(key=lambda series: (rank[series.name], series.labels))
        return found if name is None else [
            series for series in found if series.name == name]

    def get(self, name: str, **labels: str) -> Optional[Any]:
        """An existing series, or ``None`` (never creates)."""
        key = _freeze_labels(labels)
        return next((series for series in self.instruments(name)
                     if series.labels == key), None)

    def value(self, name: str, **labels: str) -> Optional[float]:
        """Shortcut: the scalar value of a counter/gauge, or ``None``."""
        instrument = self.get(name, **labels)
        return None if instrument is None else instrument.value

    # ------------------------------------------------------------------
    # exporters
    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        """Prometheus text exposition (format 0.0.4) of every series."""
        lines: List[str] = []
        for name, family in groupby(self.instruments(), _name_of):
            kind, help_text = self._families[name]
            if help_text:
                lines.append(f"# HELP {name} {_escape(help_text)}")
            lines.append(f"# TYPE {name} {kind}")
            for instrument in family:
                labels = instrument.labels
                if kind == "histogram":
                    for le, cumulative in instrument.cumulative_buckets():
                        bucket_labels = labels + (("le", _format_value(le)),)
                        lines.append(
                            f"{name}_bucket{_render_labels(bucket_labels)} "
                            f"{cumulative}"
                        )
                    lines.append(
                        f"{name}_sum{_render_labels(labels)} "
                        f"{_format_value(instrument.sum)}"
                    )
                    lines.append(
                        f"{name}_count{_render_labels(labels)} "
                        f"{instrument.count}"
                    )
                else:
                    lines.append(
                        f"{name}{_render_labels(labels)} "
                        f"{_format_value(instrument.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of every series."""
        families: List[Dict[str, Any]] = []
        for name, family in groupby(self.instruments(), _name_of):
            kind, help_text = self._families[name]
            series: List[Dict[str, Any]] = []
            for instrument in family:
                entry: Dict[str, Any] = {"labels": dict(instrument.labels)}
                if kind == "histogram":
                    entry.update(
                        count=instrument.count,
                        sum=instrument.sum,
                        min=instrument.minimum,
                        max=instrument.maximum,
                        buckets=[
                            {"le": ("+Inf" if le == math.inf else le),
                             "count": cumulative}
                            for le, cumulative in
                            instrument.cumulative_buckets()
                        ],
                    )
                else:
                    entry["value"] = instrument.value
                series.append(entry)
            families.append(
                {"name": name, "type": kind, "help": help_text,
                 "series": series}
            )
        return {"metrics": families}

    def render_json(self, indent: Optional[int] = 2) -> str:
        """The :meth:`snapshot` dict rendered as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent)


class _NullInstrument:
    """Shared do-nothing stand-in for every instrument kind."""

    __slots__ = ()
    name = ""
    labels: LabelsKey = ()
    value = 0
    count = 0
    sum = 0.0
    minimum = None
    maximum = None

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """No-op twin of :class:`MetricsRegistry`'s instrument factories.

    ``enabled`` is ``False`` so hot paths can skip whole measurement
    blocks (``perf_counter`` calls) with one attribute check; sources
    are never read, so registering one is a no-op; instrument handles
    are a shared singleton whose methods do nothing, so straight-line
    instrumentation needs no branching.
    """

    enabled = False

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_DURATION_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def add_source(self, families: Families, collect: Source) -> None:
        pass

    def remove_source(self, collect: Source) -> None:
        pass


#: Shared process-wide null registry — the default for every
#: ``telemetry=`` knob.  Stateless, so sharing is safe.
NULL_REGISTRY = NullRegistry()
