"""ControlDesk-style experiment environment.

"The experiment environment ControlDesk from dSPACE provides the
possibility to manipulate the data assigned to the timing parameter of
runnables [and] the condition that determine the invalid execution
branches in the runtime.  Therefore, it is used to trigger the error
injection during the execution of the applications and visualize the
results as well." (§4.5)

This module reproduces those two capabilities against the simulation:

* :class:`ParameterStore` — named runtime parameters (sliders) bound to
  arbitrary setters,
* :class:`Capture` — periodic sampling of named probes into time series
  (the paper's plots sample with "a scalar of 10 ms"), rendered by
  :mod:`repro.analysis.plots`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from ..kernel.clock import ms
from ..kernel.scheduler import Kernel

Getter = Callable[[], float]
Setter = Callable[[float], None]


@dataclass
class Parameter:
    """One runtime-tunable parameter (a ControlDesk instrument)."""

    name: str
    setter: Setter
    description: str = ""


class ParameterStore:
    """Registry of runtime parameters and a log of every slider move."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self._parameters: Dict[str, Parameter] = {}
        self.change_log: List[tuple] = []

    # ------------------------------------------------------------------
    def register(
        self, name: str, setter: Setter, description: str = ""
    ) -> Parameter:
        """Expose a parameter."""
        if name in self._parameters:
            raise ValueError(f"duplicate parameter {name!r}")
        parameter = Parameter(name, setter, description)
        self._parameters[name] = parameter
        return parameter

    def get(self, name: str) -> Parameter:
        parameter = self._parameters.get(name)
        if parameter is None:
            raise KeyError(f"unknown parameter {name!r}")
        return parameter

    # ------------------------------------------------------------------
    def set_now(self, name: str, value: float) -> None:
        """Move a slider immediately."""
        self.get(name).setter(value)
        self.change_log.append((self.kernel.clock.now, name, value))


@dataclass
class CapturedSeries:
    """One captured probe."""

    name: str
    times: List[int] = field(default_factory=list)
    values: List[float] = field(default_factory=list)


class Capture:
    """Periodic sampling of named probes (a ControlDesk capture layout)."""

    def __init__(self, kernel: Kernel, *, sample_period: int = ms(10)) -> None:
        if sample_period <= 0:
            raise ValueError("sample_period must be > 0")
        self.kernel = kernel
        self.sample_period = sample_period
        self._probes: Dict[str, Getter] = {}
        self.series: Dict[str, CapturedSeries] = {}
        self._running = False

    # ------------------------------------------------------------------
    def add_probe(self, name: str, getter: Getter) -> None:
        """Add a probe sampled at every capture tick."""
        if name in self._probes:
            raise ValueError(f"duplicate probe {name!r}")
        self._probes[name] = getter
        self.series[name] = CapturedSeries(name)

    def start(self) -> None:
        """Begin sampling at the configured period."""
        if self._running:
            return
        self._running = True
        self._schedule_next()

    # ------------------------------------------------------------------
    def _schedule_next(self) -> None:
        self.kernel.queue.schedule(
            self.kernel.clock.now + self.sample_period, self._sample,
            label="capture", persistent=True
        )

    def _sample(self) -> None:
        now = self.kernel.clock.now
        for name, getter in self._probes.items():
            series = self.series[name]
            series.times.append(now)
            series.values.append(float(getter()))
        self._schedule_next()

    # ------------------------------------------------------------------
    def get(self, name: str) -> CapturedSeries:
        series = self.series.get(name)
        if series is None:
            raise KeyError(f"unknown probe {name!r}")
        return series
