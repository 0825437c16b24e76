"""Run specs and the one run implementation of injection campaigns.

A run is fully described by a :class:`RunSpec`: ``(system, fault,
warmup, observation, transient_duration, seed)``.  :func:`execute_run`
is the only code that runs one; :func:`execute_chunk` runs a batch and
times each run.  ``Campaign.execute`` builds one spec per fault and
hands chunks of them to :func:`execute_chunk`, in this process or in a
worker, so serial and parallel campaigns run the same code.  Every run
seeds ``random`` with its spec's seed (the campaign seed plus the run's
index) before it builds its system.

The ``system`` and ``fault`` of a spec may be any callables — a
``SystemFactory`` and a ``FaultFactory`` closure — as long as the run
stays in this process.  Closures cannot cross a process boundary, so a
run that goes to a worker needs **named** factories.  This module keeps
two registries of them,

* **system builders** — ``name -> (**params) -> CampaignSystem`` —
  registered by the experiment modules (``coverage``, ``latency``) and
  by applications that want their systems campaign-able,
* **fault builders** — ``name -> (system, **params) -> FaultModel`` —
  one per catalogue class in :mod:`repro.faults.models`, registered
  below,

and :class:`SystemSpec` / :class:`FaultSpec` name one entry with its
parameters.  Both are picklable and callable with the factory
signatures, so a spec built from them is reconstructed verbatim inside
a worker process.

Builtin specs resolve in any worker (the registry lazily imports their
provider modules).  Custom registrations travel to workers via fork on
POSIX; under a ``spawn`` start method, perform the registration at
import time of a module the worker also imports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import models as _models
from .injector import ErrorInjector

#: ``(**params) -> CampaignSystem``
SystemBuilder = Callable[..., Any]
#: ``(system, **params) -> FaultModel``
FaultBuilder = Callable[..., Any]

_SYSTEM_BUILDERS: Dict[str, SystemBuilder] = {}
_FAULT_BUILDERS: Dict[str, FaultBuilder] = {}

#: Modules that register the builtin system builders on import.  Looked
#: up lazily (inside :func:`_ensure_builtins`) so a freshly forked or
#: spawned worker resolves ``SystemSpec("coverage")`` without the parent
#: having to pre-import anything.
_BUILTIN_PROVIDERS = (
    "repro.experiments.coverage",
    "repro.experiments.latency",
)
_builtins_loaded = False


def _ensure_builtins() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    import importlib

    for module in _BUILTIN_PROVIDERS:
        importlib.import_module(module)


def register_system(name: str, builder: Optional[SystemBuilder] = None):
    """Register a named system builder (usable as a decorator)."""

    def _register(fn: SystemBuilder) -> SystemBuilder:
        _SYSTEM_BUILDERS[name] = fn
        return fn

    return _register if builder is None else _register(builder)


def register_fault(name: str, builder: Optional[FaultBuilder] = None):
    """Register a named fault builder (usable as a decorator)."""

    def _register(fn: FaultBuilder) -> FaultBuilder:
        _FAULT_BUILDERS[name] = fn
        return fn

    return _register if builder is None else _register(builder)


def registered_systems() -> List[str]:
    _ensure_builtins()
    return sorted(_SYSTEM_BUILDERS)


def registered_faults() -> List[str]:
    _ensure_builtins()
    return sorted(_FAULT_BUILDERS)


def _freeze_params(params: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class SystemSpec:
    """A named, parameterized system factory — picklable."""

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, name: str, **params: Any) -> "SystemSpec":
        return cls(name, _freeze_params(params))

    def build(self):
        _ensure_builtins()
        try:
            builder = _SYSTEM_BUILDERS[self.name]
        except KeyError:
            raise KeyError(
                f"unknown system spec {self.name!r}; registered: "
                f"{registered_systems()}"
            ) from None
        return builder(**dict(self.params))

    # A SystemSpec is directly usable as a ``SystemFactory``.
    def __call__(self):
        return self.build()


@dataclass(frozen=True)
class FaultSpec:
    """A named, parameterized fault factory — picklable.

    Callable with the ``FaultFactory`` signature (``system ->
    FaultModel``), so a list of specs drops into ``Campaign.execute``
    wherever a list of closures does.
    """

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, name: str, **params: Any) -> "FaultSpec":
        return cls(name, _freeze_params(params))

    def build(self, system):
        _ensure_builtins()
        try:
            builder = _FAULT_BUILDERS[self.name]
        except KeyError:
            raise KeyError(
                f"unknown fault spec {self.name!r}; registered: "
                f"{registered_faults()}"
            ) from None
        return builder(system, **dict(self.params))

    def __call__(self, system):
        return self.build(system)


@dataclass(frozen=True)
class RunSpec:
    """One injection experiment.

    ``system`` is a ``SystemFactory`` and ``fault`` a ``FaultFactory``.
    With a :class:`SystemSpec` and a :class:`FaultSpec` the spec is
    picklable and may run in a worker process; with closures it runs
    in this process only.
    """

    system: Callable[[], Any]
    fault: Callable[[Any], Any]
    warmup: int
    observation: int
    transient_duration: Optional[int] = None
    seed: int = 0


def execute_run(spec: RunSpec):
    """Run one experiment: build, warm up, inject, observe, collect.

    The seed pins ``random`` before the system is built; today's
    builders are deterministic, but a stochastic builder (e.g. a CAN
    bus with corruption probability) stays reproducible per run.
    """
    from .campaigns import RunResult

    random.seed(spec.seed)
    system = spec.system()
    system.run_until(spec.warmup)
    fault = spec.fault(system)
    inject_time = system.now()
    ErrorInjector(system.target).inject_now(fault)
    if spec.transient_duration is not None:
        system.target.kernel.queue.schedule(
            inject_time + spec.transient_duration,
            lambda: fault.restore(system.target),
            label=f"restore:{fault.name}",
            persistent=True,
        )
    system.run_until(inject_time + spec.observation)
    return RunResult(
        fault_name=fault.name,
        fault_class=type(fault).__name__,
        expected_error=fault.expected_error,
        inject_time=inject_time,
        detections={
            det.name: det.first_detection_after(inject_time)
            for det in system.detectors
        },
    )


def execute_chunk(specs: Sequence[RunSpec]):
    """Run a batch of specs; the worker entry point.

    Returns ``(runs, durations)`` with ``durations[i]`` the wall-clock
    seconds of ``specs[i]``.  Chunking amortizes pickling and
    interpreter scheduling over many runs; a campaign of hundreds of
    10 ms-scale simulations would otherwise spend a visible fraction of
    its wall clock on dispatch.
    """
    runs = []
    durations = []
    for spec in specs:
        begin = perf_counter()
        runs.append(execute_run(spec))
        durations.append(perf_counter() - begin)
    return runs, durations


# ---------------------------------------------------------------------------
# Builtin fault builders: one per catalogue class (§4.5).  Builders take
# the freshly built system first so faults that need system handles
# (like the coverage campaign's runaway-task fault) fit the same shape.
# ---------------------------------------------------------------------------

register_fault(
    "blocked",
    lambda system, runnable: _models.BlockedRunnableFault(runnable),
)
register_fault(
    "time_scalar",
    lambda system, task, scalar: _models.TimeScalarFault(task, scalar),
)
register_fault(
    "loop_count",
    lambda system, runnable, repeat=3: _models.LoopCountFault(runnable, repeat),
)
register_fault(
    "skip",
    lambda system, chart, skipped: _models.SkipRunnableFault(chart, skipped),
)
register_fault(
    "invalid_branch",
    lambda system, chart, at_step, branch_to: _models.InvalidBranchFault(
        chart, at_step, branch_to
    ),
)
register_fault(
    "hb_corrupt",
    lambda system, runnable, reported_as: _models.HeartbeatCorruptionFault(
        runnable, reported_as
    ),
)
