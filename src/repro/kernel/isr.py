"""Interrupt service routines for the simulated kernel.

ISRs model category-2 OSEK interrupts: they run above every task
priority, may call a restricted set of system services (ActivateTask,
alarm manipulation) and — when given a nonzero duration — steal CPU
time from whichever task was running, pushing that task's segment
completion out.  This "time theft" model is how interrupt load
perturbs application timing in the simulation, which matters for
arrival-rate and aliveness experiments under bus load.
"""

from __future__ import annotations

from typing import Callable, Dict

from .errors import KernelConfigError
from .events import ScheduledEvent
from .scheduler import Kernel
from .tracing import TraceKind


class Isr:
    """A category-2 interrupt service routine."""

    def __init__(
        self,
        name: str,
        kernel: Kernel,
        handler: Callable[[], None],
        *,
        duration: int = 0,
    ) -> None:
        if duration < 0:
            raise KernelConfigError(f"isr {name!r}: duration must be >= 0")
        self.name = name
        self.kernel = kernel
        self.handler = handler
        self.duration = duration
        self.fire_count = 0

    # ------------------------------------------------------------------
    def fire(self) -> None:
        """Execute the ISR now (kernel context)."""
        kernel = self.kernel
        kernel.trace.record(kernel.clock.now, TraceKind.ISR_ENTER, self.name)
        self.fire_count += 1
        if self.duration > 0 and kernel.running is not None:
            running = kernel.running
            if running.current_segment is not None:
                # The interrupted task loses `duration` ticks of CPU: its
                # current segment takes that much longer to complete.
                running.segment_remaining += self.duration
        self.handler()
        kernel.trace.record(kernel.clock.now, TraceKind.ISR_EXIT, self.name)

    def schedule_at(self, when: int) -> ScheduledEvent:
        """Raise the interrupt at absolute tick ``when``."""
        return self.kernel.queue.schedule(when, self.fire, label=f"isr:{self.name}")


class InterruptController:
    """Registry of the ISRs of one simulated ECU."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.isrs: Dict[str, Isr] = {}

    def register(
        self, name: str, handler: Callable[[], None], *, duration: int = 0
    ) -> Isr:
        """Create and register a new ISR."""
        if name in self.isrs:
            raise KernelConfigError(f"duplicate isr name {name!r}")
        isr = Isr(name, self.kernel, handler, duration=duration)
        self.isrs[name] = isr
        return isr

    def get(self, name: str) -> Isr:
        return self.isrs[name]
