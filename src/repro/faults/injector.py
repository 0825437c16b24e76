"""Error injector: schedules fault activation/restoration at runtime.

The paper triggers error injection from ControlDesk "during the
execution of the applications" — i.e. at chosen instants of a running
experiment.  :class:`ErrorInjector` provides that: faults are armed at
absolute simulation times, optionally restored later (transient faults),
and every action is logged both in the kernel trace and in the
injector's own campaign log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .models import FaultModel, FaultTarget


@dataclass
class InjectionRecord:
    """Bookkeeping for one scheduled injection."""

    fault: FaultModel
    inject_time: int
    restore_time: Optional[int]


class ErrorInjector:
    """Schedules and tracks fault injections against one target system."""

    def __init__(self, target: FaultTarget) -> None:
        self.target = target
        self.records: List[InjectionRecord] = []

    # ------------------------------------------------------------------
    def inject_now(self, fault: FaultModel) -> InjectionRecord:
        """Activate a fault immediately."""
        fault.inject(self.target)
        record = InjectionRecord(
            fault=fault, inject_time=self.target.kernel.clock.now, restore_time=None
        )
        self.records.append(record)
        return record

    def inject_at(
        self,
        when: int,
        fault: FaultModel,
        *,
        restore_at: Optional[int] = None,
    ) -> InjectionRecord:
        """Schedule activation at an absolute time; optionally schedule
        automatic restoration (transient fault)."""
        if restore_at is not None and restore_at <= when:
            raise ValueError("restore_at must be after the injection time")
        record = InjectionRecord(fault=fault, inject_time=when, restore_time=restore_at)
        self.records.append(record)
        self.target.kernel.queue.schedule(
            when, lambda: fault.inject(self.target), label=f"inject:{fault.name}", persistent=True
        )
        if restore_at is not None:
            self.target.kernel.queue.schedule(
                restore_at,
                lambda: fault.restore(self.target),
                label=f"restore:{fault.name}",
                persistent=True,
            )
        return record

    def restore_now(self, fault: FaultModel) -> None:
        """Deactivate a fault immediately."""
        fault.restore(self.target)
        for record in self.records:
            if record.fault is fault and record.restore_time is None:
                record.restore_time = self.target.kernel.clock.now

    def restore_all(self) -> None:
        """Deactivate every active fault."""
        for record in self.records:
            if record.fault.active:
                self.restore_now(record.fault)

    # ------------------------------------------------------------------
