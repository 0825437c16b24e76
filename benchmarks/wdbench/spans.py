"""Layer spans for the traced wdbench run, recorded from outside ``src/``.

:class:`SpanRecorder` wraps public functions at class or module level.
Each wrapped call is a span: name, start, end, parent and thread.  The
span stack is per thread, so a snapshot written on the daemon's worker
thread is attributed to that thread, not to whatever the event loop is
running meanwhile.  Self time — a span's duration minus the time its
child spans cover — is computed as spans close: each closing span adds
its duration to its parent's child total.

Per-indication and per-frame names (heartbeats, decode, encode, the
per-registration check cycle) run tens of thousands of times a second;
keeping one record per call would distort the daemon being measured, so
those are *aggregated* inside the wrapper as count, total and self
time.  Every other name keeps individual records for percentiles.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List

#: Indexes into an aggregate entry.
COUNT, TOTAL, SELF = 0, 1, 2


class SpanRecorder:
    """In-memory spans, aggregates and call tallies."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: ``[name, start, end, self, parent, thread]`` per closed span.
        self.records: List[list] = []
        #: ``name -> [count, total seconds, self seconds]``.
        self.aggregates: Dict[str, List[float]] = {}
        #: ``name -> count`` of plain tallies (no timing).
        self.tallies: Dict[str, int] = {}
        self._local = threading.local()
        self._dumps = 0

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, fn: Callable, name: str, *,
             aggregate: bool = False) -> Callable:
        """Return ``fn`` wrapped as a span called ``name``."""
        clock = self.clock
        stack_of = self._stack
        if aggregate:
            entry = self.aggregates.setdefault(name, [0, 0.0, 0.0])

            def aggregated(*args: Any, **kwargs: Any) -> Any:
                stack = stack_of()
                frame = [0.0, name]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += duration
                    entry[COUNT] += 1
                    entry[TOTAL] += duration
                    entry[SELF] += duration - frame[0]

            return aggregated

        records = self.records

        def recorded(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent = None
                if stack:
                    stack[-1][0] += duration
                    parent = stack[-1][1]
                records.append([name, start, end, duration - frame[0], parent,
                                threading.current_thread().name])

        return recorded

    def tally(self, fn: Callable, name: str) -> Callable:
        """Return ``fn`` wrapped to count its calls (no span)."""
        tallies = self.tallies
        tallies.setdefault(name, 0)

        def counted(*args: Any, **kwargs: Any) -> Any:
            tallies[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner: Any, attr: str, name: str, *,
              aggregate: bool = False) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name,
                                       aggregate=aggregate))

    def take(self) -> Dict[str, Any]:
        """Everything recorded so far, then reset (aggregate entries are
        zeroed in place: live wrappers hold them)."""
        # Slicing by a fixed length keeps a record the snapshot worker
        # thread appends meanwhile for the next take().
        closed = len(self.records)
        out = {
            "records": self.records[:closed],
            "aggregates": {k: list(v) for k, v in self.aggregates.items()},
            "tallies": dict(self.tallies),
        }
        del self.records[:closed]
        for entry in self.aggregates.values():
            entry[:] = [0, 0.0, 0.0]
        for key in self.tallies:
            self.tallies[key] = 0
        return out

    def dump(self, prefix: str) -> str:
        """Write :meth:`take` to ``<prefix>.<n>.json`` atomically."""
        self._dumps += 1
        path = f"{prefix}.{self._dumps}.json"
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(self.take(), handle)
        os.replace(path + ".tmp", path)
        return path


def install_daemon_spans(recorder: SpanRecorder) -> None:
    """Wrap the daemon's layers (see README.md for the layer map)."""
    import repro.lint
    from repro.core.watchdog import SoftwareWatchdog
    from repro.service import fleet, persistence, protocol, server, supervisor
    from repro.telemetry.registry import Counter

    original_feed = protocol.FrameDecoder.feed
    tallies = recorder.tallies
    tallies.update({"protocol.feed.bytes": 0, "protocol.feed.frames": 0})

    def feed(decoder, chunk):
        frames = original_feed(decoder, chunk)
        tallies["protocol.feed.bytes"] += len(chunk)
        tallies["protocol.feed.frames"] += len(frames)
        return frames

    protocol.FrameDecoder.feed = recorder.wrap(feed, "protocol.feed",
                                               aggregate=True)
    # server.py imported encode_frame by name: patch both references.
    encode = recorder.wrap(protocol.encode_frame, "protocol.encode",
                           aggregate=True)
    protocol.encode_frame = encode
    server.encode_frame = encode
    for owner, attr, name, aggregate in (
        (server.SupervisionServer, "tick", "server.tick", False),
        (supervisor.SupervisorShard, "heartbeat", "supervisor.heartbeat", True),
        (supervisor.SupervisorShard, "register", "supervisor.register", False),
        (supervisor.SupervisorShard, "tick", "supervisor.tick", False),
        (SoftwareWatchdog, "heartbeat_indication", "watchdog.heartbeat", True),
        (SoftwareWatchdog, "check_cycle", "watchdog.check_cycle", True),
        (fleet.Fleet, "tick", "fleet.tick", False),
        (fleet.Fleet, "snapshot", "fleet.snapshot", False),
        (fleet.Fleet, "restore", "fleet.restore", False),
        # SupervisorShard._lint imports lint_hypothesis at call time.
        (repro.lint, "lint_hypothesis", "lint.lint_hypothesis", False),
        (supervisor, "hypothesis_from_dict", "config_io.hypothesis_from_dict",
         False),
        (persistence.StateStore, "append", "persistence.append", False),
        (persistence.StateStore, "write_snapshot_payload",
         "persistence.write_snapshot_payload", False),
        (persistence.StateStore, "truncate_journal_through",
         "persistence.truncate_journal_through", False),
        (persistence.StateStore, "load", "persistence.load", False),
    ):
        recorder.patch(owner, attr, name, aggregate=aggregate)
    Counter.inc = recorder.tally(Counter.inc, "telemetry.inc")


def install_client_spans(recorder: SpanRecorder, client: Any) -> None:
    """Wrap one SDK client's hot path (generator side, traced run only;
    the instance attributes shadow the class's methods, and ``heartbeat``
    reaches ``flush`` through ``self``)."""
    recorder.patch(client, "heartbeat", "client.heartbeat", aggregate=True)
    recorder.patch(client, "flush", "client.flush", aggregate=True)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def merge(dumps: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine several :meth:`SpanRecorder.take` results."""
    out: Dict[str, Any] = {"records": [], "aggregates": {}, "tallies": {}}
    for dump in dumps:
        out["records"].extend(dump["records"])
        for name, entry in dump["aggregates"].items():
            acc = out["aggregates"].setdefault(name, [0, 0.0, 0.0])
            for i in (COUNT, TOTAL, SELF):
                acc[i] += entry[i]
        for name, count in dump["tallies"].items():
            out["tallies"][name] = out["tallies"].get(name, 0) + count
    return out


def durations(dump: Dict[str, Any], name: str) -> List[float]:
    return [r[2] - r[1] for r in dump["records"] if r[0] == name]


def self_times(dump: Dict[str, Any], name: str) -> List[float]:
    return [r[3] for r in dump["records"] if r[0] == name]


def total_self(dump: Dict[str, Any]) -> float:
    """Σ self time over every span: the time the spans explain (self
    times partition each thread's top-level span time)."""
    return (sum(r[3] for r in dump["records"])
            + sum(e[SELF] for e in dump["aggregates"].values()))


def coverage(dump: Dict[str, Any], cpu_s: float) -> float:
    """``trace.coverage``: Σ span self time ÷ traced daemon CPU."""
    return total_self(dump) / cpu_s


def overhead(traced_us_per_ind: float, untraced_us_per_ind: float) -> float:
    """``trace.overhead``: what tracing adds to the daemon's cost."""
    return traced_us_per_ind / untraced_us_per_ind - 1.0
