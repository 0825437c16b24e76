"""The asyncio supervision daemon.

Transport only: every supervision decision is made by the synchronous
core (:mod:`repro.service.supervisor` / :mod:`repro.service.fleet`);
this module moves frames.  Its push channels subscribe once to the
fleet's table-level events (:meth:`SupervisionServer._new_fleet`), and
a server recovers its state directory through one path
(:meth:`SupervisionServer._recover`) as it starts: failover is a
restart on the same directory.  Three design rules keep the daemon a
dependability service rather than a liability:

* **misbehaving clients cannot hurt the server** — a malformed payload
  is rejected with an error ACK and the connection survives (only
  corrupt *framing* closes it); an unannounced disconnect simply stops
  the heartbeat stream, which the watchdog reports as missed
  heartbeats — the service degrades into exactly the detection it
  exists to produce; a peer that stops reading is aborted once its
  unsent output passes ``_MAX_PENDING_BYTES``, and counts as such a
  disconnect;
* **overload is pushed back, not queued** — each wire connection is
  an :class:`asyncio.BufferedProtocol`: the transport reads at most
  ``_READ_SIZE`` bytes into one reused buffer, and the callback that
  reports them decodes the frames and applies their indications to the
  supervision table before it returns.  A connection's next chunk is
  therefore read only after the previous one has been applied, and
  TCP flow control stalls a sender that outruns the daemon; the only
  place that drops indications is the SDK's bounded buffer, oldest
  first and counted in ``client.dropped``;
* **the check cycle is real time** — a ticker task drives
  ``fleet.tick()`` on a fixed wall-clock period, accounting every
  overrun in ``missed_ticks``; tests pass ``tick_interval=None`` and
  call :meth:`SupervisionServer.tick` themselves for determinism.

The daemon also serves HTTP ``GET /metrics`` (Prometheus text
exposition of the shared :class:`~repro.telemetry.MetricsRegistry`) and
``GET /healthz`` (a JSON health summary) from a tiny built-in HTTP/1.0
responder — no web framework, no dependency.  Every ``service_*`` count
is a plain integer on the server, read at export (``_metrics``); only
the check-cycle duration histogram is pushed.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import time as _time
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from ..core.reports import EcuStateChange, RunnableError, TaskFaultEvent
from ..telemetry import (
    MetricsRegistry, Sample, TelemetryEvent, WatchdogEvents,
)
from .fleet import Fleet
from .persistence import (
    JOURNAL_ACTIVATION,
    JOURNAL_BYE,
    JOURNAL_REGISTER,
    StateDirHeld,
    StateStore,
)
from .protocol import (
    FatalProtocolError,
    Frame,
    FrameDecoder,
    ProtocolError,
    T_ACK,
    T_BYE,
    T_DETECTION,
    T_FLOW,
    T_HEARTBEAT,
    T_HELLO,
    T_REGISTER,
    T_STATE,
    encode_frame,
)
from .supervisor import RegistrationError

__all__ = ["SupervisionServer"]

#: Bytes per socket read, which bounds how long one chunk holds the
#: event loop (the ticker can wait behind two chunks).  Measured on a
#: 2-core Xeon, Python 3.11.7, with a 20k-indication backlog: at 64 KiB
#: one chunk took up to 9 ms to apply in 16-indication frames and 38 ms
#: in 1-indication frames; at 8 KiB, 1.3 ms and 2.2 ms.
_READ_SIZE = 8 * 1024
#: How long an HTTP connection answered 431 may keep sending before it
#: is closed regardless.
_HTTP_DISCARD_S = 1.0
#: Unsent bytes the daemon holds for one connection before it aborts
#: it: a peer that stopped reading must not grow the daemon without
#: bound.  Measured one-cycle burst at 1000 four-runnable registrations
#: with every runnable detecting in the same cycle: 608 KB of DETECTION
#: frames (152 B each) to a ``watch=true`` peer, and up to 950 KB with
#: the STATE frames to the registrations' owner.  4 MiB is about four
#: such cycles, on top of what the kernel's socket buffers hold.
_MAX_PENDING_BYTES = 4 * 1024 * 1024
#: How long closing a connection may wait for its unsent bytes to
#: flush before the transport is aborted.
_CLOSE_FLUSH_S = 1.0
#: Registration records a periodic snapshot encodes per event-loop turn.
#: Measured on a 2-core Xeon, Python 3.11.7, at 2000 four-runnable
#: registrations (``benchmarks/test_bench_snapshot.py``): a record
#: costs 70-90 us to build and encode, and the longest slice took
#: 1.5-3 ms at 16 records, 3.5-4.5 ms at 32 and 5.5-8 ms at 64, while
#: the snapshot's total on-loop time did not depend on the slice size.
_SNAPSHOT_SLICE = 16

#: The daemon's own tallies, read at export time (``_metrics``).
_TM_FAMILIES = (
    ("service_connections", "gauge", "Currently open client connections"),
    ("service_registrations", "gauge", "Registered (ever-seen) hypotheses"),
    ("service_missed_ticks_total", "counter",
     "Check cycles the real-time ticker could not run on schedule"),
    ("service_pushes_dropped_total", "counter",
     "DETECTION/STATE pushes dropped because no client was bound"),
    ("service_handler_errors_total", "counter",
     "Indications and registration check cycles whose handler raised "
     "(isolated: the rest of the frame, and the other registrations' "
     "cycles, still run)"),
    ("service_snapshots_total", "counter",
     "Point-in-time state snapshots written to the state dir"),
    ("service_snapshot_failures_total", "counter",
     "Periodic snapshot attempts that failed (the loop retries next "
     "interval)"),
    ("service_frames_total", "counter", "Decoded protocol frames by type"),
    ("service_malformed_frames_total", "counter",
     "Frames rejected by the wire-protocol decoder, and HTTP requests "
     "with an oversized line"),
    ("service_indications_total", "counter",
     "Heartbeat and flow indications applied to the supervision table"),
    ("service_unknown_registration_total", "counter",
     "Indications naming a registration the fleet does not know"),
    ("service_disconnects_total", "counter",
     "Client disconnects by goodbye discipline"),
    ("service_journal_records_total", "counter",
     "State-changing frames appended to the durable journal"),
    ("service_overflow_aborts_total", "counter",
     "Connections aborted because their unsent output passed the "
     "per-connection cap (a peer that stopped reading)"),
    ("service_register_rebinds_total", "counter",
     "REGISTERs that rebound an existing registration (reconnect "
     "replay) instead of creating one"),
)


class _Connection(asyncio.BufferedProtocol):
    """One wire connection: the protocol its transport feeds, and its
    state (the bound registrations, the watch flag).

    The transport reads into the server's one ``_READ_SIZE`` buffer and
    calls :meth:`buffer_updated`, which decodes and dispatches the chunk
    before it returns: one loop callback per chunk, and the socket is
    not read again until the chunk has been applied (design rule 2).
    """

    _ids = 0

    def __init__(self, server: "SupervisionServer") -> None:
        _Connection._ids += 1
        self.id = _Connection._ids
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.decoder = FrameDecoder()
        self.client_name: Optional[str] = None
        self.registrations: Set[str] = set()
        self.watching = False
        self.said_bye = False
        self.closed = False
        #: Resolved when the transport is gone (flushed or aborted).
        self.lost = server._loop.create_future()
        self._abort_timer: Optional[asyncio.TimerHandle] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self.server._connection_made(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.server._read_buffer

    def buffer_updated(self, nbytes: int) -> None:
        self.server._receive(self, self.server._read_buffer[:nbytes])

    def eof_received(self) -> None:
        self.server._close(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if self._abort_timer is not None:
            self._abort_timer.cancel()
        self.lost.set_result(None)
        self.server._connection_lost(self)


class SupervisionServer:
    """The live supervision daemon (TCP and/or UNIX socket + HTTP)."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        unix_path: Optional[str] = None,
        http_port: Optional[int] = None,
        strict: bool = False,
        tick_interval: Optional[float] = 0.01,
        telemetry: Optional[MetricsRegistry] = None,
        event_sink=None,
        name: str = "repro-supervisord",
        state_dir: Optional[str] = None,
        snapshot_interval: Optional[float] = 5.0,
        fsync: bool = False,
    ) -> None:
        if port is None and unix_path is None:
            raise ValueError("need a TCP port and/or a UNIX socket path")
        if tick_interval is not None and not tick_interval > 0:
            # The ticker would die on ``late // period`` and leave a
            # daemon that acks heartbeats but never runs a check cycle.
            raise ValueError("tick_interval must be positive or None")
        if snapshot_interval is not None and snapshot_interval <= 0:
            raise ValueError("snapshot_interval must be positive or None")
        self.name = name
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.http_port = http_port
        self.tick_interval = tick_interval
        self.telemetry = telemetry if telemetry is not None else MetricsRegistry()
        self.event_sink = event_sink
        self._strict = strict
        self.fleet = self._new_fleet()
        self._conn_of: Dict[str, _Connection] = {}
        #: Live connections (pushes go to these).
        self._connections: Set[_Connection] = set()
        #: Released connections whose transport is still flushing.
        self._closing: Set[_Connection] = set()
        #: The one receive buffer every connection reads into: a chunk
        #: is applied before its ``buffer_updated`` returns, so no two
        #: reads ever hold it at once.
        self._read_buffer = memoryview(bytearray(_READ_SIZE))
        self._tasks: List[asyncio.Task] = []
        self._servers: List[asyncio.AbstractServer] = []
        self._started = False
        self._stopping = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0: float = 0.0
        self.missed_ticks = 0
        self.pushes_dropped = 0
        self.handler_errors = 0
        self.snapshot_failures = 0
        #: Decoded frames by type.
        self.frames: Dict[str, int] = {}
        self.malformed_frames = 0
        self.indications = 0
        self.unknown_registrations = 0
        #: Disconnects by whether the client said BYE first.
        self.disconnects = {True: 0, False: 0}
        self.journal_records = 0
        self.overflow_aborts = 0
        self.register_rebinds = 0

        # --- durable state (the restartable daemon) ---
        self.snapshot_interval = snapshot_interval
        self.store: Optional[StateStore] = (
            StateStore(state_dir, fsync=fsync) if state_dir is not None
            else None
        )
        self.restored_registrations = 0
        self._snapshot_write: Optional[asyncio.Future] = None

        self.telemetry.add_source(_TM_FAMILIES, self._metrics)
        self._tm_tick_duration = self.telemetry.histogram(
            "service_tick_duration_seconds",
            "Wall-clock duration of one fleet check cycle")

    def _metrics(self) -> Iterator[Sample]:
        """The registry's read of the daemon (a telemetry source)."""
        yield "service_connections", (), len(self._connections)
        yield "service_registrations", (), len(self.fleet.registrations)
        yield "service_missed_ticks_total", (), self.missed_ticks
        yield "service_pushes_dropped_total", (), self.pushes_dropped
        yield "service_handler_errors_total", (), self.handler_errors
        yield ("service_snapshots_total", (),
               self.store.snapshots_written if self.store else 0)
        yield "service_snapshot_failures_total", (), self.snapshot_failures
        for frame_type, count in self.frames.items():
            yield "service_frames_total", (("type", frame_type),), count
        yield "service_malformed_frames_total", (), self.malformed_frames
        yield "service_indications_total", (), self.indications
        yield ("service_unknown_registration_total", (),
               self.unknown_registrations)
        for graceful, count in self.disconnects.items():
            yield ("service_disconnects_total",
                   (("graceful", str(graceful).lower()),), count)
        yield "service_journal_records_total", (), self.journal_records
        yield "service_overflow_aborts_total", (), self.overflow_aborts
        yield "service_register_rebinds_total", (), self.register_rebinds

    def _new_fleet(self) -> Fleet:
        """An empty fleet with the event stream (``event_sink``) and
        every push channel subscribed."""
        fleet = Fleet(strict=self._strict, telemetry=self.telemetry)
        if self.event_sink is not None:
            WatchdogEvents(self.event_sink).attach_table(fleet)
        fleet.add_detection_listener(self._push_detection)
        fleet.add_task_fault_listener(self._push_task_fault)
        fleet.add_ecu_state_listener(self._push_ecu_state)
        fleet.add_fleet_state_listener(self._push_fleet_state)
        return fleet

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Recover durable state if any, then bind listeners and run.

        A state directory another server holds raises
        :class:`StateDirHeld` before anything is read or bound.
        """
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._t0 = loop.time()
        self._recover()
        protocol = functools.partial(_Connection, self)
        if self.port is not None:
            server = await loop.create_server(
                protocol, host=self.host, port=self.port)
            self.port = server.sockets[0].getsockname()[1]
            self._servers.append(server)
        if self.unix_path is not None:
            server = await loop.create_unix_server(
                protocol, path=self.unix_path)
            self._servers.append(server)
        if self.http_port is not None:
            server = await asyncio.start_server(
                self._handle_http, host=self.host, port=self.http_port
            )
            self.http_port = server.sockets[0].getsockname()[1]
            self._servers.append(server)
        if self.tick_interval is not None:
            self._tasks.append(loop.create_task(self._ticker()))
        if self.store is not None and self.snapshot_interval is not None:
            self._tasks.append(loop.create_task(self._snapshot_loop()))
        self._started = True

    async def stop(self, *, save: Optional[bool] = None) -> None:
        """Shut down cleanly: no task left pending, sockets unlinked.

        With a state directory, a server that started serving writes a
        final snapshot by default (``save=False`` suppresses it — the
        crash-simulation path tests use; a refused :meth:`start` never
        writes into a directory another server holds), then the store
        is closed, which releases the state directory's lock.
        """
        self._stopping = True
        for server in self._servers:
            server.close()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        if self._snapshot_write is not None:
            # Cancelling the snapshot loop discards a snapshot still
            # being streamed, but not one already committing in its
            # thread.  The final snapshot below must not race that
            # commit for the temp file, nor be replaced by its older
            # file after the journal has been truncated.
            await asyncio.gather(self._snapshot_write, return_exceptions=True)
        for conn in list(self._connections):
            self._close(conn)
        # Each close flushes for at most _CLOSE_FLUSH_S, then aborts.
        await asyncio.gather(*(conn.lost for conn in list(self._closing)))
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        if self.unix_path is not None:
            try:
                os.unlink(self.unix_path)
            except OSError:
                pass
        if self.store is not None:
            if save is None:
                save = self._started
            if save:
                self.write_snapshot()
            self.store.close()

    def now(self) -> int:
        """Server time in integer microseconds since start (the same
        integer-tick axis every simulated component uses)."""
        if self._loop is None:
            return 0
        return int((self._loop.time() - self._t0) * 1e6)

    def tick(self, time: Optional[int] = None) -> List[Tuple[str, RunnableError]]:
        """One fleet check cycle (the ticker's body; tests call it
        directly when ``tick_interval=None``)."""
        started = _time.perf_counter()
        fleet = self.fleet
        failed = fleet.cycle_errors
        errors = fleet.tick(self.now() if time is None else time)
        self.handler_errors += fleet.cycle_errors - failed
        self._tm_tick_duration.observe(_time.perf_counter() - started)
        return errors

    async def _ticker(self) -> None:
        loop = asyncio.get_running_loop()
        period = self.tick_interval
        next_at = loop.time() + period
        while True:
            delay = next_at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            late = loop.time() - next_at
            if late > period:
                missed = int(late // period)
                self.missed_ticks += missed
                next_at += period * missed
            self.tick()
            next_at += period

    # ------------------------------------------------------------------
    # durable state: recovery, journal, snapshots
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Take the state directory's lock (or raise
        :class:`StateDirHeld`), then bring the (empty) fleet up to date
        from it: the snapshot first, then every journal record beyond
        it, in sequence order.  ``load()`` also moves the append cursor
        past everything on disk.  A no-op without a state directory."""
        if self.store is None:
            return
        if not self.store.take_primary():
            raise StateDirHeld(
                f"state dir {self.store.state_dir} is held by another "
                f"server")
        restored = self.store.load()
        if restored.snapshot is not None:
            self.fleet.restore(restored.snapshot["fleet"])
        for event in restored.entries:
            self._apply_journal_entry(event)
        self.restored_registrations = len(self.fleet.registrations)

    def _apply_journal_entry(self, event: TelemetryEvent) -> None:
        """Re-apply one journaled control-plane frame.

        Unknown kinds are ignored (forward compatibility, like telemetry
        consumers)."""
        if event.kind == JOURNAL_REGISTER:
            try:
                self.fleet.register(
                    event.subject, event.data["hypothesis"],
                    app_of_task=event.data.get("app_of_task"),
                )
            except RegistrationError:
                # Journaled only after live acceptance; a replay
                # conflict means the record is already covered.
                pass
        elif event.kind == JOURNAL_BYE:
            if event.subject in self.fleet.registrations:
                self.fleet.deregister(event.subject)
        elif event.kind == JOURNAL_ACTIVATION:
            registration = self.fleet.registration(event.subject)
            if registration is not None:
                if event.data.get("active", True):
                    registration.reactivate()
                else:
                    registration.deactivate()

    def _journal(self, conn: _Connection, re: str, kind: str,
                 subject: str, **data: Any) -> bool:
        """Journal a control frame before its ok ACK.  A failed append
        (ENOSPC, EIO) sends a counted error ACK instead; returns False."""
        if self.store is None:
            return True
        try:
            self.store.append(kind, subject, **data)
        except OSError as exc:
            self.handler_errors += 1
            self._send(conn, T_ACK, ok=False, re=re, name=subject,
                       error=f"journal append failed: {exc}")
            return False
        self.journal_records += 1
        return True

    def write_snapshot(self) -> Optional[Dict[str, Any]]:
        """Write a point-in-time snapshot now, synchronously (the final
        act of a clean :meth:`stop`; tests call it directly).  The
        periodic loop uses :meth:`_write_snapshot_async` instead so the
        event loop keeps serving while the snapshot is written."""
        if self.store is None:
            return None
        return self.store.write_snapshot(self.fleet.snapshot(), name=self.name)

    async def _write_snapshot_async(self) -> None:
        """One periodic snapshot, streamed from live state.

        The fleet is only ever mutated on-loop, so the snapshot is
        encoded on-loop too, one registration record at a time, in
        slices of :data:`_SNAPSHOT_SLICE` records with a yield to the
        loop between them: heartbeat ingest and the check-cycle ticker
        wait for at most one slice.  :mod:`repro.service.persistence`
        explains why frames applied between slices still restore
        exactly.  The ``fsync`` and rename go to a worker thread, and
        the journal is truncated back on-loop afterwards, keeping every
        record appended since the snapshot started (their seq is beyond
        the snapshot's), so a concurrent REGISTER/BYE is never lost to
        the truncation.  A cancelled snapshot (:meth:`stop`) discards
        its temp file."""
        state, records = self.fleet.snapshot_stream()
        snapshot = self.store.open_snapshot(state, records, name=self.name)
        try:
            while not snapshot.write(_SNAPSHOT_SLICE):
                await asyncio.sleep(0)
        except asyncio.CancelledError:
            snapshot.abort()
            raise
        self._snapshot_write = asyncio.ensure_future(asyncio.to_thread(
            self.store.write_snapshot_payload, snapshot))
        await asyncio.shield(self._snapshot_write)
        self.store.truncate_journal_through(snapshot.seq)

    async def _snapshot_loop(self) -> None:
        while True:
            await asyncio.sleep(self.snapshot_interval)
            try:
                await self._write_snapshot_async()
            except asyncio.CancelledError:
                raise
            except Exception:
                # One failed write (ENOSPC, a transient I/O error on the
                # state dir) must not kill the loop: durability would
                # silently degrade to journal-only and the journal would
                # never be truncated again.  Count it; retry next cycle.
                self.snapshot_failures += 1

    # ------------------------------------------------------------------
    # wire protocol connections
    # ------------------------------------------------------------------
    def _connection_made(self, conn: _Connection) -> None:
        self._connections.add(conn)

    def _connection_lost(self, conn: _Connection) -> None:
        self._closing.discard(conn)
        self._release(conn)

    def _receive(self, conn: _Connection, chunk: memoryview) -> None:
        """Decode and apply one chunk of a connection's byte stream."""
        fatal: Optional[FatalProtocolError] = None
        try:
            items = conn.decoder.feed(chunk)
        except FatalProtocolError as exc:
            # Frames ahead of the corrupt header were framed correctly:
            # act on them, then close.
            items, fatal = exc.frames, exc
        for item in items:
            if isinstance(item, ProtocolError):
                self.malformed_frames += 1
                self._send(conn, T_ACK, ok=False, re=None, error=str(item))
                continue
            self._dispatch(conn, item)
            if conn.said_bye:
                self._close(conn)
                return
        if fatal is not None:
            self.malformed_frames += 1
            self._send(conn, T_ACK, ok=False, re=None, error=str(fatal))
            self._close(conn)

    def _dispatch(self, conn: _Connection, frame: Frame) -> None:
        frames = self.frames
        frames[frame.type] = frames.get(frame.type, 0) + 1
        if frame.type == T_HELLO:
            conn.client_name = str(frame.get("client", "") or f"conn{conn.id}")
            # watch=true subscribes this connection to every DETECTION
            # (monitoring clients); default is own-registrations only.
            conn.watching = bool(frame.get("watch", False))
            self._send(conn, T_ACK, ok=True, re=T_HELLO, server=self.name)
        elif frame.type == T_REGISTER:
            self._handle_register(conn, frame)
        elif frame.type == T_HEARTBEAT:
            self._handle_indications(conn, frame, kind="hb")
        elif frame.type == T_FLOW:
            self._handle_indications(conn, frame, kind="flow")
        elif frame.type == T_BYE:
            for name in sorted(conn.registrations):
                if not self._journal(conn, T_BYE, JOURNAL_BYE, name):
                    return  # the connection stays up for a retry
                self.fleet.deregister(name)
            conn.said_bye = True
            self._send(conn, T_ACK, ok=True, re=T_BYE)
        else:  # a server-only type sent by a client
            self._send(
                conn, T_ACK, ok=False, re=frame.type,
                error=f"clients may not send {frame.type} frames",
            )

    def _handle_register(self, conn: _Connection, frame: Frame) -> None:
        name = frame.get("name")
        hypothesis = frame.get("hypothesis")
        if not isinstance(name, str) or not name:
            self._send(conn, T_ACK, ok=False, re=T_REGISTER,
                       error="REGISTER needs a non-empty string 'name'")
            return
        if not isinstance(hypothesis, dict):
            self._send(conn, T_ACK, ok=False, re=T_REGISTER, name=name,
                       error="REGISTER needs a 'hypothesis' object")
            return
        app_of_task = frame.get("app_of_task")
        if app_of_task is not None and not (
                isinstance(app_of_task, dict) and all(
                    isinstance(value, str) for value in app_of_task.values())):
            # The TSI unit keys application states by these values: a
            # list there raised inside the check cycle and stopped the
            # ticker for every registration.
            self._send(conn, T_ACK, ok=False, re=T_REGISTER, name=name,
                       error="'app_of_task' must map task names to "
                             "application names (strings)")
            return
        previous = self.fleet.registration(name)
        rebound = previous is not None
        was_active = rebound and previous.active
        try:
            registration = self.fleet.register(
                name, hypothesis, app_of_task=app_of_task
            )
        except RegistrationError as exc:
            self._send(conn, T_ACK, ok=False, re=T_REGISTER, name=name,
                       error=str(exc), lint=exc.reasons)
            return
        if rebound:
            journaled = self._journal(conn, T_REGISTER, JOURNAL_ACTIVATION,
                                      name, active=True)
        else:
            journaled = self._journal(
                conn, T_REGISTER, JOURNAL_REGISTER, name,
                hypothesis=registration.hypothesis_dict,
                app_of_task=registration.app_of_task,
            )
        if not journaled:
            # A refused frame changes nothing: a new name is dropped (the
            # retry is admitted and journaled afresh), a rebind undone.
            if not rebound:
                self.fleet.discard(name)
            elif not was_active:
                registration.deactivate()
            return
        bound = self._conn_of.get(name)
        if bound is not None and bound is not conn:
            # A reconnecting client replays REGISTER before the server
            # has noticed the old connection die (half-open TCP).  The
            # table already vetted the hypothesis and application map
            # as identical, so this is the same client back — the new
            # connection takes over and the stale binding is dropped,
            # not an error.
            bound.registrations.discard(name)
        registration.connected = True
        conn.registrations.add(name)
        self._conn_of[name] = conn
        if rebound:
            self.register_rebinds += 1
        self._send(
            conn, T_ACK, ok=True, re=T_REGISTER, name=name, rebound=rebound,
            lint=list(registration.lint_diagnostics),
        )

    def _handle_indications(
        self, conn: _Connection, frame: Frame, *, kind: str
    ) -> None:
        name = frame.get("name")
        fleet = self.fleet
        if not isinstance(name, str) or name not in fleet.registrations:
            self.unknown_registrations += 1
            return
        batch = frame.get("batch")
        if not isinstance(batch, list):
            self.malformed_frames += 1
            self._send(conn, T_ACK, ok=False, re=frame.type, name=name,
                       error="indication frames need a 'batch' list")
            return
        applied = 0
        stamp = None
        for entry in batch:
            if kind == "hb":
                if (not isinstance(entry, (list, tuple)) or len(entry) != 3
                        or not isinstance(entry[0], str)):
                    self.malformed_frames += 1
                    continue
                runnable, at, task = entry
                if at is None:
                    if stamp is None:
                        stamp = self.now()
                    at = stamp
                if (not isinstance(at, int) or isinstance(at, bool)
                        or not (task is None or isinstance(task, str))):
                    self.malformed_frames += 1
                    continue
            elif (not isinstance(entry, (list, tuple)) or len(entry) != 2
                    or not isinstance(entry[0], str)):
                self.malformed_frames += 1
                continue
            try:
                if kind == "hb":
                    fleet.heartbeat(name, runnable, at, task)
                else:
                    fleet.task_start(name, entry[0])
            except Exception:
                # One poisoned indication must not abort the rest of
                # its frame or the connection.  Count and continue.
                self.handler_errors += 1
                continue
            applied += 1
        self.indications += applied

    # ------------------------------------------------------------------
    # push channels (server → client frames)
    # ------------------------------------------------------------------
    def _push(self, registration: str, type: str, **data: Any) -> None:
        conn = self._conn_of.get(registration)
        if conn is None or conn.closed:
            self.pushes_dropped += 1
            return
        self._send(conn, type, name=registration, **data)

    def _push_detection(self, registration: str, error: RunnableError) -> None:
        data = dict(
            time=error.time, runnable=error.runnable, task=error.task,
            error_type=error.error_type.value,
            details=dict(error.details or {}),
        )
        self._push(registration, T_DETECTION, **data)
        owner = self._conn_of.get(registration)
        for conn in self._connections:
            if conn.watching and conn is not owner and not conn.closed:
                self._send(conn, T_DETECTION, name=registration, **data)

    def _push_task_fault(self, registration: str, event: TaskFaultEvent) -> None:
        self._push(
            registration, T_STATE, scope="task", subject=event.task,
            state="faulty", time=event.time,
            trigger_runnable=event.trigger_runnable,
            trigger_error_type=event.trigger_error_type.value,
        )

    def _push_ecu_state(self, registration: str, change: EcuStateChange) -> None:
        self._push(
            registration, T_STATE, scope="ecu", subject=registration,
            state=change.new_state.value, old_state=change.old_state.value,
            time=change.time, faulty_tasks=list(change.faulty_tasks),
        )

    def _push_fleet_state(self, change: EcuStateChange) -> None:
        for conn in self._connections:
            if not conn.closed and conn.registrations:
                self._send(
                    conn, T_STATE, scope="fleet", subject=self.name,
                    state=change.new_state.value,
                    old_state=change.old_state.value,
                    time=change.time, faulty_tasks=list(change.faulty_tasks),
                )

    def _send(self, conn: _Connection, type: str, **data: Any) -> bool:
        if conn.closed:
            return False
        transport = conn.transport
        transport.write(encode_frame(type, **data))
        if transport.get_write_buffer_size() > _MAX_PENDING_BYTES:
            # The peer stopped reading.  Aborting discards its backlog
            # and drops the connection as a crash, so registrations it
            # owns stay active and their silence is detected (design
            # rule 1).
            conn.closed = True
            transport.abort()
            self.overflow_aborts += 1
            return False
        return True

    def _close(self, conn: _Connection) -> None:
        """Release ``conn`` and close its transport, which flushes the
        unsent bytes for at most ``_CLOSE_FLUSH_S`` before it is
        aborted (a peer that does not read never lets them flush)."""
        self._release(conn)
        if conn.lost.done() or conn.transport.is_closing():
            return
        self._closing.add(conn)
        conn.transport.close()
        conn._abort_timer = self._loop.call_later(
            _CLOSE_FLUSH_S, conn.transport.abort)

    def _release(self, conn: _Connection) -> None:
        """Unbind a connection that said BYE, hit EOF, broke or was
        aborted; its transport may still be flushing."""
        if conn not in self._connections:
            return
        self._connections.discard(conn)
        self.disconnects[conn.said_bye] += 1
        for name in conn.registrations:
            registration = self.fleet.registration(name)
            if registration is not None:
                registration.connected = False
            if self._conn_of.get(name) is conn:
                del self._conn_of[name]
            # Not graceful: the registration stays ACTIVE, so the now
            # silent runnables accumulate missed heartbeats and the
            # watchdog derives the fault — the required degradation.
        conn.closed = True

    # ------------------------------------------------------------------
    # HTTP: /metrics and /healthz
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        stats = self.fleet.stats()
        stats.update(
            status="ok",
            server=self.name,
            uptime_us=self.now() if self._started else 0,
            connections=len(self._connections),
            # Always 0: there is no inbound queue.  The keys stay
            # because /healthz consumers read them.
            queued=0,
            dropped=0,
            missed_ticks=self.missed_ticks,
            handler_errors=self.handler_errors,
        )
        if self.store is not None:
            stats.update(
                state_dir=self.store.state_dir,
                journal_seq=self.store.seq,
                snapshots_written=self.store.snapshots_written,
                snapshot_failures=self.snapshot_failures,
                restored_registrations=self.restored_registrations,
            )
        return stats

    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request_line = await reader.readline()
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
            except ValueError:
                # readline() raises instead of returning a line longer
                # than the stream limit (64 KiB).
                request_line = None
            parts = (request_line or b"").decode("latin-1", "replace").split()
            method = parts[0] if parts else ""
            path = parts[1].split("?", 1)[0] if len(parts) > 1 else ""
            if request_line is None:
                self.malformed_frames += 1
                status, ctype, body = (
                    "431 Request Header Fields Too Large", "text/plain",
                    "request line or header field too long\n")
            elif method != "GET":
                status, ctype, body = "405 Method Not Allowed", "text/plain", \
                    "only GET is supported\n"
            elif path == "/metrics":
                status, ctype, body = ("200 OK",
                                       "text/plain; version=0.0.4",
                                       self.telemetry.render_prometheus())
            elif path == "/healthz":
                status, ctype, body = ("200 OK", "application/json",
                                       json.dumps(self.health(),
                                                  sort_keys=True) + "\n")
            else:
                status, ctype, body = ("404 Not Found", "text/plain",
                                       f"no route for {path}\n")
            payload = body.encode("utf-8")
            writer.write(
                (f"HTTP/1.0 {status}\r\n"
                 f"Content-Type: {ctype}\r\n"
                 f"Content-Length: {len(payload)}\r\n"
                 "Connection: close\r\n\r\n").encode("latin-1") + payload
            )
            await writer.drain()
            if request_line is None:
                # The rest of the request is unread, and closing on
                # unread input resets the connection, which can destroy
                # the reply before the client reads it.  Half-close and
                # discard until the client closes, for a bounded time.
                writer.write_eof()
                await asyncio.wait_for(_discard(reader), _HTTP_DISCARD_S)
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.TimeoutError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def _discard(reader: asyncio.StreamReader) -> None:
    """Read and drop everything up to EOF."""
    while await reader.read(_READ_SIZE):
        pass
