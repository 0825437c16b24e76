"""The asyncio supervision daemon.

Transport only: every supervision decision is made by the synchronous
core (:mod:`repro.service.supervisor` / :mod:`repro.service.fleet`);
this module moves frames.  Three design rules keep the daemon a
dependability service rather than a liability:

* **misbehaving clients cannot hurt the server** — a malformed payload
  is rejected with an error ACK and the connection survives (only
  corrupt *framing* closes it); an unannounced disconnect simply stops
  the heartbeat stream, which the watchdog reports as missed
  heartbeats — the service degrades into exactly the detection it
  exists to produce;
* **overload is pushed back, not queued** — indications are applied
  to the supervision table as their frame is read, and a connection's
  next chunk is read only after the previous one has been applied, so
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
responder — no web framework, no dependency.
"""

from __future__ import annotations

import asyncio
import json
import os
import time as _time
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.reports import EcuStateChange, RunnableError, TaskFaultEvent
from ..telemetry import MetricsRegistry, NULL_SINK, TelemetryEvent
from .fleet import Fleet
from .persistence import (
    JOURNAL_ACTIVATION,
    JOURNAL_BYE,
    JOURNAL_REGISTER,
    JournalFollower,
    RestoredState,
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


class _Connection:
    """Per-connection state: the writer, the bound registrations."""

    _ids = 0

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        _Connection._ids += 1
        self.id = _Connection._ids
        self.writer = writer
        self.client_name: Optional[str] = None
        self.registrations: Set[str] = set()
        self.watching = False
        self.said_bye = False
        self.closed = False


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
        standby: bool = False,
        standby_poll: float = 0.25,
        lock_refresh_interval: float = 1.0,
        on_promote=None,
    ) -> None:
        if port is None and unix_path is None:
            raise ValueError("need a TCP port and/or a UNIX socket path")
        if standby and state_dir is None:
            raise ValueError("--standby needs --state-dir (the journal it "
                             "tails is the primary's state directory)")
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
        self.event_sink = event_sink if event_sink is not None else NULL_SINK
        self._strict = strict
        self.fleet = Fleet(
            strict=strict,
            telemetry=self.telemetry,
            event_sink=self.event_sink,
        )
        self._conn_of: Dict[str, _Connection] = {}
        self._state_hooked: Set[str] = set()
        self._connections: Set[_Connection] = set()
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

        # --- durable state (the restartable daemon) ---
        self.snapshot_interval = snapshot_interval
        self.standby = standby
        self.standby_poll = standby_poll
        self.lock_refresh_interval = lock_refresh_interval
        self.store: Optional[StateStore] = (
            StateStore(state_dir, fsync=fsync) if state_dir is not None
            else None
        )
        self.restored_registrations = 0
        self.promoted = False
        self._on_promote = on_promote
        self._follower: Optional[JournalFollower] = None
        self._lock_owned = False
        self._snapshot_write: Optional[asyncio.Future] = None

        tm = self.telemetry
        self._tm_frames: Dict[str, Any] = {}
        self._tm_malformed = tm.counter(
            "service_malformed_frames_total",
            "Frames rejected by the wire-protocol decoder, and HTTP "
            "requests with an oversized line")
        self._tm_indications = tm.counter(
            "service_indications_total",
            "Heartbeat and flow indications applied to the supervision "
            "table")
        self._tm_unknown = tm.counter(
            "service_unknown_registration_total",
            "Indications naming a registration the fleet does not know")
        self._tm_missed_ticks = tm.counter(
            "service_missed_ticks_total",
            "Check cycles the real-time ticker could not run on schedule")
        self._tm_connections = tm.gauge(
            "service_connections", "Currently open client connections")
        self._tm_registrations = tm.gauge(
            "service_registrations", "Registered (ever-seen) hypotheses")
        self._tm_disconnects: Dict[bool, Any] = {
            graceful: tm.counter(
                "service_disconnects_total",
                "Client disconnects by goodbye discipline",
                graceful=str(graceful).lower())
            for graceful in (True, False)
        }
        self._tm_tick_duration = tm.histogram(
            "service_tick_duration_seconds",
            "Wall-clock duration of one fleet check cycle")
        self._tm_pushes_dropped = tm.counter(
            "service_pushes_dropped_total",
            "DETECTION/STATE pushes dropped because no client was bound")
        self._tm_handler_errors = tm.counter(
            "service_handler_errors_total",
            "Indications whose supervision-table handler raised "
            "(isolated, the rest of the frame is still applied)")
        self._tm_journal_records = tm.counter(
            "service_journal_records_total",
            "State-changing frames appended to the durable journal")
        self._tm_snapshots = tm.counter(
            "service_snapshots_total",
            "Point-in-time state snapshots written to the state dir")
        self._tm_snapshot_failures = tm.counter(
            "service_snapshot_failures_total",
            "Periodic snapshot attempts that failed (the loop retries "
            "next interval)")
        self._tm_rebinds = tm.counter(
            "service_register_rebinds_total",
            "REGISTERs that rebound an existing registration (reconnect "
            "replay) instead of creating one")

        self.fleet.add_detection_listener(self._push_detection)
        self.fleet.add_task_fault_listener(self._push_task_fault)
        self.fleet.add_fleet_state_listener(self._push_fleet_state)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Restore durable state if any, then bind listeners and run.

        With ``standby=True`` no listener is bound: the daemon adopts
        whatever is already in the state directory, then tails the
        primary's snapshot/journal until the primary dies and
        :meth:`promote` turns it into a full server.  A connecting
        client sees connection-refused until promotion — exactly the
        signal that drives its failover address rotation.
        """
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._t0 = loop.time()
        if self.store is not None:
            restored = self.store.load()
            self._apply_restored(restored)
            if self.standby:
                self._follower = JournalFollower(self.store)
                self._follower.prime(restored.seq)
                self._tasks.append(loop.create_task(self._standby_loop()))
                self._started = True
                return
            self.store.write_lock(
                name=self.name, role="primary",
                refresh_interval=self.lock_refresh_interval,
            )
            self._lock_owned = True
        await self._bind_and_run()
        self._started = True

    async def _bind_and_run(self) -> None:
        """Bind listeners, start the ticker and snapshots (the
        active-server half of startup, deferred in standby mode)."""
        loop = asyncio.get_running_loop()
        if self.port is not None:
            server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port
            )
            self.port = server.sockets[0].getsockname()[1]
            self._servers.append(server)
        if self.unix_path is not None:
            server = await asyncio.start_unix_server(
                self._handle_connection, path=self.unix_path
            )
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
        if self.store is not None and self._lock_owned:
            self._tasks.append(loop.create_task(self._lock_refresh_loop()))

    async def stop(self, *, save: Optional[bool] = None) -> None:
        """Shut down cleanly: no task left pending, sockets unlinked.

        With a state directory, a final snapshot is written by default
        (``save=False`` suppresses it — the crash-simulation path tests
        use) and the primary lock is cleared so a standby can tell a
        clean shutdown from a crash.
        """
        self._stopping = True
        for server in self._servers:
            server.close()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        if self._snapshot_write is not None:
            # Cancelling the snapshot loop does not stop a write already
            # running in its thread.  The final snapshot below must not
            # race it for the temp file, nor be replaced by its older
            # payload after the journal has been truncated.
            await asyncio.gather(self._snapshot_write, return_exceptions=True)
        for conn in list(self._connections):
            await self._close_connection(conn, graceful=conn.said_bye)
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
                save = not (self.standby and not self.promoted)
            if save:
                self.write_snapshot()
            if self._lock_owned:
                self.store.clear_lock()
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
        errors = self.fleet.tick(self.now() if time is None else time)
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
                self._tm_missed_ticks.inc(missed)
                next_at += period * missed
            self.tick()
            next_at += period

    # ------------------------------------------------------------------
    # durable state: restore, journal, snapshots, warm standby
    # ------------------------------------------------------------------
    def _apply_restored(self, restored: RestoredState) -> None:
        """Rebuild the fleet from disk: snapshot first, then every
        journal record beyond it, in sequence order."""
        if restored.empty:
            return
        if restored.snapshot is not None:
            self.fleet.restore(restored.snapshot["fleet"])
        for event in restored.entries:
            self._apply_journal_entry(event)
        self._hook_restored()

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

    def _hook_restored(self) -> None:
        """Wire push-channel listeners for every restored registration
        (what :meth:`_handle_register` does for live ones) and refresh
        the restore bookkeeping."""
        for name, registration in self.fleet.registrations.items():
            self._hook_registration(name, registration)
        self.restored_registrations = len(self.fleet.registrations)
        self._tm_registrations.set(self.restored_registrations)

    def _journal(self, kind: str, subject: str, **data: Any) -> None:
        if self.store is None:
            return
        self.store.append(kind, subject, **data)
        self._tm_journal_records.inc()

    def write_snapshot(self) -> Optional[Dict[str, Any]]:
        """Write a point-in-time snapshot now, synchronously (the final
        act of a clean :meth:`stop`; tests call it directly).  The
        periodic loop uses :meth:`_write_snapshot_async` instead so the
        blocking file I/O stays off the event loop."""
        if self.store is None:
            return None
        payload = self.store.write_snapshot(
            self.fleet.snapshot(), name=self.name
        )
        self._tm_snapshots.inc()
        return payload

    async def _write_snapshot_async(self) -> Optional[Dict[str, Any]]:
        """One periodic snapshot with the blocking half off-loop.

        The fleet state is captured on-loop (the fleet is only ever
        mutated on-loop), the JSON encoding + ``fsync`` + rename goes to
        a worker thread so a large fleet cannot stall heartbeat ingest
        or the check-cycle ticker, and the journal is truncated back
        on-loop afterwards — keeping any records appended while the
        thread was writing (their seq is beyond the snapshot's), so a
        concurrent REGISTER/BYE is never lost to the truncation."""
        if self.store is None:
            return None
        payload = self.store.build_snapshot_payload(
            self.fleet.snapshot(), name=self.name
        )
        self._snapshot_write = asyncio.ensure_future(asyncio.to_thread(
            self.store.write_snapshot_payload, payload))
        await asyncio.shield(self._snapshot_write)
        self.store.truncate_journal_through(int(payload["seq"]))
        self._tm_snapshots.inc()
        return payload

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
                self._tm_snapshot_failures.inc()

    async def _lock_refresh_loop(self) -> None:
        """Periodically re-stamp the primary lock so a standby can tell
        a live primary from a dead one whose PID the OS recycled."""
        while True:
            await asyncio.sleep(self.lock_refresh_interval)
            try:
                self.store.refresh_lock()
            except OSError:
                # A transient I/O failure must not kill the heartbeat;
                # the staleness threshold tolerates several misses.
                pass

    def _rebuild_fleet(self) -> None:
        """Replace the fleet with an empty, fully re-wired one (the
        standby adopting a newer snapshot: counter state in the snapshot
        supersedes everything, so incremental patching is wrong)."""
        self.fleet = Fleet(
            strict=self._strict,
            telemetry=self.telemetry,
            event_sink=self.event_sink,
        )
        self.fleet.add_detection_listener(self._push_detection)
        self.fleet.add_task_fault_listener(self._push_task_fault)
        self.fleet.add_fleet_state_listener(self._push_fleet_state)
        self._state_hooked.clear()

    async def _standby_loop(self) -> None:
        """Tail the primary's state dir; promote when the primary dies.

        Death is either a provably-dead advertised PID (stale lock after
        kill -9) or a lock that vanished after we saw the primary alive
        (clean shutdown without a restart).  A standby started against a
        state dir that never had a primary keeps waiting — promotion on
        an empty dir would split-brain a slow-starting primary."""
        seen_alive = False
        while True:
            if self.promoted:
                return
            snapshot, entries = self._follower.poll()
            if snapshot is not None:
                self._rebuild_fleet()
                self.fleet.restore(snapshot["fleet"])
                self._hook_restored()
            for event in entries:
                self._apply_journal_entry(event)
            if entries:
                self._hook_restored()
            # Keep the append cursor in lockstep with the follower:
            # store.seq was last set by load() at startup, and every
            # record applied since came through the follower.  Without
            # this, post-promotion appends would reuse sequence numbers
            # the dead primary already journaled (or fall at-or-below
            # the adopted snapshot's seq), and the next recovery would
            # silently drop them.
            self.store.seq = max(self.store.seq, self._follower.applied_seq)
            alive = self.store.primary_alive()
            if alive is True:
                seen_alive = True
            elif alive is False or seen_alive:
                await self.promote()
                return
            await asyncio.sleep(self.standby_poll)

    async def promote(self) -> None:
        """Turn a standby into the live server: final journal catch-up,
        take the primary lock, bind listeners, start the ticker and
        snapshots.  Idempotent; a no-op on a non-standby server."""
        if self.promoted or not self.standby:
            return
        if self._follower is not None:
            snapshot, entries = self._follower.poll()
            if snapshot is not None:
                self._rebuild_fleet()
                self.fleet.restore(snapshot["fleet"])
            for event in entries:
                self._apply_journal_entry(event)
            self._hook_restored()
            # Adopt the follower's position as the append cursor, so
            # records journaled after promotion continue the primary's
            # sequence instead of reusing it (a reused seq sorts
            # at-or-below the on-disk snapshot and is dropped by the
            # next recovery).
            self.store.seq = max(self.store.seq, self._follower.applied_seq)
        self.promoted = True
        self.standby = False
        self.store.write_lock(
            name=self.name, role="promoted-standby",
            refresh_interval=self.lock_refresh_interval,
        )
        self._lock_owned = True
        await self._bind_and_run()
        if self._on_promote is not None:
            self._on_promote(self)

    # ------------------------------------------------------------------
    # wire protocol connections
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        self._connections.add(conn)
        self._tm_connections.inc()
        decoder = FrameDecoder()
        try:
            while not conn.closed:
                chunk = await reader.read(_READ_SIZE)
                if not chunk:
                    break
                fatal: Optional[FatalProtocolError] = None
                try:
                    items = decoder.feed(chunk)
                except FatalProtocolError as exc:
                    # Frames ahead of the corrupt header were framed
                    # correctly: act on them, then close.
                    items, fatal = exc.frames, exc
                for item in items:
                    if isinstance(item, ProtocolError):
                        self._tm_malformed.inc()
                        self._send(
                            conn, T_ACK, ok=False, re=None, error=str(item)
                        )
                        continue
                    self._dispatch(conn, item)
                    if conn.said_bye:
                        break
                if conn.said_bye:
                    break
                if fatal is not None:
                    self._tm_malformed.inc()
                    self._send(conn, T_ACK, ok=False, re=None, error=str(fatal))
                    break
                # read() returns already-buffered bytes without
                # suspending, so a backlogged connection would otherwise
                # hold the loop chunk after chunk and starve the ticker.
                await asyncio.sleep(0)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Only stop() cancels connection readers; exiting quietly
            # keeps shutdown free of "exception was never retrieved"
            # noise from the streams machinery.
            pass
        finally:
            await self._close_connection(conn, graceful=conn.said_bye)

    def _dispatch(self, conn: _Connection, frame: Frame) -> None:
        counter = self._tm_frames.get(frame.type)
        if counter is None:
            counter = self.telemetry.counter(
                "service_frames_total",
                "Decoded protocol frames by type", type=frame.type)
            self._tm_frames[frame.type] = counter
        counter.inc()
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
                self.fleet.deregister(name)
                self._journal(JOURNAL_BYE, name)
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
        if app_of_task is not None and not isinstance(app_of_task, dict):
            self._send(conn, T_ACK, ok=False, re=T_REGISTER, name=name,
                       error="'app_of_task' must be an object")
            return
        rebound = self.fleet.registration(name) is not None
        try:
            registration = self.fleet.register(
                name, hypothesis, app_of_task=app_of_task
            )
        except RegistrationError as exc:
            self._send(conn, T_ACK, ok=False, re=T_REGISTER, name=name,
                       error=str(exc), lint=exc.reasons)
            return
        bound = self._conn_of.get(name)
        if bound is not None and bound is not conn:
            # A reconnecting client replays REGISTER before the server
            # has noticed the old connection die (half-open TCP).  The
            # table already vetted the hypothesis as identical, so this
            # is the same client back — the new connection takes over
            # and the stale binding is dropped, not an error.
            bound.registrations.discard(name)
        registration.connected = True
        conn.registrations.add(name)
        self._conn_of[name] = conn
        self._tm_registrations.set(len(self.fleet.registrations))
        self._hook_registration(name, registration)
        if rebound:
            self._tm_rebinds.inc()
            self._journal(JOURNAL_ACTIVATION, name, active=True)
        else:
            self._journal(
                JOURNAL_REGISTER, name,
                hypothesis=registration.hypothesis_dict,
                app_of_task=(
                    dict(app_of_task) if app_of_task is not None else None
                ),
            )
        self._send(
            conn, T_ACK, ok=True, re=T_REGISTER, name=name, rebound=rebound,
            lint=list(registration.lint_diagnostics),
        )

    def _hook_registration(self, name: str, registration) -> None:
        """Subscribe the push channel to one registration's ECU state
        transitions (once per registration, survives rebinds)."""
        if name in self._state_hooked:
            return
        self._state_hooked.add(name)
        registration.watchdog.tsi.add_ecu_state_listener(
            lambda change, _name=name: self._push_ecu_state(_name, change)
        )

    def _handle_indications(
        self, conn: _Connection, frame: Frame, *, kind: str
    ) -> None:
        name = frame.get("name")
        if not isinstance(name, str) or name not in self.fleet.registrations:
            self._tm_unknown.inc()
            return
        table = self.fleet.table
        batch = frame.get("batch")
        if not isinstance(batch, list):
            self._tm_malformed.inc()
            self._send(conn, T_ACK, ok=False, re=frame.type, name=name,
                       error="indication frames need a 'batch' list")
            return
        applied = 0
        stamp = None
        for entry in batch:
            if kind == "hb":
                if (not isinstance(entry, (list, tuple)) or len(entry) != 3
                        or not isinstance(entry[0], str)):
                    self._tm_malformed.inc()
                    continue
                runnable, at, task = entry
                if at is None:
                    if stamp is None:
                        stamp = self.now()
                    at = stamp
                if (not isinstance(at, int) or isinstance(at, bool)
                        or not (task is None or isinstance(task, str))):
                    self._tm_malformed.inc()
                    continue
            elif (not isinstance(entry, (list, tuple)) or len(entry) != 2
                    or not isinstance(entry[0], str)):
                self._tm_malformed.inc()
                continue
            try:
                if kind == "hb":
                    table.heartbeat(name, runnable, at, task)
                else:
                    table.task_start(name, entry[0])
            except Exception:
                # One poisoned indication must not abort the rest of
                # its frame or the connection.  Count and continue.
                self.handler_errors += 1
                self._tm_handler_errors.inc()
                continue
            applied += 1
        if applied:
            self._tm_indications.inc(applied)

    # ------------------------------------------------------------------
    # push channels (server → client frames)
    # ------------------------------------------------------------------
    def _push(self, registration: str, type: str, **data: Any) -> None:
        conn = self._conn_of.get(registration)
        if conn is None or conn.closed:
            self.pushes_dropped += 1
            self._tm_pushes_dropped.inc()
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
        try:
            conn.writer.write(encode_frame(type, **data))
        except (ConnectionError, RuntimeError):
            conn.closed = True
            return False
        return True

    async def _close_connection(self, conn: _Connection, *, graceful: bool) -> None:
        if conn not in self._connections:
            return
        self._connections.discard(conn)
        self._tm_connections.dec()
        self._tm_disconnects[graceful].inc()
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
        try:
            conn.writer.close()
            await conn.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

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
            role=("standby" if self.standby
                  else "promoted" if self.promoted else "primary"),
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
                self._tm_malformed.inc()
                status, ctype, body = (
                    "431 Request Header Fields Too Large", "text/plain",
                    "request line or header field too long\n")
            elif method != "GET":
                status, ctype, body = "405 Method Not Allowed", "text/plain", \
                    "only GET is supported\n"
            elif path == "/metrics":
                for registration in self.fleet.registrations.values():
                    registration.watchdog.sync_telemetry()
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
