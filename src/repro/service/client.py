"""WatchdogClient — the glue-code SDK for the live supervision service.

The paper's glue code is a one-liner in each runnable that reports an
aliveness indication; this client keeps that property for real
processes.  ``heartbeat()`` and ``task_start()`` append to an in-memory
buffer and return immediately; the buffer flushes as batched HEARTBEAT/
FLOW frames once ``batch_size`` indications accumulate (or explicitly
via :meth:`flush`).  The hot path therefore costs a deque append — no
syscall, no serialization.

Failure discipline (a supervised process must never crash *because of*
its supervisor):

* the indication path never raises — when the daemon is unreachable,
  indications land in a bounded offline buffer (oldest dropped and
  counted once full) and are replayed after reconnecting,
* reconnects use exponential backoff with jitter, bounded by
  ``max_retries`` per flush attempt,
* after a reconnect the client re-sends HELLO and re-REGISTERs every
  hypothesis it has registered; the server rebinds an identical
  hypothesis onto its surviving watchdog, so supervision state is
  preserved across client connection loss.

Server pushes (DETECTION and STATE frames) are read by :meth:`poll` —
call it from the application's own loop; the client is deliberately
single-threaded so glue code stays deterministic and testable.
"""

from __future__ import annotations

import collections
import random
import socket
import time as _time
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, Union

from ..core.config_io import hypothesis_to_dict
from ..core.hypothesis import FaultHypothesis
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

__all__ = ["ClientError", "RegistrationRejected", "WatchdogClient"]

Address = Union[str, Tuple[str, int]]

#: Indications per HEARTBEAT/FLOW frame when flushing a large buffer.
_MAX_BATCH_PER_FRAME = 512


class ClientError(Exception):
    """The client could not complete a request."""


class RegistrationRejected(ClientError):
    """The server refused a REGISTER (lint errors, strict mode, name
    conflicts); ``reasons`` carries the server's diagnostics."""

    def __init__(self, reasons: List[str]) -> None:
        super().__init__("; ".join(reasons) or "registration rejected")
        self.reasons = list(reasons)


class WatchdogClient:
    """Synchronous SDK for one supervised process.

    ``address`` is ``(host, port)`` for TCP or a filesystem path string
    for a UNIX socket.  ``failover`` lists further addresses (typically
    the warm standby's) tried in order whenever the current one refuses;
    the client sticks with whichever address last worked, and the
    ordinary reconnect path — replay HELLO, re-REGISTER everything —
    runs identically after a failover, so a promoted standby receives
    the same rebind a restarted primary would.
    """

    def __init__(
        self,
        address: Address,
        *,
        failover: Tuple[Address, ...] = (),
        client_name: str = "glue",
        watch: bool = False,
        batch_size: int = 64,
        buffer_limit: int = 4096,
        reconnect: bool = True,
        backoff_initial: float = 0.05,
        backoff_max: float = 2.0,
        backoff_jitter: float = 0.25,
        max_retries: int = 8,
        timeout: float = 5.0,
        rng: Optional[random.Random] = None,
        sleep: Callable[[float], None] = _time.sleep,
        on_detection: Optional[Callable[[Dict[str, Any]], None]] = None,
        on_state: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        if batch_size < 1 or buffer_limit < 1:
            raise ValueError("batch_size and buffer_limit must be >= 1")
        self.addresses: List[Address] = [address, *failover]
        self._addr_index = 0
        self.client_name = client_name
        #: Subscribe to every DETECTION the daemon raises (monitoring
        #: clients) instead of only those about own registrations.
        self.watch = watch
        self.batch_size = batch_size
        self.buffer_limit = buffer_limit
        self.reconnect_enabled = reconnect
        self.backoff_initial = backoff_initial
        self.backoff_max = backoff_max
        self.backoff_jitter = backoff_jitter
        self.max_retries = max_retries
        self.timeout = timeout
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep
        self.on_detection = on_detection
        self.on_state = on_state

        self._sock: Optional[socket.socket] = None
        self._decoder = FrameDecoder()
        self._buffer: Deque[Tuple[Any, ...]] = collections.deque()
        self._registrations: Dict[str, Dict[str, Any]] = {}
        self.closed = False
        #: Counters a supervised process can export for its own health.
        self.dropped = 0
        self.sent_indications = 0
        self.reconnects = 0
        self.detections: List[Dict[str, Any]] = []
        self.states: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    def connect(self) -> None:
        """Open the transport and shake hands (HELLO → ACK)."""
        if self.closed:
            raise ClientError("client is closed")
        if self._sock is not None:
            return
        sock = self._open_socket()
        self._sock = sock
        self._decoder = FrameDecoder()
        try:
            ack = self._request(T_HELLO, client=self.client_name,
                                watch=self.watch)
            if not ack.get("ok"):
                raise ClientError(
                    f"HELLO rejected: {ack.get('error', 'unknown error')}"
                )
            for name, spec in self._registrations.items():
                self._register_on_wire(name, spec)
        except Exception:
            self._drop_connection()
            raise

    @property
    def address(self) -> Address:
        """The address currently (or last successfully) in use."""
        return self.addresses[self._addr_index]

    def _open_socket(self) -> socket.socket:
        """Connect to the first reachable address, starting from the one
        that last worked (sticky) and rotating through the failover
        list; raises the final error when every address refuses."""
        last_exc: Optional[Exception] = None
        for offset in range(len(self.addresses)):
            index = (self._addr_index + offset) % len(self.addresses)
            try:
                sock = self._connect_address(self.addresses[index])
            except OSError as exc:
                last_exc = exc
                continue
            self._addr_index = index
            return sock
        assert last_exc is not None
        raise last_exc

    def _connect_address(self, address: Address) -> socket.socket:
        if isinstance(address, str):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(address)
        else:
            host, port = address
            sock = socket.create_connection((host, port),
                                            timeout=self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _reconnect(self) -> bool:
        """Bounded exponential backoff with jitter; True on success."""
        if self.closed or not self.reconnect_enabled:
            return False
        for attempt in range(self.max_retries):
            # Jitter before clamping: applying it after would let the
            # sleep exceed backoff_max by up to the jitter factor, and
            # backoff_max is a promise about the worst-case gap between
            # reconnect attempts (the detection-latency budget).
            delay = self.backoff_initial * (2 ** attempt)
            delay *= 1.0 + self.backoff_jitter * self._rng.random()
            delay = min(self.backoff_max, delay)
            self._sleep(delay)
            try:
                self.connect()
            except (OSError, ClientError):
                self._drop_connection()
                continue
            self.reconnects += 1
            return True
        return False

    def _ensure_connection(self) -> bool:
        if self._sock is not None:
            return True
        if self.closed:
            return False
        try:
            self.connect()
            return True
        except (OSError, ClientError):
            self._drop_connection()
        return self._reconnect()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        hypothesis: Union[FaultHypothesis, Dict[str, Any]],
        *,
        app_of_task: Optional[Dict[str, str]] = None,
    ) -> Dict[str, Any]:
        """Submit a fault hypothesis; returns the server's ACK payload
        (``rebound`` flag and ``lint`` diagnostics).

        Raises :class:`RegistrationRejected` when the server (or its
        ``--strict`` linter) refuses the hypothesis.
        """
        if isinstance(hypothesis, FaultHypothesis):
            hypothesis = hypothesis_to_dict(hypothesis)
        spec: Dict[str, Any] = {"hypothesis": hypothesis}
        if app_of_task is not None:
            spec["app_of_task"] = dict(app_of_task)
        if not self._ensure_connection():
            raise ClientError(f"cannot reach the supervision daemon at "
                              f"{self.address!r}")
        ack = self._register_on_wire(name, spec)
        self._registrations[name] = spec
        return ack

    def _register_on_wire(self, name: str, spec: Dict[str, Any]) -> Dict[str, Any]:
        ack = self._request(T_REGISTER, name=name, **spec)
        if not ack.get("ok"):
            reasons = ack.get("lint") or []
            error = ack.get("error")
            if error and error not in reasons:
                reasons = [error] + list(reasons)
            raise RegistrationRejected(reasons)
        return ack.data

    # ------------------------------------------------------------------
    # the glue-code hot path
    # ------------------------------------------------------------------
    def heartbeat(
        self, runnable: str, time: Optional[int] = None,
        task: Optional[str] = None,
    ) -> None:
        """Report one aliveness indication (buffered; never raises)."""
        self._push_item(("hb", runnable, time, task))

    def task_start(self, task: str, time: Optional[int] = None) -> None:
        """Report one task-activation start (buffered; never raises)."""
        self._push_item(("flow", task, time))

    def _push_item(self, item: Tuple[Any, ...]) -> None:
        if len(self._buffer) >= self.buffer_limit:
            self._buffer.popleft()
            self.dropped += 1
        self._buffer.append(item)
        if len(self._buffer) >= self.batch_size:
            self.flush()

    def flush(self) -> bool:
        """Send everything buffered; False when the daemon stayed
        unreachable (indications remain buffered, bounded)."""
        if not self._buffer:
            return True
        if not self._registrations:
            # Nothing to attribute the indications to yet; keep them
            # buffered until register() names a registration.
            return False
        if not self._ensure_connection():
            return False
        while self._buffer:
            run = self._pop_run()
            frame = self._encode_run(run)
            try:
                self._sock.sendall(frame)
            except OSError:
                # Put the run back in front — order preserved — and
                # retry over a fresh connection.
                self._buffer.extendleft(reversed(run))
                self._drop_connection()
                if not self._reconnect():
                    return False
                continue
            self.sent_indications += len(run)
        return True

    def sync(self) -> bool:
        """Flush, then round-trip a HELLO so every indication sent so
        far is guaranteed to have been applied by the daemon (frames are
        handled in order per connection, and the daemon applies each
        indication before it reads the next frame).  A write barrier for
        deterministic tests and graceful handover; False when the
        daemon stayed unreachable."""
        if not self.flush():
            return False
        if self._sock is None:
            return False
        try:
            ack = self._request(T_HELLO, client=self.client_name,
                                watch=self.watch)
        except ClientError:
            return False
        return bool(ack.get("ok"))

    def _pop_run(self) -> List[Tuple[Any, ...]]:
        """Pop the longest prefix of same-kind indications (bounded per
        frame) so interleaved heartbeat/flow order survives batching."""
        kind = self._buffer[0][0]
        run: List[Tuple[Any, ...]] = []
        while (self._buffer and self._buffer[0][0] == kind
               and len(run) < _MAX_BATCH_PER_FRAME):
            run.append(self._buffer.popleft())
        return run

    def _encode_run(self, run: List[Tuple[Any, ...]]) -> bytes:
        # A client talks about one registration per connection batch;
        # multi-registration clients interleave frames, which the
        # server applies in arrival order anyway.
        if run[0][0] == "hb":
            batch = [[r, t, task] for _, r, t, task in run]
            return encode_frame(
                T_HEARTBEAT, name=self._primary_name(), batch=batch
            )
        batch = [[task, t] for _, task, t in run]
        return encode_frame(T_FLOW, name=self._primary_name(), batch=batch)

    def _primary_name(self) -> str:
        if not self._registrations:
            raise ClientError("no registration — call register() first")
        return next(iter(self._registrations))

    # ------------------------------------------------------------------
    # server pushes
    # ------------------------------------------------------------------
    def poll(self) -> int:
        """Drain pending DETECTION/STATE pushes without blocking;
        returns the number of frames dispatched."""
        if self._sock is None:
            return 0
        dispatched = 0
        self._sock.setblocking(False)
        try:
            # _dispatch_chunk drops the connection on corrupt framing.
            while self._sock is not None:
                try:
                    chunk = self._sock.recv(65536)
                except (BlockingIOError, InterruptedError):
                    break
                except OSError:
                    self._drop_connection()
                    break
                if not chunk:
                    self._drop_connection()
                    break
                dispatched += self._dispatch_chunk(chunk)
        finally:
            if self._sock is not None:
                self._sock.settimeout(self.timeout)
        return dispatched

    def _dispatch_chunk(self, chunk: bytes) -> int:
        fatal = None
        try:
            items = self._decoder.feed(chunk)
        except FatalProtocolError as exc:
            items, fatal = exc.frames, exc
        dispatched = 0
        for item in items:
            if isinstance(item, ProtocolError):
                continue
            self._dispatch_push(item)
            dispatched += 1
        if fatal is not None:
            # The server's framing is corrupt: keep the pushes decoded
            # ahead of it, drop the stream (the next send reconnects).
            self._drop_connection()
        return dispatched

    def _dispatch_push(self, frame: Frame) -> None:
        if frame.type == T_DETECTION:
            self.detections.append(frame.data)
            if self.on_detection is not None:
                self.on_detection(frame.data)
        elif frame.type == T_STATE:
            self.states.append(frame.data)
            if self.on_state is not None:
                self.on_state(frame.data)
        # Unsolicited ACKs (e.g. to a malformed frame we sent) are kept
        # out of the push lists but not fatal.

    # ------------------------------------------------------------------
    # request/response plumbing
    # ------------------------------------------------------------------
    def _request(self, type: str, **data: Any) -> Frame:
        """Send one frame and block for its ACK, dispatching any pushes
        that arrive in between."""
        if self._sock is None:
            raise ClientError("not connected")
        self._sock.settimeout(self.timeout)
        try:
            self._sock.sendall(encode_frame(type, **data))
            deadline = _time.monotonic() + self.timeout
            while True:
                remaining = deadline - _time.monotonic()
                if remaining <= 0:
                    raise ClientError(f"timed out waiting for {type} ACK")
                self._sock.settimeout(remaining)
                chunk = self._sock.recv(65536)
                if not chunk:
                    raise ClientError("connection closed mid-request")
                fatal = None
                try:
                    items = self._decoder.feed(chunk)
                except FatalProtocolError as exc:
                    items, fatal = exc.frames, exc
                ack: Optional[Frame] = None
                for item in items:
                    if isinstance(item, ProtocolError):
                        raise ClientError(f"undecodable server frame: {item}")
                    if item.type == T_ACK and ack is None:
                        ack = item
                    else:
                        # Pushes decoded from the same chunk as the ACK
                        # must not be lost.
                        self._dispatch_push(item)
                if fatal is not None:
                    self._drop_connection()
                if ack is not None:
                    return ack
                if fatal is not None:
                    raise ClientError(f"corrupt server framing: {fatal}")
        except (OSError, socket.timeout) as exc:
            self._drop_connection()
            raise ClientError(f"{type} request failed: {exc}") from None

    # ------------------------------------------------------------------
    def close(self, *, say_bye: bool = True) -> None:
        """Flush, say goodbye, close.  After ``close()`` the client is
        unusable; a BYE tells the daemon the silence to come is
        deliberate (monitoring deactivates instead of detecting).

        Raises
        ------
        ClientError
            If the daemon refuses the BYE (it could not journal it).
            The client stays open and connected, and the registration
            active, so calling ``close()`` again retries the BYE.
        """
        if self.closed:
            return
        self.flush()
        if say_bye and self._sock is not None:
            try:
                ack = self._request(T_BYE)
            except ClientError:
                pass
            else:
                if not ack.get("ok"):
                    raise ClientError(
                        f"BYE refused: {ack.get('error', 'unknown error')}")
        self.closed = True
        self._drop_connection()

    def __enter__(self) -> "WatchdogClient":
        self.connect()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
