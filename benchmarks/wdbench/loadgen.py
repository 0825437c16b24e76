"""Single-process, single-thread, open-loop load generator for wdbench.

It drives one real ``repro serve`` child over loopback:

* :class:`Daemon` spawns the child, parses its banner and reads its CPU
  time and peak RSS from ``/proc``;
* :class:`RawTraffic` / :class:`SdkTraffic` own the one long-lived
  traffic connection, which also says ``HELLO watch=true`` and so
  receives every DETECTION;
* :class:`OpenLoop` sends every heartbeat on its fixed due time
  (heartbeats come from independent periodic runnables that never wait
  for their supervisor) and runs the side channel — ``/healthz``
  samples and churn REGISTER/BYE ops, one short-lived socket at a time.

At most two sockets are open at once: the traffic connection plus the
side channel.  Every timestamp is ``time.monotonic()``, the clock the
daemon's asyncio loop also runs on.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.service import WatchdogClient
from repro.service.protocol import (
    FrameDecoder,
    ProtocolError,
    T_ACK,
    T_BYE,
    T_DETECTION,
    T_HELLO,
    T_REGISTER,
    encode_frame,
)

from workloads import Schedule, hypothesis_dict, registration_name, runnable_name

HOST = "127.0.0.1"
#: Longest the generator sleeps without looking at its sockets and
#: schedule, and the shortest it sleeps when work is due sooner (so a
#: 20k frames/s schedule costs ~4k wake-ups/s, not 20k).
MAX_SLEEP_S = 0.0005
MIN_SLEEP_S = 0.00025
#: /healthz sampling period during the measured phase.
HEALTH_PERIOD_S = 0.1
#: Idle /healthz probes used to map server time onto this clock.
CLOCK_PROBES = 20
TIMEOUT_S = 10.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# the daemon child
# ----------------------------------------------------------------------
def pin_cpus() -> Optional[int]:
    """Give the daemon one CPU and this generator another; returns the
    daemon's CPU (``None`` with fewer than two CPUs).

    Unpinned, the kernel often wakes the generator on the CPU the
    daemon is busy on (the daemon's socket write is the wake-up), and
    the generator then misses its schedule by whole milliseconds."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[1]})
    return cpus[0]


class Daemon:
    """One ``repro serve`` (or traced) child process."""

    def __init__(self, argv: List[str], *, root: str, log_path: str,
                 cpu: Optional[int] = None) -> None:
        # Start-up reads cached bytecode, as a deployed daemon would,
        # whatever the caller's environment says; the cache lives in the
        # benchmark's working directory, not next to the sources.
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                   PYTHONPYCACHEPREFIX=os.path.join(root, ".wdbench", "pycache"))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.spawned_at = time.monotonic()
        with open(log_path, "ab") as log:
            self.proc = subprocess.Popen(
                argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=log,
            )
        if cpu is not None:
            # Threads the daemon starts later inherit the affinity.
            os.sched_setaffinity(self.proc.pid, {cpu})
        self.banner = self._read_banner()
        self.banner_at = time.monotonic()
        fields = dict(
            part.split("=", 1) for part in self.banner.split() if "=" in part
        )
        self.port = int(fields["tcp"].rsplit(":", 1)[1])
        self.http_port = int(fields["http"].rsplit(":", 1)[1])
        self.restored = int(fields.get("restored", 0))

    @property
    def address(self) -> Tuple[str, int]:
        return (HOST, self.port)

    def _read_banner(self) -> str:
        deadline = time.monotonic() + TIMEOUT_S
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if sel.select(deadline - time.monotonic()):
                    line = self.proc.stdout.readline().decode()
                    if " listening " in line:
                        return line.strip()
                    if not line:
                        break
        self.kill()
        raise RuntimeError("daemon printed no banner (see its log)")

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Clean SIGTERM stop (final snapshot, spans written)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def kill(self) -> None:
        """``kill -9`` and reap."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def http_get(port: int, path: str) -> bytes:
    """Blocking ``GET`` of one of the daemon's HTTP routes; the body."""
    with socket.create_connection((HOST, port), timeout=TIMEOUT_S) as sock:
        sock.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return _http_body(b"".join(chunks))


def health(port: int) -> Dict[str, Any]:
    return json.loads(http_get(port, "/healthz"))


def _http_body(response: bytes) -> bytes:
    head, _, body = response.partition(b"\r\n\r\n")
    if not head.startswith(b"HTTP/1.0 200"):
        raise RuntimeError(f"daemon answered {head[:40]!r}")
    return body


def probe_clock(http_port: int) -> Tuple[float, float]:
    """Map server time onto ``time.monotonic()``: returns (monotonic
    time of server time 0, round trip of the best probe).  Of
    :data:`CLOCK_PROBES` idle ``/healthz`` probes the lowest-RTT one
    wins; its error is at most half that RTT."""
    best = (float("inf"), 0.0)
    for _ in range(CLOCK_PROBES):
        sent = time.monotonic()
        uptime_us = health(http_port)["uptime_us"]
        received = time.monotonic()
        rtt = received - sent
        if rtt < best[0]:
            best = (rtt, (sent + received) / 2 - uptime_us / 1e6)
    return best[1], best[0]


# ----------------------------------------------------------------------
# the traffic connection
# ----------------------------------------------------------------------
@dataclass
class Detection:
    received: float
    registration: str
    runnable: str
    server_time_us: int
    error_type: str


class RawTraffic:
    """Pre-encoded HEARTBEAT frames on one raw socket."""

    def __init__(self, address: Tuple[str, int], schedule: Schedule) -> None:
        self.schedule = schedule
        self.sock = socket.create_connection(address, timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = FrameDecoder()
        self.detections: List[Detection] = []
        self._out: List[bytes] = []
        ack = self._request(T_HELLO, client="wdbench", watch=True)
        if not ack.get("ok"):
            raise RuntimeError(f"HELLO rejected: {ack.data}")

    def _request(self, type: str, **data: Any):
        self.sock.sendall(encode_frame(type, **data))
        while True:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise RuntimeError("daemon closed the traffic connection")
            ack = None
            for frame in self.decoder.feed(chunk):
                if isinstance(frame, ProtocolError):
                    raise RuntimeError(f"undecodable server frame: {frame}")
                if frame.type == T_ACK and ack is None:
                    ack = frame
                else:
                    self._on_push(frame, time.monotonic())
            if ack is not None:
                return ack

    def register(self, name: str, hypothesis: Dict[str, Any]) -> float:
        """Sequential REGISTER; returns its REGISTER→ACK seconds."""
        sent = time.monotonic()
        ack = self._request(T_REGISTER, name=name, hypothesis=hypothesis)
        latency = time.monotonic() - sent
        if not ack.get("ok"):
            raise RuntimeError(f"REGISTER {name} rejected: {ack.data}")
        return latency

    def heartbeat(self, reg: int, silent: List[int]) -> int:
        """Queue registration ``reg``'s frame for this period; returns
        the indications in it."""
        variants = self.schedule.frames[reg]
        live = len(variants) - 1 - len(silent)
        if live:
            self._out.append(variants[silent[0]] if silent else variants[-1])
        return live

    def send(self) -> None:
        if self._out:
            data = b"".join(self._out)
            self._out.clear()
            self.sock.sendall(data)

    def fileno(self) -> int:
        return self.sock.fileno()

    def read(self) -> None:
        # A socket with a timeout waits for readability before recv(),
        # whatever the flags; reads must not block the schedule.
        self.sock.setblocking(False)
        try:
            while True:
                try:
                    chunk = self.sock.recv(65536)
                except BlockingIOError:
                    return
                received = time.monotonic()
                if not chunk:
                    raise RuntimeError("daemon closed the traffic connection")
                for frame in self.decoder.feed(chunk):
                    if not isinstance(frame, ProtocolError):
                        self._on_push(frame, received)
        finally:
            self.sock.settimeout(TIMEOUT_S)

    def _on_push(self, frame, received: float) -> None:
        if frame.type == T_DETECTION:
            data = frame.data
            self.detections.append(Detection(
                received, data["name"], data["runnable"], data["time"],
                data["error_type"],
            ))

    def close(self) -> None:
        self.sock.close()


class SdkTraffic:
    """``WatchdogClient.heartbeat()`` calls — what a supervised app pays."""

    def __init__(self, address: Tuple[str, int], schedule: Schedule) -> None:
        self.schedule = schedule
        self.detections: List[Detection] = []
        self.client = WatchdogClient(
            address, client_name="wdbench", watch=True, batch_size=64,
            on_detection=self._on_detection,
        )
        self.client.connect()
        names = [runnable_name(j) for j in range(schedule.workload.runnables)]
        self._names = names
        self._live: Dict[Tuple[int, ...], List[str]] = {(): names}

    def register(self, name: str, hypothesis: Dict[str, Any]) -> float:
        sent = time.monotonic()
        self.client.register(name, hypothesis)
        return time.monotonic() - sent

    def heartbeat(self, reg: int, silent: List[int]) -> int:
        key = tuple(silent)
        live = self._live.get(key)
        if live is None:
            live = [n for j, n in enumerate(self._names) if j not in silent]
            self._live[key] = live
        hb = self.client.heartbeat
        for name in live:
            hb(name)
        return len(live)

    def send(self) -> None:
        """The SDK flushes itself every ``batch_size`` indications."""

    def flush(self) -> None:
        self.client.flush()

    def fileno(self) -> int:
        # The SDK exposes no selectable handle; the benchmark selects on
        # its socket so a DETECTION is stamped the moment it arrives.
        return self.client._sock.fileno()

    def read(self) -> None:
        self.client.poll()

    def _on_detection(self, data: Dict[str, Any]) -> None:
        self.detections.append(Detection(
            time.monotonic(), data["name"], data["runnable"], data["time"],
            data["error_type"],
        ))

    def close(self) -> None:
        self.client.close(say_bye=False)


def open_traffic(address, schedule: Schedule):
    cls = SdkTraffic if schedule.workload.sender == "sdk" else RawTraffic
    return cls(address, schedule)


def register_all(traffic, schedule: Schedule) -> List[float]:
    """Register every workload registration, one REGISTER→ACK at a time."""
    hypothesis = hypothesis_dict(schedule.workload.runnables)
    return [
        traffic.register(registration_name(reg), hypothesis)
        for reg in range(schedule.workload.registrations)
    ]


# ----------------------------------------------------------------------
# the side channel: one short-lived non-blocking connection at a time
# ----------------------------------------------------------------------
class _SideOp:
    """Connect, then send requests one after another, each once the
    previous response is complete."""

    def __init__(self, port: int) -> None:
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setblocking(False)
        self.sock.connect_ex((HOST, port))
        self.out = bytearray(self.first_request())
        self.sent_at = 0.0
        self.done = False

    def first_request(self) -> bytes:
        raise NotImplementedError

    def on_data(self, data: bytes, now: float) -> Optional[bytes]:
        """Consume response bytes; return the next request, if any."""
        raise NotImplementedError

    def events(self) -> int:
        return selectors.EVENT_READ | (selectors.EVENT_WRITE if self.out else 0)

    def on_ready(self, mask: int, now: float) -> None:
        if mask & selectors.EVENT_WRITE and self.out:
            try:
                sent = self.sock.send(self.out)
            except (BlockingIOError, InterruptedError):
                sent = 0
            del self.out[:sent]
            if not self.out:
                self.sent_at = now
        if mask & selectors.EVENT_READ:
            try:
                data = self.sock.recv(65536)
            except (BlockingIOError, InterruptedError):
                return
            nxt = self.on_data(data, now)
            if nxt:
                self.out += nxt


class HealthOp(_SideOp):
    """``GET /healthz``; the JSON lands in :attr:`result`."""

    def __init__(self, port: int) -> None:
        self._body = bytearray()
        self.result: Optional[Dict[str, Any]] = None
        super().__init__(port)

    def first_request(self) -> bytes:
        return b"GET /healthz HTTP/1.0\r\n\r\n"

    def on_data(self, data: bytes, now: float) -> None:
        if data:
            self._body += data
            return None
        self.result = json.loads(_http_body(bytes(self._body)))
        self.done = True
        return None


class ChurnOp(_SideOp):
    """An app restart: connect, REGISTER, BYE, close."""

    def __init__(self, port: int, name: str,
                 hypothesis: Dict[str, Any]) -> None:
        self.name = name
        self.hypothesis = hypothesis
        self.decoder = FrameDecoder()
        self.register_s: Optional[float] = None
        self.errors = 0
        self.requests = 0
        super().__init__(port)

    def first_request(self) -> bytes:
        self.requests += 1
        return encode_frame(T_REGISTER, name=self.name,
                            hypothesis=self.hypothesis)

    def on_data(self, data: bytes, now: float) -> Optional[bytes]:
        if not data:
            raise RuntimeError(f"daemon closed churn connection {self.name}")
        for frame in self.decoder.feed(data):
            if isinstance(frame, ProtocolError) or frame.type != T_ACK:
                continue
            if not frame.get("ok"):
                self.errors += 1
            if frame.get("re") == T_REGISTER:
                self.register_s = now - self.sent_at
                self.requests += 1
                return encode_frame(T_BYE)
            self.done = True
        return None


# ----------------------------------------------------------------------
# the measured phase
# ----------------------------------------------------------------------
@dataclass
class PhaseLog:
    """Raw observations of one measured phase (analysed in ``bench.py``)."""

    started: float = 0.0
    ended: float = 0.0
    sent: int = 0
    #: Seconds each heartbeat event was sent after its due time.
    late: array = field(default_factory=lambda: array("d"))
    #: Wall seconds spent producing and sending due heartbeats: the
    #: SDK's ``heartbeat()`` calls, or frame selection plus ``sendall``.
    client_s: float = 0.0
    loadgen_cpu_s: float = 0.0
    health: List[Dict[str, Any]] = field(default_factory=list)
    register_s: List[float] = field(default_factory=list)
    churn_sent: int = 0
    churn_errors: int = 0
    churn_names: set = field(default_factory=set)


class OpenLoop:
    """Drive one schedule against a daemon for ``seconds``."""

    def __init__(self, traffic, schedule: Schedule, http_port: int,
                 tcp_port: int) -> None:
        self.traffic = traffic
        self.schedule = schedule
        self.http_port = http_port
        self.tcp_port = tcp_port
        self.log = PhaseLog()
        # select(2) takes a microsecond timeout; epoll and poll round it
        # up to a whole millisecond, which would make every sleep 1 ms.
        self.selector = selectors.SelectSelector()
        self.selector.register(traffic.fileno(), selectors.EVENT_READ, traffic)
        self._side: Optional[_SideOp] = None
        workload = schedule.workload
        self._silent: List[List[int]] = [
            [] for _ in range(workload.registrations)]
        events = []
        for s in schedule.silences:
            events.append((s.start, 1, s.registration, s.runnable))
            events.append((s.end, 0, s.registration, s.runnable))
        events.sort()
        self._silence_events = events
        order = sorted(range(workload.registrations),
                       key=lambda reg: (schedule.offsets[reg], reg))
        self._order = order
        self._order_offsets = [schedule.offsets[reg] for reg in order]
        self._churn_hypothesis = hypothesis_dict(1)

    def run(self, seconds: float) -> PhaseLog:
        """The open loop.  Returns when ``seconds`` have elapsed; the
        caller then reads the daemon's CPU and calls :meth:`finish`."""
        log = self.log
        traffic = self.traffic
        period = self.schedule.workload.period_s
        order, offsets = self._order, self._order_offsets
        per_round = len(order)
        silent = self._silent
        sevents, si = self._silence_events, 0
        churn, ci = self.schedule.churn, 0
        next_health = HEALTH_PERIOD_S
        late = log.late
        perf = time.perf_counter
        monotonic = time.monotonic
        k = 0
        due = offsets[0]
        cpu0 = time.process_time()
        start = log.started = monotonic()
        while True:
            now = monotonic() - start
            if now >= seconds:
                break
            if due <= now:
                t0 = perf()
                while due <= now:
                    while si < len(sevents) and sevents[si][0] <= due:
                        _, begins, reg, run = sevents[si]
                        if begins:
                            silent[reg].append(run)
                        else:
                            silent[reg].remove(run)
                        si += 1
                    reg = order[k % per_round]
                    log.sent += traffic.heartbeat(reg, silent[reg])
                    late.append(now - due)
                    k += 1
                    due = (k // per_round) * period + offsets[k % per_round]
                traffic.send()
                log.client_s += perf() - t0
            if self._side is None:
                churn_due = churn[ci][0] if ci < len(churn) else seconds
                if min(churn_due, next_health) <= now:
                    if churn_due <= next_health:
                        self._start_side(ChurnOp(self.tcp_port, churn[ci][1],
                                                 self._churn_hypothesis))
                        ci += 1
                    else:
                        self._start_side(HealthOp(self.http_port))
                        next_health += HEALTH_PERIOD_S
            wait = due - (monotonic() - start)
            self._poll(min(max(wait, MIN_SLEEP_S), MAX_SLEEP_S))
        log.ended = monotonic()
        log.loadgen_cpu_s = time.process_time() - cpu0
        return log

    def finish(self) -> None:
        """Complete the side op in flight; keep reading pushes."""
        deadline = time.monotonic() + TIMEOUT_S
        while self._side is not None:
            if time.monotonic() > deadline:
                raise RuntimeError("side-channel op did not complete")
            self._poll(MAX_SLEEP_S)
        self.selector.close()

    def _start_side(self, op: _SideOp) -> None:
        self._side = op
        self.selector.register(op.sock, op.events(), op)

    def _poll(self, timeout: float) -> None:
        for key, mask in self.selector.select(timeout):
            if key.data is self.traffic:
                self.traffic.read()
                continue
            op = key.data
            op.on_ready(mask, time.monotonic())
            if op.done:
                self.selector.unregister(op.sock)
                op.sock.close()
                self._side = None
                self._record(op)
            else:
                self.selector.modify(op.sock, op.events(), op)

    def _record(self, op: _SideOp) -> None:
        log = self.log
        if isinstance(op, HealthOp):
            log.health.append(op.result)
            return
        log.churn_sent += op.requests
        log.churn_errors += op.errors
        if op.register_s is not None:
            log.register_s.append(op.register_s)
            log.churn_names.add(op.name)

