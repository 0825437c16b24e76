"""Live supervision service — the watchdog as an actual network service.

Everything else in this repository supervises *simulated* runnables
against a virtual clock.  This package realizes the paper's framing of
the Software Watchdog as a *dependability software service* literally:
a long-running asyncio daemon that real, out-of-process clients register
with and heartbeat into over a socket.

* :mod:`repro.service.protocol` — versioned, length-delimited JSON wire
  protocol (HELLO/REGISTER/HEARTBEAT/FLOW/BYE requests, ACK/DETECTION/
  STATE server frames),
* :mod:`repro.service.supervisor` — the synchronous supervision core:
  :class:`SupervisorShard`, the supervision table, wraps one
  :class:`~repro.core.watchdog.SoftwareWatchdog` per
  registration, lints hypotheses on REGISTER and fans detections,
  task faults and ECU-state changes out to table-level listeners,
* :mod:`repro.service.fleet` — :class:`Fleet`, the daemon's one table:
  a :class:`SupervisorShard` that also rolls its registrations' states
  up into the existing ECU/FMF state machine,
* :mod:`repro.service.server` — the asyncio TCP + UNIX-socket daemon
  with TCP flow control as its backpressure, a real-time check-cycle
  ticker and an HTTP ``/metrics`` + ``/healthz`` endpoint,
* :mod:`repro.service.client` — :class:`WatchdogClient`, the glue-code
  SDK (indication batching, reconnect with exponential backoff plus
  jitter, bounded offline buffer, failover address rotation),
* :mod:`repro.service.persistence` — the daemon's crash memory:
  atomic point-in-time snapshots plus an append-only journal of
  state-changing frames, with crash-truncation-tolerant replay, and the
  ``flock`` that lets one server at a time own a state directory.
  Failover is a restart: a service manager starts ``repro serve
  --state-dir`` again, and it recovers the directory the dead daemon
  left.

The daemon is the ``python -m repro serve`` subcommand; a differential
test pins the service path to the in-process path: the same indication
stream over a loopback socket and via direct ``heartbeat_indication()``
calls produces identical detections and task-state rollups.
"""

import importlib

__all__ = [
    "ClientError",
    "FatalProtocolError",
    "Fleet",
    "Frame",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Registration",
    "RestoredState",
    "SNAPSHOT_SCHEMA_VERSION",
    "StateStore",
    "RegistrationError",
    "RegistrationRejected",
    "SupervisionServer",
    "SupervisorShard",
    "WatchdogClient",
    "build_watchdog",
]

#: Public names by defining module, resolved on first access (PEP 562):
#: ``python -m repro serve`` and every other subcommand's argument
#: parsing import this package, and neither needs the client SDK — nor,
#: until the daemon actually starts, asyncio and the server.
_LAZY = {
    "ClientError": "client",
    "RegistrationRejected": "client",
    "WatchdogClient": "client",
    "Fleet": "fleet",
    "RestoredState": "persistence",
    "SNAPSHOT_SCHEMA_VERSION": "persistence",
    "StateStore": "persistence",
    "FatalProtocolError": "protocol",
    "Frame": "protocol",
    "FrameDecoder": "protocol",
    "MAX_FRAME_BYTES": "protocol",
    "PROTOCOL_VERSION": "protocol",
    "ProtocolError": "protocol",
    "encode_frame": "protocol",
    "SupervisionServer": "server",
    "Registration": "supervisor",
    "RegistrationError": "supervisor",
    "SupervisorShard": "supervisor",
    "build_watchdog": "supervisor",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
