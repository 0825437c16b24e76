"""Wire protocol of the live supervision service.

Framing is deliberately boring: every frame is a 4-byte big-endian
payload length followed by one UTF-8 JSON object.  The object always
carries ``v`` (the protocol schema version) and ``type``; everything
else is frame-specific payload.  Length-delimited JSON keeps the
protocol zero-dependency, debuggable with ``socat``, and — crucially
for a dependability service — *resynchronizable*: a malformed payload
is still cleanly delimited by its length header, so the decoder can
reject the one frame and keep the connection alive.  Only a corrupt
length header (raising :class:`FatalProtocolError`) forces a
disconnect, because framing itself can no longer be trusted.

Client → server frames
======================

========== ==========================================================
``HELLO``     handshake; carries ``client`` (a display name)
``REGISTER``  a fault hypothesis (``hypothesis`` in the
              :func:`repro.core.config_io.hypothesis_to_dict` format)
              under a unique ``name``; optional ``app_of_task``
``HEARTBEAT`` a batch of aliveness indications:
              ``[[runnable, time, task], ...]`` (``time`` may be
              ``null`` — the server stamps its own clock)
``FLOW``      a batch of task-activation starts: ``[[task, time], ...]``
``BYE``       graceful goodbye; the registration is deactivated
              instead of being treated as crashed
========== ==========================================================

Server → client frames
======================

============= =======================================================
``ACK``        response to HELLO/REGISTER/BYE and to malformed frames
               (``ok`` plus ``re`` naming the acked type; failures
               carry ``error``, REGISTER acks carry ``rebound`` and
               the ``lint`` diagnostics)
``DETECTION``  one watchdog detection pushed to the owning client
``STATE``      a state-machine transition (``scope`` of ``task``,
               ``ecu`` or ``fleet``)
============= =======================================================

HEARTBEAT and FLOW are fire-and-forget (no ACK): heartbeats are the
hot path and the watchdog's own counters are the integrity check — a
lost indication is exactly a missed heartbeat, which is the event the
service exists to detect.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Optional, Union

__all__ = [
    "FatalProtocolError",
    "Frame",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "REQUEST_TYPES",
    "SERVER_TYPES",
    "T_ACK",
    "T_BYE",
    "T_DETECTION",
    "T_FLOW",
    "T_HEARTBEAT",
    "T_HELLO",
    "T_REGISTER",
    "T_STATE",
    "encode_frame",
    "encode_payload",
]

#: Version stamped into every frame; bump on incompatible changes.
PROTOCOL_VERSION = 1

#: Upper bound on one frame's payload; a length header above this is
#: treated as framing corruption (:class:`FatalProtocolError`).
MAX_FRAME_BYTES = 1 << 20

_HEADER = struct.Struct("!I")
HEADER_BYTES = _HEADER.size

T_HELLO = "HELLO"
T_REGISTER = "REGISTER"
T_HEARTBEAT = "HEARTBEAT"
T_FLOW = "FLOW"
T_BYE = "BYE"
T_ACK = "ACK"
T_DETECTION = "DETECTION"
T_STATE = "STATE"

REQUEST_TYPES = (T_HELLO, T_REGISTER, T_HEARTBEAT, T_FLOW, T_BYE)
SERVER_TYPES = (T_ACK, T_DETECTION, T_STATE)
_KNOWN_TYPES = frozenset(REQUEST_TYPES + SERVER_TYPES)


class ProtocolError(Exception):
    """One frame was malformed; the connection remains usable."""


class FatalProtocolError(ProtocolError):
    """The byte stream itself is corrupt; the connection must close.

    ``frames`` holds what :meth:`FrameDecoder.feed` decoded from the same
    chunk *before* the corrupt header, in order: those frames were
    framed correctly, so the caller acts on them before closing.
    """

    def __init__(self, message: str,
                 frames: Optional[List[Union["Frame", ProtocolError]]] = None
                 ) -> None:
        super().__init__(message)
        self.frames = frames if frames is not None else []


class Frame:
    """One decoded protocol frame (equal to another with the same
    fields)."""

    __slots__ = ("type", "data", "version")

    def __init__(self, type: str, data: Optional[Dict[str, Any]] = None,
                 version: int = PROTOCOL_VERSION) -> None:
        self.type = type
        self.data = {} if data is None else data
        self.version = version

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.type == other.type and self.data == other.data
                and self.version == other.version)

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)


def encode_payload(type: str, **data: Any) -> Dict[str, Any]:
    """The JSON object for one frame (before framing)."""
    payload = dict(data)
    payload["v"] = PROTOCOL_VERSION
    payload["type"] = type
    return payload


#: Compact JSON encoding; built once (``json.dumps`` with non-default
#: options builds a new encoder on every call).
_encode_json = json.JSONEncoder(separators=(",", ":")).encode


def encode_frame(type: str, **data: Any) -> bytes:
    """Serialize one frame: length header plus JSON payload."""
    body = _encode_json(encode_payload(type, **data)).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(len(body)) + body


def _decode_body(body: bytes) -> Frame:
    """Parse one delimited payload into a :class:`Frame`.

    Raises :class:`ProtocolError` (recoverable — the stream is still
    framed correctly) for anything wrong *inside* the payload.
    """
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from None
    except RecursionError:
        # Under MAX_FRAME_BYTES, tens of thousands of nested brackets
        # exhaust the parser's recursion limit.
        raise ProtocolError("frame payload is nested too deeply") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    version = payload.pop("v", None)
    if type(version) is not int or version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version: {version!r}")
    frame_type = payload.pop("type", None)
    if not isinstance(frame_type, str) or frame_type not in _KNOWN_TYPES:
        raise ProtocolError(f"unknown frame type: {frame_type!r}")
    return Frame(type=frame_type, data=payload, version=version)


class FrameDecoder:
    """Incremental decoder: feed bytes, iterate frames.

    :meth:`feed` returns a list whose entries are either :class:`Frame`
    objects or :class:`ProtocolError` instances — a malformed payload is
    surfaced *in order* so the server can ACK the failure and keep
    decoding subsequent frames from the same connection.
    """

    def __init__(self, *, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self._max = max_frame_bytes
        #: Totals kept by the decoder (cheap ints; exported by the
        #: server's telemetry).
        self.frames_decoded = 0
        self.frames_rejected = 0

    def feed(self, chunk: bytes) -> List[Union[Frame, ProtocolError]]:
        """Consume ``chunk``; return every complete frame it finished.

        A corrupt length header raises :class:`FatalProtocolError`
        carrying, as ``frames``, everything decoded before it — a HELLO
        and a BYE followed by garbage still deliver that BYE.
        """
        buffer = self._buffer
        buffer.extend(chunk)
        items: List[Union[Frame, ProtocolError]] = []
        while len(buffer) >= HEADER_BYTES:
            (length,) = _HEADER.unpack_from(buffer)
            if length > self._max:
                raise FatalProtocolError(
                    f"frame length {length} exceeds the {self._max}-byte "
                    "limit; stream framing is corrupt",
                    frames=items,
                )
            end = HEADER_BYTES + length
            if len(buffer) < end:
                break
            body = bytes(buffer[HEADER_BYTES:end])
            del buffer[:end]
            try:
                frame = _decode_body(body)
            except ProtocolError as exc:
                self.frames_rejected += 1
                items.append(exc)
            else:
                self.frames_decoded += 1
                items.append(frame)
        return items
