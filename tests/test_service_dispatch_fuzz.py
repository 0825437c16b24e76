"""Dispatch fuzz: random byte streams through ``_Connection.buffer_updated``.

A stream mixes valid client frames with undecodable payloads, ill-typed
REGISTER and HEARTBEAT/FLOW fields, frames of server-only types and,
optionally, a corrupt length header at the end; it is cut into random
chunks and fed to one connection the way the transport does.  A small
model of the daemon predicts what every frame must do: the test checks
that every valid frame after a malformed one is applied, that the
malformed count is exact, that only the corrupt header closes the
connection, that no handler or check cycle raises, and that the decoder
buffer stays bounded.
"""

import asyncio
import copy
import struct

from hypothesis import given, settings, strategies as st

from repro.service import SupervisionServer
from repro.service.protocol import (
    FrameDecoder,
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    SERVER_TYPES,
    T_ACK,
    T_FLOW,
    T_HEARTBEAT,
    T_HELLO,
    T_REGISTER,
    encode_frame,
)
from repro.service.server import _READ_SIZE, _Connection
from test_service_server import make_hyp_dict

NAMES = ("p", "q")
HYPOTHESES = {name: make_hyp_dict(prefix=f"{name}.") for name in NAMES}
HEADER = struct.Struct("!I")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=5)


class _Transport:
    """What ``_Connection`` uses of an asyncio transport."""

    def __init__(self):
        self.written = bytearray()
        self.closing = False

    def write(self, data):
        self.written += data

    def get_write_buffer_size(self):
        return 0

    def is_closing(self):
        return self.closing

    def close(self):
        self.closing = True

    abort = close


class Model:
    """What the daemon must have done after the frames sent so far."""

    def __init__(self):
        self.registered = set()
        self.frames = {}
        self.acks = []
        self.malformed = 0
        self.unknown = 0
        self.rebinds = 0
        self.indications = {name: 0 for name in NAMES}
        self.task_starts = {name: 0 for name in NAMES}

    def decoded(self, frame_type):
        self.frames[frame_type] = self.frames.get(frame_type, 0) + 1


# Each part is ``(bytes, effect)``; ``effect(model)`` applies its
# expected outcome.

def _hello(client):
    def effect(model):
        model.decoded(T_HELLO)
        model.acks.append((T_HELLO, True))
    return encode_frame(T_HELLO, client=client), effect


def _register(name):
    def effect(model):
        model.decoded(T_REGISTER)
        model.rebinds += name in model.registered
        model.registered.add(name)
        model.acks.append((T_REGISTER, True))
    return encode_frame(T_REGISTER, name=name,
                        hypothesis=HYPOTHESES[name]), effect


#: Values every field of a runnable hypothesis refuses.
_BAD_RUNNABLE_FIELDS = {
    "runnable": [None, 1, "", [], {}],
    "task": [1, [], True, {}],
    "aliveness_period": [0, -1, 1.5, "2", True, None],
    "arrival_period": [0, -3, 2.5, "1", False, []],
    "min_heartbeats": [-1, 0.5, "1", None, True],
    "max_heartbeats": [-1, 8.0, "8", None, False],
    "active": [1, 0, "yes", None],
}


def _bad_hypothesis(field, value, runnable_index):
    hypothesis = copy.deepcopy(HYPOTHESES["p"])
    hypothesis["runnables"][runnable_index][field] = value
    return hypothesis


_bad_register_fields = st.one_of(
    # REGISTER's own fields
    st.builds(lambda name: {"name": name, "hypothesis": HYPOTHESES["p"]},
              st.sampled_from([None, "", 3, [], {"n": 1}])),
    st.builds(lambda hypothesis: {"name": "p", "hypothesis": hypothesis},
              json_values.filter(lambda value: not isinstance(value, dict))),
    st.builds(lambda app: {"name": "p", "hypothesis": HYPOTHESES["p"],
                           "app_of_task": app},
              st.one_of(
                  json_values.filter(
                      lambda value: value is not None
                      and not isinstance(value, dict)),
                  st.dictionaries(
                      st.text(max_size=3),
                      json_values.filter(
                          lambda value: not isinstance(value, str)),
                      min_size=1, max_size=2))),
    # the hypothesis' runnables and thresholds
    st.sampled_from(sorted(_BAD_RUNNABLE_FIELDS)).flatmap(
        lambda field: st.builds(
            lambda value, index, name: {
                "name": name,
                "hypothesis": _bad_hypothesis(field, value, index)},
            st.sampled_from(_BAD_RUNNABLE_FIELDS[field]),
            st.integers(0, 1), st.sampled_from(NAMES + ("r",)))),
    st.builds(lambda default: {"name": "r", "hypothesis": {
        **HYPOTHESES["p"], "thresholds": {"default": default,
                                          "per_type": {}}}},
              st.sampled_from([0, -2, 1.5, "3", None, True])),
    st.builds(lambda hypothesis: {"name": "r", "hypothesis": hypothesis},
              st.dictionaries(
                  st.sampled_from(["version", "runnables", "flow_pairs",
                                   "thresholds"]),
                  json_values, max_size=4)),
)


def _bad_register(fields):
    def effect(model):
        model.decoded(T_REGISTER)
        model.acks.append((T_REGISTER, False))
    return encode_frame(T_REGISTER, **fields), effect


def _valid_hb_entry(entry):
    """The shape a HEARTBEAT batch entry must have."""
    return (isinstance(entry, list) and len(entry) == 3
            and isinstance(entry[0], str) and _is_time(entry[1])
            and _is_task(entry[2]))


def _valid_flow_entry(entry):
    return (isinstance(entry, list) and len(entry) == 2
            and isinstance(entry[0], str))


def _indications(frame_type, name, batch):
    valid = _valid_hb_entry if frame_type == T_HEARTBEAT else _valid_flow_entry

    def effect(model):
        model.decoded(frame_type)
        if not isinstance(name, str) or name not in model.registered:
            model.unknown += 1
        elif not isinstance(batch, list):
            model.malformed += 1
            model.acks.append((frame_type, False))
        else:
            applied = sum(1 for entry in batch if valid(entry))
            model.malformed += len(batch) - applied
            tally = (model.indications if frame_type == T_HEARTBEAT
                     else model.task_starts)
            tally[name] += applied
    return encode_frame(frame_type, name=name, batch=batch), effect


def _malformed(body):
    def effect(model):
        model.malformed += 1
        model.acks.append((None, False))
    return HEADER.pack(len(body)) + body, effect


def _server_only(frame_type, data):
    def effect(model):
        model.decoded(frame_type)
        model.acks.append((frame_type, False))
    return encode_frame(frame_type, **data), effect


def _not(accepted):
    return json_values.filter(lambda value: not accepted(value))


def _is_time(value):
    return value is None or (isinstance(value, int)
                             and not isinstance(value, bool))


def _is_task(value):
    return value is None or isinstance(value, str)


names = st.sampled_from(NAMES * 3 + ("ghost",)) | json_values
runnables = st.sampled_from(
    [f"{name}.{runnable}" for name in NAMES for runnable in ("sense", "act")]
    + ["unknown"])
times = st.none() | st.integers(-(1 << 40), 1 << 40)
tasks = st.sampled_from([None, "T", "U"])
hb_entries = st.one_of(
    st.tuples(runnables, times, tasks).map(list),
    # exactly one field ill-typed, or the wrong length
    st.tuples(_not(lambda value: isinstance(value, str)), times,
              tasks).map(list),
    st.tuples(runnables, _not(_is_time), tasks).map(list),
    st.tuples(runnables, times, _not(_is_task)).map(list),
    st.lists(runnables, max_size=5).filter(lambda entry: len(entry) != 3),
    json_values)
flow_entries = st.one_of(
    st.tuples(st.sampled_from(["T", "U"]), json_values).map(list),
    st.tuples(_not(lambda value: isinstance(value, str)),
              json_values).map(list),
    st.lists(st.sampled_from(["T", "U"]), max_size=4).filter(
        lambda entry: len(entry) != 2),
    json_values)

parts = st.one_of(
    st.builds(_hello, st.text(max_size=8)),
    st.builds(_register, st.sampled_from(NAMES)),
    st.builds(_bad_register, _bad_register_fields),
    st.builds(_indications, st.just(T_HEARTBEAT), names,
              st.lists(hb_entries, max_size=5) | json_values),
    st.builds(_indications, st.just(T_FLOW), names,
              st.lists(flow_entries, max_size=3) | json_values),
    st.builds(_malformed, st.one_of(
        st.binary(max_size=12).map(lambda raw: b"\xff" + raw),
        st.text(max_size=12).map(lambda text: b"{" + text.encode("utf-8")),
        st.sampled_from([b"[]", b"1", b'"HELLO"', b"null",
                         b'{"v": 2, "type": "HELLO"}',
                         b'{"v": 1, "type": "PING"}',
                         b'{"type": "HEARTBEAT"}']))),
    st.builds(_server_only, st.sampled_from(SERVER_TYPES),
              st.dictionaries(
                  st.text(max_size=4).filter(
                      lambda key: key not in ("v", "type")),
                  json_values, max_size=2)),
)
corrupt_headers = st.none() | st.tuples(
    st.integers(MAX_FRAME_BYTES + 1, (1 << 32) - 1), st.binary(max_size=8))


def run_stream(stream, cuts):
    """Feed ``stream`` to one fresh connection, cut at ``cuts`` (and at
    every ``_READ_SIZE``); stops once the connection is closed, as the
    transport stops reading.  Returns the server and the connection."""
    loop = asyncio.new_event_loop()
    try:
        server = SupervisionServer(port=0, tick_interval=None)
        server._loop = loop
        conn = _Connection(server)
        conn.connection_made(_Transport())
        bounds = {0, len(stream), *(c % (len(stream) + 1) for c in cuts),
                  *range(_READ_SIZE, len(stream), _READ_SIZE)}
        bounds = sorted(bounds)
        for start, end in zip(bounds, bounds[1:]):
            if conn.transport.is_closing():
                break
            chunk = stream[start:end]
            conn.get_buffer(len(chunk))[:len(chunk)] = chunk
            conn.buffer_updated(len(chunk))
            assert len(conn.decoder._buffer) <= HEADER_BYTES + MAX_FRAME_BYTES
        return server, conn
    finally:
        loop.close()


def acks_of(written):
    return [(frame.get("re"), frame.get("ok"))
            for frame in FrameDecoder().feed(bytes(written))
            if frame.type == T_ACK]


class TestDispatchFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(parts, max_size=12), corrupt_headers,
           st.lists(st.integers(0, 1 << 16), max_size=10))
    def test_every_frame_does_what_the_model_says(self, sent, corrupt,
                                                  cuts):
        model = Model()
        stream = b""
        for raw, effect in sent:
            stream += raw
            effect(model)
        if corrupt is not None:
            length, tail = corrupt
            stream += HEADER.pack(length) + tail
            model.malformed += 1
            model.acks.append((None, False))

        server, conn = run_stream(stream, cuts)

        assert acks_of(conn.transport.written) == model.acks
        assert conn.closed is (corrupt is not None)
        if corrupt is None:
            assert not conn.decoder._buffer
        assert server.frames == model.frames
        assert server.malformed_frames == model.malformed
        assert server.telemetry.value(
            "service_malformed_frames_total") == model.malformed
        assert server.unknown_registrations == model.unknown
        assert server.register_rebinds == model.rebinds
        fleet = server.fleet
        assert set(fleet.registrations) == model.registered
        for name in model.registered:
            registration = fleet.registration(name)
            assert registration.indications == model.indications[name]
            assert registration.task_starts == model.task_starts[name]
        assert server.indications == (sum(model.indications.values())
                                      + sum(model.task_starts.values()))
        ticks = fleet.tick_count
        for cycle in range(1, 4):
            server.tick(cycle * 10)
        assert fleet.tick_count == ticks + 3
        assert server.handler_errors == 0
        assert fleet.cycle_errors == 0
