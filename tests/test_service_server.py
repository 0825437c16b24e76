"""The asyncio daemon: transport, degradation, overload, HTTP."""

import asyncio
import json
import struct
import threading
import time
from typing import Tuple

import pytest

from repro.core import FaultHypothesis, RunnableHypothesis
from repro.core.config_io import hypothesis_to_dict
from repro.core.reports import ErrorType, MonitorState
from repro.service import SupervisionServer, WatchdogClient
from repro.service.server import _MAX_PENDING_BYTES, _READ_SIZE
from repro.service.protocol import (
    FrameDecoder,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    T_ACK,
    T_BYE,
    T_DETECTION,
    T_HEARTBEAT,
    T_HELLO,
    T_REGISTER,
    T_STATE,
    encode_frame,
)
from repro.telemetry import Counter, Gauge, Histogram
from testutil import lock_is_free, until


def make_hyp_dict(prefix: str = "", task: str = "T"):
    hyp = FaultHypothesis()
    hyp.add_runnable(RunnableHypothesis(
        f"{prefix}sense", task=task, aliveness_period=2, min_heartbeats=1,
        arrival_period=2, max_heartbeats=8))
    hyp.add_runnable(RunnableHypothesis(
        f"{prefix}act", task=task, aliveness_period=2, min_heartbeats=1,
        arrival_period=2, max_heartbeats=8))
    hyp.allow_sequence([f"{prefix}sense", f"{prefix}act"])
    return hypothesis_to_dict(hyp)


async def start_server(**kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("tick_interval", None)
    server = SupervisionServer(**kwargs)
    await server.start()
    return server


async def in_thread(fn, *args):
    return await asyncio.get_running_loop().run_in_executor(None, fn, *args)


async def barrier(peer):
    """HELLO round-trip: frames are dispatched in order per connection,
    and each indication is applied as its frame is dispatched, so once
    the ACK arrives every prior indication has been applied."""
    await peer.send(T_HELLO, client="barrier")
    ack = await peer.recv_frame()
    assert ack.get("ok")


class _WireClient:
    """A raw protocol peer driven from inside the event loop."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.decoder = FrameDecoder()
        self.frames = []

    @classmethod
    async def connect(cls, server):
        reader, writer = await asyncio.open_connection(
            server.host, server.port)
        return cls(reader, writer)

    async def send(self, type, **data):
        self.writer.write(encode_frame(type, **data))
        await self.writer.drain()

    async def send_raw(self, payload: bytes):
        self.writer.write(payload)
        await self.writer.drain()

    async def recv_frame(self, timeout=5.0):
        while not self.frames:
            chunk = await asyncio.wait_for(
                self.reader.read(65536), timeout=timeout)
            assert chunk, "server closed the connection"
            self.frames.extend(self.decoder.feed(chunk))
        return self.frames.pop(0)

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class TestWireServer:
    def test_bye_ahead_of_corrupt_header_is_dispatched(self):
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send(T_HELLO, client="it")
            assert (await peer.recv_frame()).get("ok")
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            await peer.send_raw(encode_frame(T_BYE)
                                + struct.pack("!I", MAX_FRAME_BYTES + 1))
            ack = await peer.recv_frame()
            assert ack.get("ok") and ack.get("re") == T_BYE
            await peer.close()
            await until(lambda: not server._connections,
                        message="the server to notice the EOF")
            assert not server.fleet.registration("p").active
            await server.stop()

        asyncio.run(scenario())

    def test_corrupt_header_closes_after_acking_preceding_frames(self):
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send_raw(encode_frame(T_HELLO, client="it")
                                + struct.pack("!I", MAX_FRAME_BYTES + 1))
            hello = await peer.recv_frame()
            assert hello.get("ok") and hello.get("re") == T_HELLO
            error = await peer.recv_frame()
            assert not error.get("ok") and "framing" in error.get("error")
            assert await peer.reader.read(65536) == b""
            await peer.close()
            assert server.telemetry.value(
                "service_malformed_frames_total") == 1
            await server.stop()

        asyncio.run(scenario())

    def test_hello_register_heartbeat_bye(self):
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send(T_HELLO, client="it")
            ack = await peer.recv_frame()
            assert ack.type == T_ACK and ack.get("ok")
            assert ack.get("server") == server.name
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            ack = await peer.recv_frame()
            assert ack.get("ok") and ack.get("rebound") is False
            await peer.send(T_HEARTBEAT, name="p",
                            batch=[["sense", 5, "T"], ["act", 6, "T"]])
            await barrier(peer)
            registration = server.fleet.registration("p")
            assert registration.indications == 2
            await peer.send(T_BYE)
            ack = await peer.recv_frame()
            assert ack.get("ok") and ack.get("re") == T_BYE
            await peer.close()
            await until(lambda: not server._connections,
                        message="the server to notice the EOF")
            assert not registration.active
            await server.stop()
        asyncio.run(scenario())

    def test_malformed_payload_gets_error_ack_connection_survives(self):
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send_raw(struct.pack("!I", 9) + b"{not json")
            ack = await peer.recv_frame()
            assert ack.type == T_ACK and not ack.get("ok")
            # The same connection still works afterwards.
            await peer.send(T_HELLO, client="still-here")
            ack = await peer.recv_frame()
            assert ack.get("ok")
            assert server.telemetry.counter(
                "service_malformed_frames_total").value == 1
            await peer.close()
            await server.stop()
        asyncio.run(scenario())

    def test_corrupt_length_header_closes_connection(self):
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send_raw(struct.pack("!I", 1 << 30) + b"junk")
            ack = await peer.recv_frame()
            assert not ack.get("ok")
            chunk = await asyncio.wait_for(peer.reader.read(65536), timeout=5)
            assert chunk == b""  # server hung up: framing is unrecoverable
            await peer.close()
            await server.stop()
        asyncio.run(scenario())

    def test_register_rejections(self):
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, hypothesis=make_hyp_dict())
            assert not (await peer.recv_frame()).get("ok")  # missing name
            await peer.send(T_REGISTER, name="p", hypothesis="nope")
            assert not (await peer.recv_frame()).get("ok")  # not an object
            await peer.send(T_REGISTER, name="p", hypothesis={"version": 9})
            nack = await peer.recv_frame()
            assert not nack.get("ok")
            assert "invalid hypothesis" in nack.get("error")
            await peer.close()
            await server.stop()
        asyncio.run(scenario())

    def test_duplicate_register_takes_over_idempotently(self):
        """Regression: a reconnecting client replays REGISTER before the
        server notices its old (half-open) connection died.  That used
        to be rejected as "bound to a live connection", stranding the
        client; now the identical hypothesis rebinds idempotently and
        the new connection takes over the push channel."""
        async def scenario():
            server = await start_server()
            old = await _WireClient.connect(server)
            await old.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            first = await old.recv_frame()
            assert first.get("ok")
            assert first.get("rebound") is False
            first_conn = server._conn_of["p"]
            new = await _WireClient.connect(server)
            await new.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            ack = await new.recv_frame()
            assert ack.get("ok")
            assert ack.get("rebound") is True
            # Exactly one registration — the REGISTER was idempotent.
            assert len(server.fleet.registrations) == 1
            # The push channel follows the newest connection; the stale
            # binding no longer claims the registration.
            assert server._conn_of["p"] is not first_conn
            assert "p" not in first_conn.registrations
            await old.close()
            await new.close()
            await server.stop()
        asyncio.run(scenario())

    def test_duplicate_register_different_hypothesis_still_rejected(self):
        async def scenario():
            server = await start_server()
            owner = await _WireClient.connect(server)
            await owner.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await owner.recv_frame()).get("ok")
            thief = await _WireClient.connect(server)
            other = make_hyp_dict()
            other["runnables"][0]["aliveness_period"] = 99
            await thief.send(T_REGISTER, name="p", hypothesis=other)
            nack = await thief.recv_frame()
            assert not nack.get("ok")
            assert "different hypothesis" in nack.get("error")
            await owner.close()
            await thief.close()
            await server.stop()
        asyncio.run(scenario())

    def test_duplicate_register_different_app_map_rejected(self):
        async def scenario():
            server = await start_server()
            owner = await _WireClient.connect(server)
            await owner.send(T_REGISTER, name="p", hypothesis=make_hyp_dict(),
                             app_of_task={"T": "appA"})
            assert (await owner.recv_frame()).get("ok")
            other = await _WireClient.connect(server)
            await other.send(T_REGISTER, name="p", hypothesis=make_hyp_dict(),
                             app_of_task={"T": "appB"})
            nack = await other.recv_frame()
            assert not nack.get("ok")
            assert "app_of_task" in nack.get("error")
            assert not server.telemetry.value(
                "service_register_rebinds_total")
            tsi = server.fleet.registration("p").watchdog.tsi
            assert tsi.app_of_task == {"T": "appA"}
            await owner.close()
            await other.close()
            await server.stop()
        asyncio.run(scenario())

    def test_server_only_frame_from_client_nacked(self):
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send(T_DETECTION, name="p")
            nack = await peer.recv_frame()
            assert not nack.get("ok")
            assert "may not send" in nack.get("error")
            await peer.close()
            await server.stop()
        asyncio.run(scenario())

    def test_null_heartbeat_time_stamped_by_server(self):
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            await peer.recv_frame()
            await peer.send(T_HEARTBEAT, name="p", batch=[["sense", None, "T"]])
            await barrier(peer)
            assert server.fleet.registration("p").indications == 1
            await peer.close()
            await server.stop()
        asyncio.run(scenario())

    def test_non_string_task_is_malformed_not_a_handler_error(self):
        """Regression: the HEARTBEAT ``task`` field reached the watchdog
        unchecked.  A list there raised inside the table after the
        indication had been counted, and surfaced as a handler error
        instead of a malformed entry."""
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            registration = server.fleet.registration("p")
            await peer.send(T_HEARTBEAT, name="p", batch=[
                ["sense", 1, ["T"]], ["act", 2, {"T": 1}], ["sense", 3, 7],
                ["act", 4, True],
            ])
            await barrier(peer)
            assert server.telemetry.value(
                "service_malformed_frames_total") == 4
            assert server.handler_errors == 0
            assert registration.indications == 0
            # A null task stays valid.
            await peer.send(T_HEARTBEAT, name="p", batch=[["sense", 5, None]])
            await barrier(peer)
            assert registration.indications == 1
            assert server.telemetry.value(
                "service_malformed_frames_total") == 4
            await peer.close()
            await server.stop()
        asyncio.run(scenario())


class TestDegradation:
    def test_disconnect_without_bye_becomes_missed_heartbeats(self):
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            await peer.send(T_HEARTBEAT, name="p",
                            batch=[["sense", 1, "T"], ["act", 2, "T"]])
            await barrier(peer)
            await peer.close()  # vanish without BYE
            registration = server.fleet.registration("p")
            await until(lambda: not registration.connected,
                        message="the server to notice the EOF")
            assert registration.active  # NOT deactivated: crash suspected
            assert not registration.connected
            detections = []
            server.fleet.add_detection_listener(
                lambda name, e: detections.append(e))
            for cycle in range(1, 16):
                server.tick(cycle * 10)
            assert any(e.error_type is ErrorType.ALIVENESS for e in detections)
            assert server.fleet.registration_states()["p"] is MonitorState.FAULTY
            assert server.telemetry.counter(
                "service_disconnects_total", graceful="false").value == 1
            await server.stop()
        asyncio.run(scenario())


class TestSdkAgainstServer:
    def test_sdk_register_heartbeat_detection_push(self):
        async def scenario():
            server = await start_server()
            address = (server.host, server.port)

            def client_setup():
                client = WatchdogClient(address, client_name="sdk",
                                        batch_size=4)
                client.connect()
                ack = client.register("p", make_hyp_dict())
                assert ack["rebound"] is False
                for t in (10, 20, 30):
                    client.task_start("T", t)
                    client.heartbeat("sense", t, "T")
                    client.heartbeat("act", t + 1, "T")
                assert client.sync()
                return client

            client = await in_thread(client_setup)
            assert server.tick(100) == []
            for t in (200, 300, 400, 500):
                server.tick(t)

            def pushed():
                client.poll()
                return client.detections and any(
                    state["scope"] == "fleet" for state in client.states)

            await until(pushed, message="the DETECTION and STATE pushes")
            assert client.detections
            assert {d["error_type"] for d in client.detections} == {"aliveness"}
            scopes = {s["scope"] for s in client.states}
            assert "fleet" in scopes
            await in_thread(client.close)
            await until(lambda: not server._connections,
                        message="the server to notice the EOF")
            assert not server.fleet.registration("p").active
            await server.stop()
        asyncio.run(scenario())

    def test_sdk_reconnect_replay_rebinds_with_its_app_map(self):
        async def scenario():
            server = await start_server()
            address = (server.host, server.port)

            def reconnect():
                client = WatchdogClient(
                    address, client_name="sdk", backoff_initial=0.001,
                    backoff_max=0.002, backoff_jitter=0.0)
                client.connect()
                client.register("p", make_hyp_dict(),
                                app_of_task={"T": "appA"})
                client._drop_connection()  # a broken pipe
                assert client._reconnect()
                return client

            client = await in_thread(reconnect)
            assert server.telemetry.value(
                "service_register_rebinds_total") == 1
            registration = server.fleet.registration("p")
            assert registration.connected
            assert registration.watchdog.tsi.app_of_task == {"T": "appA"}
            await in_thread(client.close)
            await server.stop()
        asyncio.run(scenario())

    def test_sync_means_applied(self):
        async def scenario():
            server = await start_server()
            address = (server.host, server.port)
            sent = 300

            def client_work():
                client = WatchdogClient(address, client_name="sync",
                                        batch_size=64)
                client.connect()
                client.register("p", make_hyp_dict())
                for t in range(sent):
                    client.heartbeat("sense", t, "T")
                assert client.sync()
                return client

            client = await in_thread(client_work)
            # sync() returning is itself the guarantee.
            assert server.fleet.registration("p").indications == sent
            await in_thread(client.close)
            await server.stop()
        asyncio.run(scenario())

    def test_unix_socket_transport(self, tmp_path):
        async def scenario():
            path = str(tmp_path / "wd.sock")
            server = SupervisionServer(unix_path=path, tick_interval=None)
            await server.start()

            def client_work():
                with WatchdogClient(path, client_name="unix") as client:
                    client.register("p", make_hyp_dict())
                    client.heartbeat("sense", 1, "T")
                    assert client.sync()
                return True

            assert await in_thread(client_work)
            assert server.fleet.registration("p").indications == 1
            await server.stop()
            import os
            assert not os.path.exists(path)  # unlinked on stop
        asyncio.run(scenario())


async def frames_until_hello_ack(peer):
    """Every frame the server sent ``peer`` ahead of a HELLO ACK: the
    pushes of every check cycle run before the HELLO was sent."""
    await peer.send(T_HELLO, client="barrier")
    frames = []
    while True:
        frame = await peer.recv_frame()
        if frame.type == T_ACK and frame.get("re") == T_HELLO:
            return frames
        frames.append(frame)


def ecu_pushes(frames, name):
    return [(frame.get("old_state"), frame.get("state")) for frame in frames
            if frame.type == T_STATE and frame.get("scope") == "ecu"
            and frame.get("subject") == name]


def tick_silent(server, names, first_cycle=1, cycles=12):
    """Run check cycles over silent registrations; each one's ECU
    transitions as its TSI reported them."""
    transitions = {name: [] for name in names}
    for name in names:
        server.fleet.registration(name).watchdog.tsi.add_ecu_state_listener(
            lambda change, seen=transitions[name]: seen.append(
                (change.old_state.value, change.new_state.value)))
    for cycle in range(first_cycle, first_cycle + cycles):
        server.tick(cycle * 10)
    for seen in transitions.values():
        assert seen, "a silent registration must change ECU state"
    return transitions


class TestEcuStatePush:
    """The owner of a registration gets exactly one ``scope="ecu"``
    STATE frame per ECU-state transition of that registration's TSI,
    however the registration came to be on the table."""

    def test_live_registration(self):
        async def scenario():
            server = await start_server()
            owner = await _WireClient.connect(server)
            await owner.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await owner.recv_frame()).get("ok")
            transitions = tick_silent(server, ["p"])
            frames = await frames_until_hello_ack(owner)
            assert ecu_pushes(frames, "p") == transitions["p"]
            await owner.close()
            await server.stop()
        asyncio.run(scenario())

    def test_first_error_pushes_suspicious_then_faulty(self):
        """The first detection makes the ECU suspicious and the push
        says so; the threshold crossing then moves it on from there."""
        async def scenario():
            server = await start_server()
            owner = await _WireClient.connect(server)
            await owner.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await owner.recv_frame()).get("ok")
            for cycle in range(1, 13):
                server.tick(cycle * 10)
            frames = await frames_until_hello_ack(owner)
            assert ecu_pushes(frames, "p") == [
                ("ok", "suspicious"), ("suspicious", "faulty")]
            await owner.close()
            await server.stop()
        asyncio.run(scenario())

    def test_rebind_from_a_second_connection_pushes_once(self):
        async def scenario():
            server = await start_server()
            old = await _WireClient.connect(server)
            await old.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await old.recv_frame()).get("ok")
            new = await _WireClient.connect(server)
            await new.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await new.recv_frame()).get("rebound") is True
            transitions = tick_silent(server, ["p"])
            assert ecu_pushes(await frames_until_hello_ack(new), "p") == \
                transitions["p"]
            assert ecu_pushes(await frames_until_hello_ack(old), "p") == []
            await old.close()
            await new.close()
            await server.stop()
        asyncio.run(scenario())

    def test_after_restart_from_snapshot_and_journal(self, tmp_path):
        state_dir = str(tmp_path / "state")

        async def scenario():
            server = await start_server(state_dir=state_dir,
                                        snapshot_interval=None)
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            server.write_snapshot()
            # q reaches the restarted daemon through the journal only.
            await peer.send(T_REGISTER, name="q",
                            hypothesis=make_hyp_dict("q."))
            assert (await peer.recv_frame()).get("ok")
            await peer.close()
            await server.stop(save=False)

            revived = await start_server(state_dir=state_dir,
                                         snapshot_interval=None)
            owner = await _WireClient.connect(revived)
            for name, prefix in (("p", ""), ("q", "q.")):
                await owner.send(T_REGISTER, name=name,
                                 hypothesis=make_hyp_dict(prefix))
                assert (await owner.recv_frame()).get("rebound") is True
            transitions = tick_silent(revived, ["p", "q"])
            frames = await frames_until_hello_ack(owner)
            for name in ("p", "q"):
                assert ecu_pushes(frames, name) == transitions[name]
            await owner.close()
            await revived.stop()
        asyncio.run(scenario())


class TestShutdown:
    def test_stop_waits_for_an_in_flight_periodic_snapshot(self, tmp_path):
        """Regression: stop() cancelled the snapshot loop while its
        commit (fsync and rename) was still running in a worker thread,
        then wrote the final snapshot itself.  The older file could land
        last, after the final snapshot had truncated the journal, and
        every REGISTER in between was lost on restart."""
        state_dir = str(tmp_path / "state")

        async def scenario():
            server = await start_server(state_dir=state_dir,
                                        snapshot_interval=0.01)
            commit = server.store.write_snapshot_payload
            started, finished = threading.Event(), threading.Event()

            def slow_off_loop_commit(snapshot):
                if threading.current_thread() is threading.main_thread():
                    commit(snapshot)
                    return
                started.set()
                time.sleep(0.2)
                commit(snapshot)
                finished.set()

            server.store.write_snapshot_payload = slow_off_loop_commit
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            assert await in_thread(started.wait, 5)
            await peer.send(T_REGISTER, name="q",
                            hypothesis=make_hyp_dict("q"))
            assert (await peer.recv_frame()).get("ok")
            await peer.close()
            await server.stop()
            assert await in_thread(finished.wait, 5)
            restarted = await start_server(state_dir=state_dir,
                                           snapshot_interval=None)
            assert set(restarted.fleet.registrations) == {"p", "q"}
            await restarted.stop()
        asyncio.run(scenario())


def wide_hyp_dict(runnables: int = 64):
    # One-cycle windows and no heartbeats: every runnable detects every
    # check cycle, so each tick pushes one DETECTION per runnable.
    hyp = FaultHypothesis()
    names = [f"r{index}" for index in range(runnables)]
    for name in names:
        hyp.add_runnable(RunnableHypothesis(
            name, task="T", aliveness_period=1, min_heartbeats=1))
    hyp.allow_sequence(names)
    return hypothesis_to_dict(hyp)


async def connect_stalled(server, client):
    """A ``watch=true`` peer that reads its HELLO ACK and nothing after,
    with its server-side connection."""
    peer = await _WireClient.connect(server)
    await peer.send(T_HELLO, client=client, watch=True)
    assert (await peer.recv_frame()).get("ok")
    conn = next(c for c in server._connections if c.client_name == client)
    return peer, conn


async def count_detections_until_hello_ack(peer):
    detections = 0
    while True:
        frame = await peer.recv_frame()
        if frame.type == T_DETECTION:
            detections += 1
        elif frame.type == T_ACK and frame.get("re") == T_HELLO:
            return detections


class TestSlowConsumers:
    REGISTRATIONS = 20

    def test_peer_that_stops_reading_is_aborted_at_the_cap(self):
        """A ``watch=true`` peer that never reads is aborted once the
        daemon holds more than ``_MAX_PENDING_BYTES`` for it, and the
        buffer never grows past the cap plus one frame.  A reading
        watcher on the same daemon still receives every DETECTION."""
        async def scenario():
            server = await start_server()
            reader = await _WireClient.connect(server)
            await reader.send(T_HELLO, client="reader", watch=True)
            assert (await reader.recv_frame()).get("ok")
            for index in range(self.REGISTRATIONS):
                await reader.send(T_REGISTER, name=f"app{index}",
                                  hypothesis=wide_hyp_dict())
                assert (await reader.recv_frame()).get("ok")
            reader_output = next(iter(server._connections)).transport
            stalled, conn = await connect_stalled(server, "stalled")
            transport = conn.transport
            write = transport.write
            peak = largest = 0

            def recording_write(data):
                nonlocal peak, largest
                write(data)
                peak = max(peak, transport.get_write_buffer_size())
                largest = max(largest, len(data))

            transport.write = recording_write
            raised = []
            server.fleet.add_detection_listener(
                lambda name, error: raised.append(name))
            consumer = asyncio.ensure_future(
                count_detections_until_hello_ack(reader))

            async def tick():
                nonlocal cycle
                cycle += 1
                server.tick(cycle * 10)
                # The reader shares this loop: let it keep up.
                await until(lambda: not reader_output.get_write_buffer_size(),
                            interval=0.001, message="the reader to keep up")

            cycle = 0
            while not conn.closed and cycle < 500:
                await tick()
            assert conn.closed, "the stalled peer was never aborted"
            assert peak <= _MAX_PENDING_BYTES + largest
            assert server.telemetry.value(
                "service_overflow_aborts_total") == 1
            await until(lambda: conn not in server._connections,
                        message="the server to drop the aborted peer")
            assert server.telemetry.counter(
                "service_disconnects_total", graceful="false").value == 1
            for _ in range(3):
                await tick()
            await reader.send(T_HELLO, client="reader", watch=True)
            assert await consumer == len(raised)
            assert len(raised) == cycle * self.REGISTRATIONS * 64
            await reader.close()
            await stalled.close()
            await server.stop()
        asyncio.run(scenario())

    def test_aborted_owner_leaves_its_registrations_active(self):
        async def scenario():
            server = await start_server()
            owner = await _WireClient.connect(server)
            await owner.send(T_REGISTER, name="p", hypothesis=wide_hyp_dict())
            assert (await owner.recv_frame()).get("ok")
            registration = server.fleet.registration("p")
            conn = next(iter(server._connections))
            cycle = 0
            while not conn.closed and cycle < 5000:
                cycle += 1
                server.tick(cycle * 10)
                await asyncio.sleep(0)
            assert conn.closed, "the owner was never aborted"
            await until(lambda: not registration.connected,
                        message="the server to drop the aborted owner")
            assert registration.active
            await owner.close()
            await server.stop()
        asyncio.run(scenario())

    def test_stop_does_not_hang_on_a_peer_that_does_not_read(self, tmp_path):
        """Regression: closing a connection waited for its unsent bytes
        to flush, so stop() never returned while a peer held a backlog,
        and the final snapshot and the lock release never happened."""
        state_dir = tmp_path / "state"

        async def scenario():
            server = await start_server(state_dir=str(state_dir),
                                        snapshot_interval=None)
            owner = await _WireClient.connect(server)
            await owner.send(T_REGISTER, name="p", hypothesis=wide_hyp_dict())
            assert (await owner.recv_frame()).get("ok")
            await owner.close()
            await until(lambda: not server._connections,
                        message="the server to notice the EOF")
            stalled, conn = await connect_stalled(server, "stalled")
            transport = conn.transport
            cycle = 0
            while transport.get_write_buffer_size() == 0 and cycle < 5000:
                cycle += 1
                server.tick(cycle * 10)
                await asyncio.sleep(0)
            assert not conn.closed and transport.get_write_buffer_size()
            assert not lock_is_free(state_dir)
            await asyncio.wait_for(server.stop(), timeout=5.0)
            assert (state_dir / "snapshot.json").exists()
            assert lock_is_free(state_dir)
            await stalled.close()
        asyncio.run(scenario())


class TestHttp:
    def test_metrics_and_healthz(self):
        async def scenario():
            server = await start_server(http_port=0)
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            await peer.recv_frame()
            await peer.send(T_HEARTBEAT, name="p", batch=[["sense", 1, "T"]])
            await barrier(peer)
            server.tick(10)

            async def http_get(path):
                reader, writer = await asyncio.open_connection(
                    server.host, server.http_port)
                writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode())
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(-1), timeout=5)
                writer.close()
                await writer.wait_closed()
                head, _, body = raw.partition(b"\r\n\r\n")
                return head.decode("latin-1"), body.decode()

            head, body = await http_get("/metrics")
            assert "200 OK" in head
            assert "service_indications_total 1" in body
            assert "# TYPE service_tick_duration_seconds histogram" in body
            assert "wd_hbm_heartbeats_total" in body  # watchdog units share it

            head, body = await http_get("/healthz")
            assert "200 OK" in head
            health = json.loads(body)
            assert health["status"] == "ok"
            assert health["registrations"] == 1

            head, _ = await http_get("/nope")
            assert "404" in head
            await peer.close()
            await server.stop()
        asyncio.run(scenario())

    def test_every_service_count_is_read_at_export(self, tmp_path):
        """Each ``service_*`` series reads the daemon's own tally; the
        only instrument the daemon pushes is the tick histogram."""
        async def scenario():
            server = await start_server(state_dir=str(tmp_path / "state"),
                                        snapshot_interval=None)
            first = await _WireClient.connect(server)
            await first.send(T_HELLO, client="first")
            assert (await first.recv_frame()).get("ok")
            await first.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await first.recv_frame()).get("ok")
            await first.send_raw(struct.pack("!I", 3) + b"{{{")
            assert not (await first.recv_frame()).get("ok")
            await first.send(T_HEARTBEAT, name="ghost",
                             batch=[["sense", 1, "T"]])
            await first.send(T_HEARTBEAT, name="p",
                             batch=[["sense", 1, "T"], ["act", 2, "T"]])
            await barrier(first)
            second = await _WireClient.connect(server)
            await second.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await second.recv_frame()).get("rebound")
            await second.send(T_BYE)
            assert (await second.recv_frame()).get("ok")
            await first.close()
            await second.close()
            await until(lambda: not server._connections,
                        message="both connections to close")
            server.tick(10)
            metrics = server.telemetry.render_prometheus()
            pushed = {series.name for series in server.telemetry.instruments()
                      if isinstance(series, (Counter, Gauge, Histogram))
                      and series.name.startswith("service_")}
            await server.stop()
            return metrics, pushed

        metrics, pushed = asyncio.run(scenario())
        assert pushed == {"service_tick_duration_seconds"}
        series = dict(line.rsplit(" ", 1) for line in metrics.splitlines()
                      if line.startswith("service_")
                      and not line.startswith("service_tick_duration"))
        assert series == {
            "service_connections": "0",
            "service_registrations": "1",
            "service_missed_ticks_total": "0",
            "service_pushes_dropped_total": "0",
            "service_handler_errors_total": "0",
            "service_snapshots_total": "0",
            "service_snapshot_failures_total": "0",
            'service_frames_total{type="BYE"}': "1",
            'service_frames_total{type="HEARTBEAT"}': "2",
            'service_frames_total{type="HELLO"}': "2",
            'service_frames_total{type="REGISTER"}': "2",
            "service_malformed_frames_total": "1",
            "service_indications_total": "2",
            "service_unknown_registration_total": "1",
            'service_disconnects_total{graceful="false"}': "1",
            'service_disconnects_total{graceful="true"}': "1",
            "service_journal_records_total": "3",
            "service_overflow_aborts_total": "0",
            "service_register_rebinds_total": "1",
        }

    def test_post_rejected(self):
        async def scenario():
            server = await start_server(http_port=0)
            reader, writer = await asyncio.open_connection(
                server.host, server.http_port)
            writer.write(b"POST /metrics HTTP/1.0\r\n\r\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(-1), timeout=5)
            assert b"405" in raw
            writer.close()
            await writer.wait_closed()
            await server.stop()
        asyncio.run(scenario())

    @pytest.mark.parametrize("length", [70_000, 1_000_000])
    def test_oversized_request_line_answered_431(self, length):
        # A line past the 64 KiB stream limit makes readline() raise; the
        # daemon must still answer, count it, and keep serving.  At 1 MB
        # most of the request is still unread when the reply is sent.
        async def scenario():
            server = await start_server(http_port=0)

            async def http_request(request):
                reader, writer = await asyncio.open_connection(
                    server.host, server.http_port)
                writer.write(request)
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(-1), timeout=5)
                writer.close()
                await writer.wait_closed()
                return raw

            raw = await http_request(
                b"GET /" + b"a" * length + b" HTTP/1.0\r\n\r\n")
            assert raw.startswith(b"HTTP/1.0 431 ")
            raw = await http_request(b"GET /healthz HTTP/1.0\r\n\r\n")
            assert raw.startswith(b"HTTP/1.0 200 OK")
            raw = await http_request(b"GET /metrics HTTP/1.0\r\n\r\n")
            assert b"service_malformed_frames_total 1" in raw
            await server.stop()
        asyncio.run(scenario())


class TestTicker:
    def test_real_time_ticker_drives_check_cycles(self):
        async def scenario():
            server = await start_server(tick_interval=0.005)
            await until(lambda: server.fleet.stats()["ticks"] >= 5,
                        message="five check cycles")
            await server.stop()
            assert server.fleet.stats()["ticks"] >= 5
        asyncio.run(scenario())

    @pytest.mark.parametrize("tick_interval", [0.0, -0.01, float("nan")])
    def test_rejects_non_positive_tick_interval(self, tick_interval):
        # A zero period used to kill the ticker on `late // period` and
        # leave a daemon that never runs a check cycle.
        with pytest.raises(ValueError, match="tick_interval"):
            SupervisionServer(port=0, tick_interval=tick_interval)

    def test_needs_some_listener(self):
        with pytest.raises(ValueError):
            SupervisionServer()

    def test_protocol_version_pinned(self):
        # The ACK path asserts v=1 framing end to end; a bump must be
        # deliberate.
        assert PROTOCOL_VERSION == 1


class TestQueueAccounting:
    """Failure accounting on the ingest path: nothing a handler does may
    stop the indications behind it from being applied."""

    def test_poisoned_indication_spares_the_rest_of_its_frame(self):
        """A handler exception on one indication is counted as a handler
        error, and the indications after it in the same frame are still
        applied."""
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            table = server.fleet
            original = table.heartbeat

            def exploding(registration, runnable, time, task=None):
                if runnable == "poison":
                    raise RuntimeError("boom")
                original(registration, runnable, time, task)

            table.heartbeat = exploding
            await peer.send(T_HEARTBEAT, name="p", batch=[
                ["sense", 1, "T"], ["poison", 2, "T"], ["act", 3, "T"],
            ])
            await barrier(peer)
            assert server.handler_errors == 1
            assert server.telemetry.counter(
                "service_handler_errors_total").value == 1
            # The items after the poison were still applied.
            assert server.fleet.registration("p").indications == 2
            assert server.health()["handler_errors"] == 1
            await peer.close()
            await server.stop()
        asyncio.run(scenario())


def flood_hyp_dict():
    # Bounds no flood can violate: the test is about ingest, not detection.
    hyp = FaultHypothesis()
    hyp.add_runnable(RunnableHypothesis(
        "hot", task="T", aliveness_period=1_000_000, min_heartbeats=1,
        arrival_period=1_000_000, max_heartbeats=10 ** 9))
    return hypothesis_to_dict(hyp)


async def longest_loop_stall(stop: asyncio.Event) -> Tuple[float, float]:
    """Longest time the event loop went without running this task, in
    seconds: an upper bound on any one synchronous step of the daemon,
    such as applying one socket chunk.

    Also returns the process CPU time spent over that longest stall.
    A stall that held about as much CPU as wall time was the daemon's
    own work; one that held far less was the host descheduling the
    process."""
    longest = cpu_during_longest = 0.0
    last, last_cpu = time.perf_counter(), time.process_time()
    while not stop.is_set():
        await asyncio.sleep(0)
        now, now_cpu = time.perf_counter(), time.process_time()
        if now - last > longest:
            longest, cpu_during_longest = now - last, now_cpu - last_cpu
        last, last_cpu = now, now_cpu
    return longest, cpu_during_longest


class TestOverload:
    FRAMES = 1_280
    PER_FRAME = 16  # 20,480 indications

    def test_flood_is_applied_in_full_and_ticker_keeps_time(self):
        """A peer that writes without waiting for the daemon is held
        back by TCP flow control, not by dropping: the whole flood is
        applied, the connection still answers a HELLO, and the 10 ms
        check cycle misses at most one tick."""
        total = self.FRAMES * self.PER_FRAME

        async def scenario():
            server = await start_server(tick_interval=0.01)
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=flood_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            stop = asyncio.Event()
            probe = asyncio.ensure_future(longest_loop_stall(stop))
            frame = encode_frame(T_HEARTBEAT, name="p",
                                 batch=[["hot", None, "T"]] * self.PER_FRAME)
            peer.writer.write(frame * self.FRAMES)  # no drain, no ACK wait
            await barrier(peer)
            stop.set()
            stall, stall_cpu = await probe
            print(f"\nflood: {total} indications, longest loop stall "
                  f"{stall * 1e3:.2f} ms ({stall_cpu * 1e3:.2f} ms CPU), "
                  f"{server.missed_ticks} missed ticks")
            assert server.fleet.registration("p").indications == total
            assert server.telemetry.value("service_indications_total") == total
            health = server.health()
            assert (health["dropped"], health["queued"]) == (0, 0)
            assert server.missed_ticks <= 1
            await peer.close()
            await server.stop()
        asyncio.run(scenario())


async def assert_still_ticking(server, cycles=20):
    """The real-time ticker is alive: ``cycles`` more check cycles run."""
    target = server.fleet.stats()["ticks"] + cycles
    await until(lambda: server.fleet.stats()["ticks"] >= target, timeout=5,
                message=f"{cycles} more check cycles")


def bad_hypotheses():
    """``(case, hypothesis dict)`` for every ill-typed field the parser
    must reject."""
    def with_runnable(**fields):
        hyp = make_hyp_dict()
        hyp["runnables"][0].update(fields)
        return hyp

    def with_thresholds(**fields):
        hyp = make_hyp_dict()
        hyp["thresholds"].update(fields)
        return hyp

    return [
        ("float period", with_runnable(aliveness_period=2.5)),
        ("bool period", with_runnable(arrival_period=True)),
        ("string bound", with_runnable(min_heartbeats="1")),
        ("null bound", with_runnable(max_heartbeats=None)),
        ("list task", with_runnable(task=["x"])),
        ("int runnable", with_runnable(runnable=7)),
        ("empty runnable", with_runnable(runnable="")),
        ("int active", with_runnable(active=1)),
        ("float threshold", with_thresholds(default=2.5)),
        ("bool threshold", with_thresholds(per_type={"aliveness": True})),
        ("list per_type", with_thresholds(per_type=[])),
    ]


class TestRegisterValidation:
    """A REGISTER the supervision table cannot use is refused with an
    error ACK; it must never be admitted and break a later check cycle."""

    def test_non_string_application_is_rejected_and_ticker_survives(self):
        """Regression: ``app_of_task={"T": ["x"]}`` was ACKed, and the
        registration's first detection raised inside the check cycle,
        which killed the ticker: supervision stopped for everyone."""
        async def scenario():
            server = await start_server(tick_interval=0.005)
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="bad",
                            hypothesis=make_hyp_dict(),
                            app_of_task={"T": ["x"]})
            nack = await peer.recv_frame()
            assert not nack.get("ok") and "app_of_task" in nack.get("error")
            assert server.fleet.registration("bad") is None
            await peer.send(T_REGISTER, name="good",
                            hypothesis=make_hyp_dict(),
                            app_of_task={"T": "App"})
            assert (await peer.recv_frame()).get("ok")
            # "good" is silent: it detects, and the ticker keeps going.
            await until(lambda: server.fleet.registration("good").detections,
                        timeout=5, message="a detection")
            await assert_still_ticking(server)
            await peer.close()
            await server.stop()
        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "hypothesis", [hyp for _, hyp in bad_hypotheses()],
        ids=[case for case, _ in bad_hypotheses()])
    def test_ill_typed_hypothesis_is_rejected(self, hypothesis):
        async def scenario():
            server = await start_server(tick_interval=0.005)
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="bad", hypothesis=hypothesis)
            nack = await peer.recv_frame()
            assert not nack.get("ok")
            assert "invalid hypothesis" in nack.get("error")
            assert server.fleet.registration("bad") is None
            await assert_still_ticking(server)
            await peer.close()
            await server.stop()
        asyncio.run(scenario())


class _HbmFailingOnce:
    """Stands in for a watchdog's HBM unit: the first check cycle raises,
    everything else is the real unit's."""

    def __init__(self, hbm):
        self._hbm = hbm
        self.failed = False

    def cycle(self, time):
        if not self.failed:
            self.failed = True
            raise RuntimeError("boom")
        return self._hbm.cycle(time)

    def __getattr__(self, name):
        return getattr(self._hbm, name)


class TestCheckCycleIsolation:
    def test_failing_cycle_costs_only_its_own_registration(self):
        """Three silent registrations; one watchdog's check cycle raises
        once.  It loses that cycle, the other two detect exactly as
        usual, and the failure is one handler error."""
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            for name in ("a", "b", "c"):
                await peer.send(T_REGISTER, name=name,
                                hypothesis=make_hyp_dict())
                assert (await peer.recv_frame()).get("ok")
            watchdog = server.fleet.registration("b").watchdog
            watchdog.hbm = _HbmFailingOnce(watchdog.hbm)
            for cycle in range(1, 5):
                server.tick(cycle * 10)
            detections = {name: server.fleet.registration(name).detections
                          for name in ("a", "b", "c")}
            # Two runnables, aliveness windows of two cycles: two
            # windows in four cycles, one window in b's remaining three.
            assert detections == {"a": 4, "b": 2, "c": 4}
            assert server.handler_errors == 1
            assert server.telemetry.value(
                "service_handler_errors_total") == 1
            assert server.health()["handler_errors"] == 1
            assert server.fleet.cycle_errors == 1
            await peer.close()
            await server.stop()
        asyncio.run(scenario())


class TestFraming:
    """The wire reader against byte streams cut in every awkward place."""

    def test_frame_sent_one_byte_per_send(self):
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            for byte in encode_frame(T_HELLO, client="slow"):
                await peer.send_raw(bytes([byte]))
                await asyncio.sleep(0)
            ack = await peer.recv_frame()
            assert ack.get("ok") and ack.get("re") == T_HELLO
            assert next(iter(server._connections)).client_name == "slow"
            await peer.close()
            await server.stop()
        asyncio.run(scenario())

    def test_length_header_split_across_reads(self):
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            frame = encode_frame(T_REGISTER, name="p",
                                 hypothesis=make_hyp_dict())
            await peer.send_raw(frame[:2])
            await until(lambda: len(next(iter(server._connections))
                                    .decoder._buffer) == 2,
                        message="the server to read the half header")
            await peer.send_raw(frame[2:])
            assert (await peer.recv_frame()).get("ok")
            assert server.fleet.registration("p") is not None
            await peer.close()
            await server.stop()
        asyncio.run(scenario())

    def test_three_frames_in_one_write(self):
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send_raw(
                encode_frame(T_HELLO, client="batch")
                + encode_frame(T_REGISTER, name="p",
                               hypothesis=make_hyp_dict())
                + encode_frame(T_HEARTBEAT, name="p",
                               batch=[["sense", 1, "T"], ["act", 2, "T"]]))
            acks = [await peer.recv_frame() for _ in range(2)]
            assert [ack.get("re") for ack in acks] == [T_HELLO, T_REGISTER]
            assert all(ack.get("ok") for ack in acks)
            await barrier(peer)
            assert server.fleet.registration("p").indications == 2
            await peer.close()
            await server.stop()
        asyncio.run(scenario())

    def test_frame_straddling_the_read_size(self):
        """Heartbeat frames fill the first read up to a few bytes short
        of ``_READ_SIZE``; the HELLO after them is cut by the boundary."""
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=flood_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            heartbeat = encode_frame(T_HEARTBEAT, name="p",
                                     batch=[["hot", None, "T"]])
            count = (_READ_SIZE - 3) // len(heartbeat)
            payload = heartbeat * count
            payload += encode_frame(
                T_HELLO, client="x" * (_READ_SIZE - len(payload)))
            assert len(payload) > _READ_SIZE > len(heartbeat) * count + 4
            await peer.send_raw(payload)
            ack = await peer.recv_frame()
            assert ack.get("ok") and ack.get("re") == T_HELLO
            assert server.fleet.registration("p").indications == count
            await peer.close()
            await server.stop()
        asyncio.run(scenario())

    def test_deeply_nested_frame_is_one_malformed_frame(self):
        """50 000 nested brackets, under MAX_FRAME_BYTES, exhaust the
        JSON parser's recursion: the frame earns an error ACK and the
        HELLO behind it is still served on the same connection."""
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            body = b"[" * 50_000
            assert len(body) < MAX_FRAME_BYTES
            await peer.send_raw(struct.pack("!I", len(body)) + body
                                + encode_frame(T_HELLO, client="after"))
            error = await peer.recv_frame()
            assert not error.get("ok") and error.get("re") is None
            assert "nested" in error.get("error")
            ack = await peer.recv_frame()
            assert ack.get("ok") and ack.get("re") == T_HELLO
            assert server.telemetry.counter(
                "service_malformed_frames_total").value == 1
            assert server.handler_errors == 0
            await peer.close()
            await server.stop()
        asyncio.run(scenario())

    def test_eof_without_bye_leaves_registrations_active(self):
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            registration = server.fleet.registration("p")
            assert registration.connected
            peer.writer.write_eof()
            await until(lambda: not server._connections,
                        message="the server to notice the EOF")
            assert registration.active and not registration.connected
            assert server.telemetry.counter(
                "service_disconnects_total", graceful="false").value == 1
            await peer.close()
            await server.stop()
        asyncio.run(scenario())

    def test_bye_followed_by_immediate_close(self):
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            await peer.send(T_BYE)
            await peer.close()  # without reading the BYE ACK
            await until(lambda: not server._connections,
                        message="the server to drop the connection")
            registration = server.fleet.registration("p")
            assert not registration.active and not registration.connected
            assert server.telemetry.counter(
                "service_disconnects_total", graceful="true").value == 1
            await server.stop()
        asyncio.run(scenario())
