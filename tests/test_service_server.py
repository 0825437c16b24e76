"""The asyncio daemon: transport, degradation, overload, HTTP."""

import asyncio
import json
import struct
import threading
import time

import pytest

from repro.core import FaultHypothesis, RunnableHypothesis
from repro.core.config_io import hypothesis_to_dict
from repro.core.reports import ErrorType, MonitorState
from repro.service import SupervisionServer, WatchdogClient
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
    encode_frame,
)
from testutil import until


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


class TestShutdown:
    def test_stop_waits_for_an_in_flight_periodic_snapshot(self, tmp_path):
        """Regression: stop() cancelled the snapshot loop while its write
        was still running in a worker thread, then wrote the final
        snapshot itself.  The older payload could land last, after the
        final snapshot had truncated the journal, and every REGISTER in
        between was lost on restart."""
        state_dir = str(tmp_path / "state")

        async def scenario():
            server = await start_server(state_dir=state_dir,
                                        snapshot_interval=0.01)
            write = server.store.write_snapshot_payload
            started, finished = threading.Event(), threading.Event()

            def slow_off_loop_write(payload):
                if threading.current_thread() is threading.main_thread():
                    write(payload)
                    return
                started.set()
                time.sleep(0.2)
                write(payload)
                finished.set()

            server.store.write_snapshot_payload = slow_off_loop_write
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
            table = server.fleet.table
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


async def longest_loop_stall(stop: asyncio.Event) -> float:
    """Longest time the event loop went without running this task, in
    seconds: an upper bound on any one synchronous step of the daemon,
    such as applying one socket chunk."""
    longest = 0.0
    last = time.perf_counter()
    while not stop.is_set():
        await asyncio.sleep(0)
        now = time.perf_counter()
        longest = max(longest, now - last)
        last = now
    return longest


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
            stall = await probe
            print(f"\nflood: {total} indications, longest loop stall "
                  f"{stall * 1e3:.2f} ms, {server.missed_ticks} missed ticks")
            assert server.fleet.registration("p").indications == total
            assert server.telemetry.value("service_indications_total") == total
            health = server.health()
            assert (health["dropped"], health["queued"]) == (0, 0)
            assert server.missed_ticks <= 1
            await peer.close()
            await server.stop()
        asyncio.run(scenario())
