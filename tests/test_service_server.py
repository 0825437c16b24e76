"""The asyncio daemon: transport, degradation, backpressure, HTTP."""

import asyncio
import json
import struct

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
    so once the ACK arrives every prior indication is enqueued."""
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
            await asyncio.sleep(0.02)
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
            assert ack.get("ok") and ack.get("shard") == 0
            await peer.send(T_HEARTBEAT, name="p",
                            batch=[["sense", 5, "T"], ["act", 6, "T"]])
            await barrier(peer)
            await server.drain()
            registration = server.fleet.registration("p")
            assert registration.indications == 2
            await peer.send(T_BYE)
            ack = await peer.recv_frame()
            assert ack.get("ok") and ack.get("re") == T_BYE
            await peer.close()
            await asyncio.sleep(0.02)
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
            assert ack.get("shard") == first.get("shard")
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
            await server.drain()
            assert server.fleet.registration("p").indications == 1
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
            await server.drain()
            await peer.close()  # vanish without BYE
            await asyncio.sleep(0.02)
            registration = server.fleet.registration("p")
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

    def test_backpressure_drops_oldest_and_counts(self):
        async def scenario():
            server = await start_server(queue_limit=10)
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            # Flood 50 indications in one frame without yielding to the
            # drain task: only the newest 10 survive.
            batch = [["sense", t, "T"] for t in range(50)]
            await peer.send(T_HEARTBEAT, name="p", batch=batch)
            # Let the reader task ingest the frame (it enqueues
            # synchronously while dispatching).
            for _ in range(50):
                await asyncio.sleep(0)
                if server.telemetry.counter(
                        "service_indications_total").value == 50:
                    break
            await server.drain()
            dropped = server.telemetry.counter(
                "service_dropped_indications_total").value
            applied = server.fleet.registration("p").indications
            assert applied + dropped == 50
            assert dropped >= 1
            assert server.health()["dropped"] == dropped
            await peer.close()
            await server.stop()
        asyncio.run(scenario())


class TestSdkAgainstServer:
    def test_sdk_register_heartbeat_detection_push(self):
        async def scenario():
            server = await start_server(shards=2)
            address = (server.host, server.port)

            def client_setup():
                client = WatchdogClient(address, client_name="sdk",
                                        batch_size=4)
                client.connect()
                ack = client.register("p", make_hyp_dict())
                assert ack["shard"] == 0
                for t in (10, 20, 30):
                    client.task_start("T", t)
                    client.heartbeat("sense", t, "T")
                    client.heartbeat("act", t + 1, "T")
                assert client.sync()
                return client

            client = await in_thread(client_setup)
            await server.drain()
            assert server.tick(100) == []
            for t in (200, 300, 400, 500):
                server.tick(t)
            await asyncio.sleep(0.02)
            await in_thread(client.poll)
            assert client.detections
            assert {d["error_type"] for d in client.detections} == {"aliveness"}
            scopes = {s["scope"] for s in client.states}
            assert "fleet" in scopes
            await in_thread(client.close)
            await asyncio.sleep(0.02)
            assert not server.fleet.registration("p").active
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
            await server.drain()
            assert server.fleet.registration("p").indications == 1
            await server.stop()
            import os
            assert not os.path.exists(path)  # unlinked on stop
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
            await server.drain()
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
            assert health["shards"] == 1

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
            await asyncio.sleep(0.06)
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
    """Eviction and failure accounting of the shard queues: nothing the
    queue or a handler does may leave join()/drain() hanging."""

    def test_eviction_then_join_terminates(self):
        """Regression (flood-then-drain): every evicted item's join()
        obligation must be consumed by the eviction itself."""
        from repro.service.server import _DropOldestQueue

        async def scenario():
            queue = _DropOldestQueue(4)
            for n in range(25):  # 21 evictions, 4 survivors
                queue.put_nowait(n)
            assert queue.dropped == 21
            assert len(queue) == 4
            for _ in range(4):
                await queue.get()
                queue.task_done()
            await asyncio.wait_for(queue.join(), timeout=2)
        asyncio.run(scenario())

    def test_eviction_does_not_wake_pending_join(self):
        """Regression: eviction used to route through the task_done
        path, which momentarily set the idle event (a full queue of 1
        drops to 0 unfinished before the new item is counted) —
        Event.set() wakes waiters irrevocably, so a concurrent join()
        could return while the just-enqueued indication was still
        unprocessed, making a SYNC ack lie."""
        from repro.service.server import _DropOldestQueue

        async def scenario():
            queue = _DropOldestQueue(1)
            queue.put_nowait("a")
            waiter = asyncio.ensure_future(queue.join())
            await asyncio.sleep(0)            # waiter parked on idle
            assert queue.put_nowait("b") == 1  # evicts "a"
            await asyncio.sleep(0)
            assert not waiter.done()          # "b" is still unprocessed
            assert await queue.get() == "b"
            queue.task_done()
            await asyncio.wait_for(waiter, timeout=2)
        asyncio.run(scenario())

    def test_eviction_while_consumer_in_flight(self):
        from repro.service.server import _DropOldestQueue

        async def scenario():
            queue = _DropOldestQueue(2)
            queue.put_nowait("a")
            queue.put_nowait("b")
            item = await queue.get()          # "a" in flight
            queue.put_nowait("c")             # evicts "b"
            queue.put_nowait("d")             # evicts nothing (room)
            assert queue.dropped == 0 or queue.dropped == 1
            queue.task_done()                 # finish "a"
            while len(queue):
                await queue.get()
                queue.task_done()
            await asyncio.wait_for(queue.join(), timeout=2)
            assert item == "a"
        asyncio.run(scenario())

    def test_flood_then_drain_does_not_hang(self):
        """End-to-end regression: a flood that evicts most of the queue
        must still let SupervisionServer.drain() return."""
        async def scenario():
            server = await start_server(queue_limit=5)
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            await peer.send(T_HEARTBEAT, name="p",
                            batch=[["sense", t, "T"] for t in range(200)])
            await barrier(peer)
            await asyncio.wait_for(server.drain(), timeout=5)
            dropped = server.telemetry.counter(
                "service_dropped_indications_total").value
            applied = server.fleet.registration("p").indications
            assert applied + dropped == 200
            await peer.close()
            await server.stop()
        asyncio.run(scenario())

    def test_poisoned_indication_does_not_kill_drain(self):
        """Regression: a handler exception used to kill the shard's
        drain task, leaving the queue unconsumed and drain() hanging
        forever; now the failure is counted and draining continues."""
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            shard = server.fleet.shard_for("p")
            original = shard.heartbeat

            def exploding(registration, runnable, time, task=None):
                if runnable == "poison":
                    raise RuntimeError("boom")
                original(registration, runnable, time, task)

            shard.heartbeat = exploding
            await peer.send(T_HEARTBEAT, name="p", batch=[
                ["sense", 1, "T"], ["poison", 2, "T"], ["act", 3, "T"],
            ])
            await barrier(peer)
            await asyncio.wait_for(server.drain(), timeout=5)
            assert server.handler_errors == 1
            assert server.telemetry.counter(
                "service_handler_errors_total").value == 1
            # The items after the poison were still applied.
            assert server.fleet.registration("p").indications == 2
            assert server.health()["handler_errors"] == 1
            await peer.close()
            await server.stop()
        asyncio.run(scenario())
