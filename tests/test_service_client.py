"""WatchdogClient SDK: batching, offline buffering, reconnect, pushes."""

import socket
import struct
import threading

import pytest

from repro.core import FaultHypothesis, RunnableHypothesis
from repro.core.config_io import hypothesis_to_dict
from repro.service import ClientError, RegistrationRejected, WatchdogClient
from repro.service.protocol import (
    FrameDecoder,
    MAX_FRAME_BYTES,
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

from testutil import wait_for


def make_hyp_dict():
    hyp = FaultHypothesis()
    hyp.add_runnable(RunnableHypothesis(
        "sense", task="T", aliveness_period=2, min_heartbeats=1))
    return hypothesis_to_dict(hyp)


class FakeDaemon:
    """A scripted protocol peer on a real loopback socket.

    Runs a single-connection accept loop in a thread; records every
    frame it sees and answers HELLO/REGISTER/BYE with canned ACKs.
    """

    def __init__(self, *, reject_register=False, push_frames=()):
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.listener.settimeout(0.05)  # short: the loop polls _stop
        self.address = self.listener.getsockname()
        self.frames = []
        self.connections = 0
        self.reject_register = reject_register
        self.push_frames = list(push_frames)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self.listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self.connections += 1
            self._serve_one(conn)

    def _serve_one(self, conn):
        conn.settimeout(0.05)  # short: the loop polls _stop
        decoder = FrameDecoder()
        try:
            while not self._stop.is_set():
                try:
                    chunk = conn.recv(65536)
                except socket.timeout:
                    continue
                if not chunk:
                    return
                for frame in decoder.feed(chunk):
                    self.frames.append(frame)
                    self._answer(conn, frame)
                    if frame.type == T_BYE:
                        return
        except OSError:
            pass
        finally:
            conn.close()

    def _answer(self, conn, frame):
        if frame.type == T_HELLO:
            conn.sendall(encode_frame(T_ACK, ok=True, re=T_HELLO, server="fake"))
            for push in self.push_frames:
                conn.sendall(push)
        elif frame.type == T_REGISTER:
            if self.reject_register:
                conn.sendall(encode_frame(
                    T_ACK, ok=False, re=T_REGISTER,
                    error="rejected by strict mode", lint=["WD202 vacuous"]))
            else:
                conn.sendall(encode_frame(
                    T_ACK, ok=True, re=T_REGISTER, rebound=False, lint=[]))
        elif frame.type == T_BYE:
            conn.sendall(encode_frame(T_ACK, ok=True, re=T_BYE))

    def frames_of(self, type):
        return [f for f in self.frames if f.type == type]

    def close(self):
        self._stop.set()
        self.listener.close()
        self._thread.join(timeout=5)


@pytest.fixture
def daemon():
    server = FakeDaemon()
    yield server
    server.close()


class TestHandshake:
    def test_connect_and_register(self, daemon):
        client = WatchdogClient(daemon.address, client_name="it")
        client.connect()
        ack = client.register("p", make_hyp_dict())
        assert ack["rebound"] is False
        client.close()
        types = [f.type for f in daemon.frames]
        assert types == [T_HELLO, T_REGISTER, T_BYE]
        hello = daemon.frames[0]
        assert hello.get("client") == "it"

    def test_register_accepts_hypothesis_object(self, daemon):
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis("r", task="T", min_heartbeats=1))
        with WatchdogClient(daemon.address) as client:
            client.register("p", hyp)
        sent = daemon.frames_of(T_REGISTER)[0]
        names = [r["runnable"] for r in sent.get("hypothesis")["runnables"]]
        assert "r" in names

    def test_rejected_registration_raises_with_reasons(self):
        daemon = FakeDaemon(reject_register=True)
        try:
            client = WatchdogClient(daemon.address)
            client.connect()
            with pytest.raises(RegistrationRejected) as excinfo:
                client.register("p", make_hyp_dict())
            assert "strict" in str(excinfo.value)
            assert any("WD202" in r for r in excinfo.value.reasons)
            client.close(say_bye=False)
        finally:
            daemon.close()

    def test_connect_on_closed_client_raises(self, daemon):
        client = WatchdogClient(daemon.address)
        client.connect()
        client.close()
        with pytest.raises(ClientError):
            client.connect()


class TestBatching:
    def test_indications_buffer_until_batch_size(self, daemon):
        client = WatchdogClient(daemon.address, batch_size=4)
        client.connect()
        client.register("p", make_hyp_dict())
        for t in range(3):
            client.heartbeat("sense", t, "T")
        assert daemon.frames_of(T_HEARTBEAT) == []  # below threshold
        client.heartbeat("sense", 3, "T")  # fourth triggers the flush
        client.sync()
        (frame,) = daemon.frames_of(T_HEARTBEAT)
        assert frame.get("batch") == [["sense", t, "T"] for t in range(4)]
        client.close(say_bye=False)

    def test_interleaved_kinds_split_preserving_order(self, daemon):
        client = WatchdogClient(daemon.address, batch_size=1000)
        client.connect()
        client.register("p", make_hyp_dict())
        client.heartbeat("sense", 1, "T")
        client.task_start("T", 2)
        client.heartbeat("sense", 3, "T")
        client.flush()
        # flush() only writes to the socket; sync() waits until the
        # fake daemon's reader thread has recorded the frames.
        assert client.sync() is True
        kinds = [f.type for f in daemon.frames
                 if f.type in (T_HEARTBEAT, T_FLOW)]
        assert kinds == [T_HEARTBEAT, T_FLOW, T_HEARTBEAT]
        flow = daemon.frames_of(T_FLOW)[0]
        assert flow.get("batch") == [["T", 2]]
        client.close(say_bye=False)

    def test_flush_before_register_keeps_buffering(self, daemon):
        client = WatchdogClient(daemon.address)
        client.heartbeat("sense", 1, "T")  # must not raise
        assert client.flush() is False
        client.connect()
        client.register("p", make_hyp_dict())
        assert client.flush() is True
        assert client.sync() is True
        assert daemon.frames_of(T_HEARTBEAT)[0].get("batch") == [
            ["sense", 1, "T"]]
        client.close(say_bye=False)

    def test_sent_counter(self, daemon):
        client = WatchdogClient(daemon.address)
        client.connect()
        client.register("p", make_hyp_dict())
        for t in range(5):
            client.heartbeat("sense", t, "T")
        client.task_start("T")
        client.flush()
        assert client.sent_indications == 6
        client.close(say_bye=False)


class TestOfflineBuffer:
    def test_unreachable_daemon_never_raises_and_bounds_buffer(self):
        # Port 1 on localhost: connection refused immediately.
        client = WatchdogClient(
            ("127.0.0.1", 1), buffer_limit=10, batch_size=5,
            reconnect=False, sleep=lambda s: None)
        for t in range(25):
            client.heartbeat("sense", t, "T")  # never raises
        assert len(client._buffer) == 10
        assert client.dropped == 15
        # The newest indications survived (oldest dropped).
        assert client._buffer[0][2] == 15
        assert client._buffer[-1][2] == 24

    def test_buffer_replayed_after_daemon_returns(self, daemon):
        client = WatchdogClient(daemon.address, batch_size=1000)
        client.connect()
        client.register("p", make_hyp_dict())
        for t in range(5):
            client.heartbeat("sense", t, "T")
        assert client.flush()
        assert client.sync() is True
        (frame,) = daemon.frames_of(T_HEARTBEAT)
        assert [entry[1] for entry in frame.get("batch")] == list(range(5))
        client.close(say_bye=False)


class TestReconnect:
    def test_backoff_schedule_exponential_with_jitter(self):
        sleeps = []

        class FixedRng:
            def random(self):
                return 1.0  # maximal jitter, deterministic

        client = WatchdogClient(
            ("127.0.0.1", 1), reconnect=True, max_retries=4,
            backoff_initial=0.1, backoff_max=0.5, backoff_jitter=0.25,
            rng=FixedRng(), sleep=sleeps.append)
        assert client._reconnect() is False
        # Jitter applies to the raw exponential delay, THEN the clamp:
        # backoff_max bounds the actual sleep, jitter included.
        expected = [min(0.5, (0.1 * 2 ** n) * 1.25) for n in range(4)]
        assert sleeps == pytest.approx(expected)

    def test_backoff_max_bounds_sleep_even_with_jitter(self):
        """Regression: jitter used to be applied after the clamp, letting
        the sleep exceed backoff_max by up to the jitter factor."""
        sleeps = []

        class FixedRng:
            def random(self):
                return 1.0

        client = WatchdogClient(
            ("127.0.0.1", 1), reconnect=True, max_retries=8,
            backoff_initial=0.1, backoff_max=0.5, backoff_jitter=0.25,
            rng=FixedRng(), sleep=sleeps.append)
        assert client._reconnect() is False
        assert max(sleeps) <= 0.5

    def test_reconnect_reregisters_and_counts(self, daemon):
        client = WatchdogClient(
            daemon.address, backoff_initial=0.001, backoff_max=0.002,
            backoff_jitter=0.0)
        client.connect()
        client.register("p", make_hyp_dict())
        client._drop_connection()  # simulate a broken pipe
        assert client._reconnect() is True
        assert client.reconnects == 1
        # The second connection replayed HELLO + REGISTER.
        assert len(daemon.frames_of(T_HELLO)) == 2
        assert len(daemon.frames_of(T_REGISTER)) == 2
        assert daemon.connections == 2
        client.close(say_bye=False)

    def test_reconnect_disabled_gives_up_immediately(self):
        sleeps = []
        client = WatchdogClient(
            ("127.0.0.1", 1), reconnect=False, sleep=sleeps.append)
        assert client._reconnect() is False
        assert sleeps == []


def dead_address():
    """A loopback port that was just free — connecting refuses."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    address = sock.getsockname()
    sock.close()
    return address


class TestFailover:
    def test_connect_rotates_to_first_reachable_address(self, daemon):
        client = WatchdogClient(
            dead_address(), failover=(daemon.address,), client_name="ha")
        client.connect()
        assert client.address == daemon.address
        assert len(daemon.frames_of(T_HELLO)) == 1
        client.close(say_bye=False)

    def test_failover_address_is_sticky(self, daemon):
        client = WatchdogClient(
            dead_address(), failover=(daemon.address,), client_name="ha")
        client.connect()
        client._drop_connection()
        # The next connection goes straight to the address that worked,
        # not back through the dead primary.
        assert client._ensure_connection()
        assert client.address == daemon.address
        assert daemon.connections == 2
        client.close(say_bye=False)

    def test_failover_replays_registrations_on_standby(self):
        primary = FakeDaemon()
        standby = FakeDaemon()
        try:
            client = WatchdogClient(
                primary.address, failover=(standby.address,),
                client_name="ha", backoff_initial=0.001,
                backoff_max=0.002, backoff_jitter=0.0)
            client.connect()
            client.register("p", make_hyp_dict())
            assert len(primary.frames_of(T_REGISTER)) == 1
            assert standby.frames_of(T_REGISTER) == []
            # The primary dies; the buffered indication forces a flush,
            # which reconnects via the failover list and replays
            # HELLO + REGISTER onto the standby.
            primary.close()
            client._drop_connection()
            client.heartbeat("sense", 1, "T")
            assert client.flush() is True
            assert client.address == standby.address
            # sync() round-trips a HELLO: frames dispatch in order per
            # connection, so once it returns the fire-and-forget
            # HEARTBEAT frame has been read by the standby too.
            assert client.sync() is True
            assert len(standby.frames_of(T_REGISTER)) == 1
            assert len(standby.frames_of(T_HEARTBEAT)) == 1
            client.close(say_bye=False)
        finally:
            primary.close()
            standby.close()

    def test_all_addresses_down_raises_last_error(self):
        client = WatchdogClient(
            dead_address(), failover=(dead_address(),), reconnect=False)
        with pytest.raises(OSError):
            client.connect()


class TestPushes:
    def test_poll_dispatches_detections_and_states(self):
        pushes = [
            encode_frame(T_DETECTION, name="p", runnable="sense",
                         error_type="aliveness", time=30),
            encode_frame(T_STATE, scope="fleet", state="faulty", time=30),
        ]
        daemon = FakeDaemon(push_frames=pushes)
        try:
            seen = []
            client = WatchdogClient(
                daemon.address, on_detection=lambda d: seen.append(d))
            client.connect()

            def every_push_arrived():
                client.poll()
                return len(client.detections) >= 1 and len(client.states) >= 1

            wait_for(every_push_arrived, timeout=5, interval=0.01,
                     message="the DETECTION and STATE pushes")
            assert client.detections[0]["error_type"] == "aliveness"
            assert seen == client.detections
            assert client.states[0]["scope"] == "fleet"
            client.close(say_bye=False)
        finally:
            daemon.close()

    def test_poll_without_connection_is_noop(self):
        client = WatchdogClient(("127.0.0.1", 1))
        assert client.poll() == 0

    def test_pushes_ahead_of_corrupt_framing_are_kept(self):
        corrupt = struct.pack("!I", MAX_FRAME_BYTES + 1)
        daemon = FakeDaemon(push_frames=[
            encode_frame(T_DETECTION, name="p", runnable="sense",
                         error_type="aliveness", time=30) + corrupt])
        try:
            client = WatchdogClient(daemon.address)
            client.connect()

            def dropped_on_corrupt_framing():
                client.poll()
                return not client.connected

            wait_for(dropped_on_corrupt_framing, timeout=5, interval=0.01,
                     message="the corrupt framing to drop the connection")
            assert not client.connected
            assert [d["runnable"] for d in client.detections] == ["sense"]
            client.close(say_bye=False)
        finally:
            daemon.close()

    def test_poll_stops_reading_once_corrupt_framing_drops_the_stream(self):
        """Regression: poll() kept looping after a corrupt server header
        had dropped the connection, and died on ``None.recv``."""
        client = WatchdogClient(("127.0.0.1", 1))
        ours, theirs = socket.socketpair()
        try:
            client._sock = ours
            theirs.sendall(
                encode_frame(T_DETECTION, name="p", runnable="sense",
                             error_type="aliveness", time=30)
                + struct.pack("!I", MAX_FRAME_BYTES + 1))
            assert client.poll() == 1
            assert not client.connected
            assert [d["runnable"] for d in client.detections] == ["sense"]
        finally:
            ours.close()
            theirs.close()


class TestUnixTransport:
    def test_address_string_selects_af_unix(self, tmp_path):
        path = str(tmp_path / "fake.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(1)
        results = []

        def serve_one():
            conn, _ = listener.accept()
            decoder = FrameDecoder()
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                for frame in decoder.feed(chunk):
                    results.append(frame.type)
                    if frame.type == T_HELLO:
                        conn.sendall(encode_frame(T_ACK, ok=True, re=T_HELLO))
                    if frame.type == T_BYE:
                        conn.sendall(encode_frame(T_ACK, ok=True, re=T_BYE))
                        conn.close()
                        return

        thread = threading.Thread(target=serve_one, daemon=True)
        thread.start()
        client = WatchdogClient(path)
        client.connect()
        client.close()
        thread.join(timeout=5)
        listener.close()
        assert results == [T_HELLO, T_BYE]
