"""Unit tests for the framed stream transport.

The codec-level contracts the worker pool relies on: length-prefixed
frames survive arbitrary segmentation, a peer that dies mid-frame is
observed as EOF with the partial frame *discarded* (never delivered as
a truncated record), a forged length header is refused before its body
is buffered, and a forged body — anything but one of the seven JSON
records — is refused as :class:`MalformedFrame`, never executed; over
the ``AF_UNIX`` pair a spawned worker gets and over the TCP connection
a ``--connect`` worker makes.
"""

import socket
import time

import pytest

from repro.compile import transport
from repro.compile.transport import (
    HEADER,
    FrameTooLarge,
    FramedStream,
    MalformedFrame,
    WorkerHandle,
    WorkerTransport,
    _JobMessage,
    _Outcome,
    decode_record,
    encode_record,
    parse_address,
    serve_worker,
)


def tcp_pair():
    """A connected loopback TCP socket pair (AF_INET, so TCP_NODELAY
    applies, exactly like a ``--connect`` worker's stream)."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    client = socket.create_connection(listener.getsockname())
    server, _ = listener.accept()
    listener.close()
    return client, server


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("127.0.0.1:7453") == ("127.0.0.1", 7453)
        assert parse_address("node-3.cluster:80") == ("node-3.cluster", 80)

    @pytest.mark.parametrize("bad", ["localhost", ":80", "host:", "host:abc"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)


class TestFramedStream:
    make_pair = staticmethod(tcp_pair)

    def test_roundtrip_preserves_records(self):
        client, server = self.make_pair()
        sender, receiver = FramedStream(client), FramedStream(server)
        try:
            # Quotes, backslashes and brackets inside a string are text,
            # not nesting.
            tricky = 'a "quoted" \\" \\\\ [[[[ {{ ' + "[" * 100
            records = [("hello", 4242), ("error", 0, 7, tricky),
                       ("ready", 3), ("stop",)]
            for record in records:
                sender.send(record)
            assert [receiver.recv() for _ in records] == records
            assert sender.bytes_sent == receiver.bytes_received > 0
        finally:
            sender.close()
            receiver.close()

    def test_receive_available_drains_complete_frames_only(self):
        client, server = self.make_pair()
        sender, receiver = FramedStream(client), FramedStream(server)
        try:
            sender.send(("error", 0, 1, "first"))
            sender.send(("error", 0, 2, "second"))
            # A trailing partial frame: header promising more bytes than
            # are ever sent.
            body = encode_record(("error", 0, 3, "never-finished"))
            client.sendall(HEADER.pack(len(body)) + body[: len(body) // 2])
            deadline_records = []
            while len(deadline_records) < 2:
                drained, eof = receiver.receive_available()
                assert not eof
                deadline_records.extend(drained)
            assert deadline_records == [
                ("error", 0, 1, "first"), ("error", 0, 2, "second")
            ]
            # The partial frame stays buffered, not delivered.
            drained, eof = receiver.receive_available()
            assert drained == [] and not eof
        finally:
            sender.close()
            receiver.close()

    def test_peer_death_mid_frame_surfaces_as_eof_not_a_record(self):
        client, server = self.make_pair()
        receiver = FramedStream(server)
        try:
            body = encode_record(("error", 1, 9, "truncated"))
            client.sendall(HEADER.pack(len(body)) + body[: len(body) // 2])
            client.close()  # the worker dies mid-send
            records = []
            eof = False
            while not eof:
                drained, eof = receiver.receive_available()
                records.extend(drained)
            assert records == []  # the half frame was discarded
        finally:
            receiver.close()

    def test_send_partial_is_a_faithful_crash_model(self):
        # send_partial ships header + truncated body, exactly what a
        # worker killed mid-sendall leaves on the wire.
        client, server = self.make_pair()
        sender, receiver = FramedStream(client), FramedStream(server)
        try:
            sender.send_partial(("error", 0, 0, "half"))
            sender.close()
            drained, eof = [], False
            while not eof:
                records, eof = receiver.receive_available()
                drained.extend(records)
            assert drained == []
        finally:
            receiver.close()

    def test_blocking_recv_raises_eof_on_close(self):
        client, server = self.make_pair()
        receiver = FramedStream(server)
        try:
            client.close()
            with pytest.raises(EOFError):
                receiver.recv()
        finally:
            receiver.close()


class TestFrameCap:
    """A length header is outside input: it is checked before it is trusted."""

    make_pair = staticmethod(tcp_pair)
    FORGED = HEADER.pack(1 << 62)  # 4 EiB: allocating it would kill the host

    def test_forged_header_raises_before_the_body_is_read(self):
        client, server = self.make_pair()
        receiver = FramedStream(server)
        try:
            client.sendall(self.FORGED + b"x" * 100)
            assert issubclass(FrameTooLarge, ValueError)
            with pytest.raises(FrameTooLarge):
                receiver.recv()
            # Nothing was buffered towards the claimed length.
            assert receiver.bytes_received <= HEADER.size + 100
        finally:
            client.close()
            receiver.close()

    def test_forged_header_raises_from_the_nonblocking_drain(self):
        client, server = self.make_pair()
        sender, receiver = FramedStream(client), FramedStream(server)
        try:
            sender.send(("error", 0, 1, "honest"))
            client.sendall(self.FORGED)
            deadline = time.monotonic() + 10.0
            with pytest.raises(FrameTooLarge):
                while time.monotonic() < deadline:  # until the header lands
                    receiver.receive_available()
        finally:
            sender.close()
            receiver.close()

    def test_frame_exactly_at_the_cap_passes_one_byte_more_does_not(
        self, monkeypatch
    ):
        record = ("error", 0, 1, "x" * 64)
        body = encode_record(record)
        client, server = self.make_pair()
        sender, receiver = FramedStream(client), FramedStream(server)
        try:
            monkeypatch.setattr(transport, "MAX_FRAME_BYTES", len(body))
            sender.send(record)
            assert receiver.recv() == record
            sender.send(record)
            drained = []
            while not drained:
                drained, eof = receiver.receive_available()
                assert not eof
            assert drained == [record]
            monkeypatch.setattr(transport, "MAX_FRAME_BYTES", len(body) - 1)
            with pytest.raises(FrameTooLarge):
                sender.send(record)  # refused locally, nothing on the wire
            client.sendall(HEADER.pack(len(body)) + body)
            with pytest.raises(FrameTooLarge):
                receiver.recv()
        finally:
            sender.close()
            receiver.close()


def job_message(prefix=((0, True), (3, False))):
    return _JobMessage(
        job_index=5, scheme="hybrid", epsilon=0.1, job_size=2,
        prefix=prefix, prob=0.25, active=("t0", "t1"),
        budgets={"t0": 0.2, "t1": 0.2},
        snap_lower={"t0": 0.0, "t1": 0.1},
        snap_upper={"t0": 1.0, "t1": 0.9},
        global_share={"t0": 0.1, "t1": 0.1},
    )


def outcome():
    return _Outcome(
        lower_delta={"t0": 0.1}, upper_delta={"t0": 1 / 3},
        residual={"t0": 0.0}, global_left={"t0": 0.05},
        children=((((0, True), (1, False)), 0.125, ("t0",), {"t0": 0.1}),),
        cost=0.001, tree_nodes=7, evals=12, max_depth=3, recv_wait=1e-5,
    )


#: Frame bodies that are no record: each must raise MalformedFrame.
FORGED_BODIES = {
    "not-utf8": b"\xff\xfe\x80",
    "not-json": b"['stop']",
    "too-deep": b"[" * 100_000 + b"]" * 100_000,
    "unknown-kind": b'["launch",1]',
    "wrong-arity": b'["ready",1,2]',
    "bool-worker-id": b'["ready",true]',
    "string-prefix-entry": encode_record(
        ("job", job_message(prefix=(("0", True),)))
    ),
    "bool-in-init-order": encode_record(("init", 0, {
        "network": {}, "pool": {}, "targets": ["t0"], "order": [True],
        "engine": "masked", "fault": None,
    })),
}


class TestRecordCodec:
    def test_job_and_outcome_round_trip_with_tuple_prefixes(self):
        job = decode_record(encode_record(("job", job_message())))
        assert job == ("job", job_message())
        assert type(job[1].prefix) is tuple
        assert all(type(entry) is tuple for entry in job[1].prefix)
        assert type(job[1].active) is tuple
        done = decode_record(encode_record(("done", 1, 5, outcome())))
        assert done == ("done", 1, 5, outcome())
        (child,) = done[3].children
        assert type(child) is tuple and type(child[0]) is tuple
        assert all(type(entry) is tuple for entry in child[0])
        # Floats round-trip bit for bit.
        assert done[3].upper_delta["t0"] == 1 / 3


class TestMalformedFrame:
    """A frame body is outside input: it is parsed as data, never run."""

    make_pair = staticmethod(tcp_pair)

    @pytest.mark.parametrize("name", sorted(FORGED_BODIES))
    def test_forged_body_raises_from_recv(self, name):
        client, server = self.make_pair()
        receiver = FramedStream(server)
        try:
            body = FORGED_BODIES[name]
            client.sendall(HEADER.pack(len(body)) + body)
            assert issubclass(MalformedFrame, ValueError)
            with pytest.raises(MalformedFrame):
                receiver.recv()
        finally:
            client.close()
            receiver.close()

    @pytest.mark.parametrize("name", sorted(FORGED_BODIES))
    def test_forged_body_raises_from_the_nonblocking_drain(self, name):
        client, server = self.make_pair()
        sender, receiver = FramedStream(client), FramedStream(server)
        try:
            sender.send(("error", 0, 1, "honest"))
            body = FORGED_BODIES[name]
            client.sendall(HEADER.pack(len(body)) + body)
            deadline = time.monotonic() + 10.0
            with pytest.raises(MalformedFrame):
                while time.monotonic() < deadline:  # until the body lands
                    receiver.receive_available()
        finally:
            sender.close()
            receiver.close()

    @pytest.mark.parametrize(
        "name", sorted(FORGED_BODIES) + ["out-of-turn"]
    )
    def test_wait_drops_the_sender_and_keeps_its_peer(self, name):
        body = FORGED_BODIES.get(name) or encode_record(("stop",))
        hostile_ours, hostile = self.make_pair()
        honest_ours, honest = self.make_pair()
        pool = WorkerTransport()
        pool.workers = [
            WorkerHandle(0, FramedStream(hostile_ours)),
            WorkerHandle(1, FramedStream(honest_ours)),
        ]
        try:
            hostile.sendall(HEADER.pack(len(body)) + body)
            FramedStream(honest).send(("done", 1, 4, outcome()))
            records = []
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and (
                pool.workers[0].alive() or not records
            ):
                records.extend(pool.wait(0.1))
            assert [
                (worker.worker_id, record) for worker, record in records
            ] == [(1, ("done", 1, 4, outcome()))]
            assert [worker.worker_id for worker in pool.alive_workers()] == [1]
        finally:
            pool.shutdown(force=True)
            hostile.close()
            honest.close()


class TestFramedStreamOverSocketpair(TestFramedStream):
    """The same contracts on a spawned worker's ``AF_UNIX`` pair."""

    make_pair = staticmethod(socket.socketpair)


class TestFrameCapOverSocketpair(TestFrameCap):
    make_pair = staticmethod(socket.socketpair)


class TestMalformedFrameOverSocketpair(TestMalformedFrame):
    make_pair = staticmethod(socket.socketpair)


class _OpensAFile:
    """A pickle that opens ``path`` when it is loaded."""

    def __init__(self, path: str) -> None:
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


class TestServeWorker:
    def test_gives_up_after_retry_deadline(self):
        # Nothing listens on the probed port: the worker retries until
        # the deadline, then re-raises the connection error.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(OSError):
            serve_worker(f"127.0.0.1:{port}", retry_seconds=0.3)

    def test_a_pickled_hello_is_never_executed(self, tmp_path):
        # A peer that sends a pickle instead of a hello is one more
        # stray connection: its bytes are not run, it is closed, and
        # the join times out as it does for any peer that is no worker.
        import pickle
        import threading

        from ..conftest import free_port

        marker = tmp_path / "executed"
        body = pickle.dumps(("hello", _OpensAFile(str(marker))))
        port = free_port()
        raised = []

        def coordinator():
            try:
                WorkerTransport.listen_for(
                    {}, 1, f"127.0.0.1:{port}", join_timeout=1.0
                )
            except TimeoutError as exc:
                raised.append(exc)

        thread = threading.Thread(target=coordinator, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10.0
        while True:
            try:
                peer = socket.create_connection(("127.0.0.1", port))
                break
            except OSError:
                assert time.monotonic() < deadline
                time.sleep(0.05)
        with peer:
            peer.sendall(HEADER.pack(len(body)) + body)
            peer.settimeout(10.0)
            assert peer.recv(1) == b""  # dropped, never answered
        thread.join(10.0)
        assert not thread.is_alive()
        assert len(raised) == 1
        assert not marker.exists()
