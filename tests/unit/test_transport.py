"""Unit tests for the framed stream transport.

The codec-level contracts the worker pool relies on: length-prefixed
frames survive arbitrary segmentation, a peer that dies mid-frame is
observed as EOF with the partial frame *discarded* (never delivered as
a truncated record), and a forged length header is refused before its
body is buffered — over the ``AF_UNIX`` pair a spawned worker gets and
over the TCP connection a ``--connect`` worker makes.
"""

import pickle
import socket
import time

import pytest

from repro.compile import transport
from repro.compile.transport import (
    HEADER,
    FrameTooLarge,
    FramedStream,
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
            records = [("job", {"depth": 3}), ("done", 0, 7, [1.0, 2.0]),
                       ("stop",)]
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
            sender.send(("done", 0, 1, "first"))
            sender.send(("done", 0, 2, "second"))
            # A trailing partial frame: header promising more bytes than
            # are ever sent.
            body = pickle.dumps(("done", 0, 3, "never-finished"))
            client.sendall(HEADER.pack(len(body)) + body[: len(body) // 2])
            deadline_records = []
            while len(deadline_records) < 2:
                drained, eof = receiver.receive_available()
                assert not eof
                deadline_records.extend(drained)
            assert deadline_records == [
                ("done", 0, 1, "first"), ("done", 0, 2, "second")
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
            body = pickle.dumps(("done", 1, 9, "truncated"))
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
            sender.send_partial(("done", 0, 0, "half"))
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
            sender.send(("done", 0, 1, "honest"))
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
        record = ("done", 0, 1, "x" * 64)
        body = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
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


class TestFramedStreamOverSocketpair(TestFramedStream):
    """The same contracts on a spawned worker's ``AF_UNIX`` pair."""

    make_pair = staticmethod(socket.socketpair)


class TestFrameCapOverSocketpair(TestFrameCap):
    make_pair = staticmethod(socket.socketpair)


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
