"""Fault injection for the service layer.

Three failure families the server must absorb without collateral
damage: an engine pass that raises mid-batch (its group fails with
500, *peer groups in the same batch still answer*), clients that
disconnect mid-exchange (the accept loop must not wedge), and
shutdown while requests are queued (drain within the deadline or
report every abandoned request, mirroring the distributed compiler's
``workers_killed`` discipline).
"""

from __future__ import annotations

import http.client
import random
import socket
import threading
import time

import pytest

from repro.compile.result import CompilationResult
from repro.engine.registry import register_scheme, unregister_scheme
from repro.network.build import build_targets
from repro.serve import ServeClient, ServeClientError, ServerThread, protocol

from ..conftest import make_pool, random_event


def small_instance(seed: int = 11):
    rng = random.Random(seed)
    pool = make_pool([rng.uniform(0.1, 0.9) for _ in range(5)])
    events = {f"t{i}": random_event(pool, rng, depth=2) for i in range(3)}
    return pool, build_targets(events)


def gated_scheme(name, *, fail=False):
    """A registered scheme whose runner blocks on a gate, then optionally
    raises — run inside the executor thread so the asyncio loop stays
    free to admit the peers that must coalesce into the same batch."""
    gate = threading.Event()
    started = threading.Event()

    def runner(network, pool, targets, options):
        started.set()
        assert gate.wait(timeout=30.0)
        if fail:
            raise RuntimeError("injected compile failure")
        names = list(targets) if targets is not None else list(network.targets)
        return CompilationResult(
            bounds={n: (0.25, 0.25) for n in names}, scheme=name, epsilon=0.0
        )

    register_scheme(name, runner, capabilities=(), replace=True)
    return gate, started


class TestMidBatchFailure:
    def test_failing_group_fails_alone(self):
        pool, network = small_instance()
        with ServerThread() as server:
            client = ServeClient(port=server.port)
            client.put_network("net", network, pool)
            plug_gate, plug_started = gated_scheme("serve-plug")
            boom_gate, _ = gated_scheme("serve-boom", fail=True)
            boom_gate.set()  # boom never blocks, only raises
            try:
                plug = threading.Thread(
                    target=client.query,
                    kwargs=dict(network="net", scheme="serve-plug"),
                )
                plug.start()
                assert plug_started.wait(10.0)
                outcomes = {}

                def ask(key, scheme):
                    try:
                        outcomes[key] = client.query(
                            network="net", scheme=scheme
                        )
                    except ServeClientError as exc:
                        outcomes[key] = exc

                threads = [
                    threading.Thread(target=ask, args=("boom", "serve-boom")),
                    threading.Thread(target=ask, args=("ok", "exact")),
                    threading.Thread(target=ask, args=("ok2", "naive")),
                ]
                for thread in threads:
                    thread.start()
                deadline_stats = ServeClient(port=server.port)
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if deadline_stats.stats()["executor"]["pending"] >= 4:
                        break
                    time.sleep(0.005)
                plug_gate.set()
                for thread in threads:
                    thread.join(timeout=30.0)
                plug.join(timeout=30.0)
            finally:
                unregister_scheme("serve-plug")
                unregister_scheme("serve-boom")
            # The injected failure surfaced as 500 on its own group...
            assert isinstance(outcomes["boom"], ServeClientError)
            assert outcomes["boom"].status == 500
            assert "injected compile failure" in outcomes["boom"].message
            # ...while peer groups in the very same batch answered.
            assert outcomes["ok"]["bounds"]
            assert outcomes["ok2"]["bounds"]
            assert server.server.executor.failed == 1
            # The server is still fully alive afterwards.
            assert client.query(network="net", scheme="exact")["bounds"]

    def test_impossible_evidence_is_422_and_peers_answer(self):
        # x0 never holds: conditioning on it is undefined, which is the
        # request's fault (422), not the server's (500).
        pool, network = small_instance()
        pool.set_probability(0, 0.0)
        with ServerThread() as server:
            client = ServeClient(port=server.port)
            client.put_network("net", network, pool)
            plug_gate, plug_started = gated_scheme("serve-plug")
            try:
                plug = threading.Thread(
                    target=client.query,
                    kwargs=dict(network="net", scheme="serve-plug"),
                )
                plug.start()
                assert plug_started.wait(10.0)
                outcomes = {}

                def ask(key, call, **options):
                    try:
                        outcomes[key] = call(network="net", **options)
                    except ServeClientError as exc:
                        outcomes[key] = exc

                threads = [
                    threading.Thread(
                        target=ask, args=("impossible", client.condition),
                        kwargs=dict(evidence=[[0, True]]),
                    ),
                    threading.Thread(
                        target=ask, args=("peer", client.condition),
                        kwargs=dict(evidence=[[1, True]]),
                    ),
                ]
                for thread in threads:
                    thread.start()
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if client.stats()["executor"]["pending"] >= 3:
                        break
                    time.sleep(0.005)
                plug_gate.set()
                for thread in threads:
                    thread.join(timeout=30.0)
                plug.join(timeout=30.0)
            finally:
                unregister_scheme("serve-plug")
            assert isinstance(outcomes["impossible"], ServeClientError)
            assert outcomes["impossible"].status == 422
            assert "ImpossibleEvidenceError" in outcomes["impossible"].message
            assert outcomes["peer"]["bounds"]
            assert server.server.executor.failed == 1

    def test_invalid_order_fails_at_admission_not_in_batch(self):
        pool, network = small_instance()
        with ServerThread() as server:
            client = ServeClient(port=server.port)
            client.put_network("net", network, pool)
            with pytest.raises(ServeClientError) as err:
                client.query(network="net", scheme="eager", order="sideways")
            assert err.value.status == 400
            assert server.server.executor.failed == 0


class TestClientDisconnect:
    def test_disconnect_before_request_does_not_wedge(self):
        pool, network = small_instance()
        with ServerThread() as server:
            client = ServeClient(port=server.port)
            client.put_network("net", network, pool)
            for _ in range(5):
                raw = socket.create_connection(("127.0.0.1", server.port))
                raw.close()  # connect, say nothing, vanish
            assert client.healthz()["status"] == "ok"
            assert client.query(network="net", scheme="exact")["bounds"]

    def test_disconnect_mid_headers_does_not_wedge(self):
        pool, network = small_instance()
        with ServerThread() as server:
            client = ServeClient(port=server.port)
            client.put_network("net", network, pool)
            raw = socket.create_connection(("127.0.0.1", server.port))
            raw.sendall(b"POST /query HTTP/1.1\r\nContent-Le")
            raw.close()  # truncated headers, then gone
            raw = socket.create_connection(("127.0.0.1", server.port))
            raw.sendall(
                b"POST /query HTTP/1.1\r\nContent-Length: 999\r\n\r\n{"
            )
            raw.close()  # promised a body it never sent
            assert client.query(network="net", scheme="exact")["bounds"]

    def test_stalled_client_is_answered_408_and_closed(self, monkeypatch):
        """Half a header and then silence: past the read deadline the
        server answers 408, closes the connection, and keeps serving."""
        monkeypatch.setattr(protocol, "READ_DEADLINE_SECONDS", 0.2)
        pool, network = small_instance()
        with ServerThread() as server:
            client = ServeClient(port=server.port)
            client.put_network("net", network, pool)
            raw = socket.create_connection(("127.0.0.1", server.port))
            raw.settimeout(10.0)
            try:
                raw.sendall(b"POST /query HTTP/1.1\r\nContent-Le")
                reply = b""
                while chunk := raw.recv(4096):  # until the server closes
                    reply += chunk
            finally:
                raw.close()
            assert reply.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
            assert b"no complete request within 0.2s" in reply
            assert client.query(network="net", scheme="exact")["bounds"]

    def test_disconnect_while_query_in_flight(self):
        """Client vanishes while its pass runs: the response write fails,
        the connection handler absorbs it, and the accept loop and the
        executor both keep serving everyone else."""
        pool, network = small_instance()
        with ServerThread() as server:
            client = ServeClient(port=server.port)
            client.put_network("net", network, pool)
            gate, started = gated_scheme("serve-plug")
            try:
                conn = http.client.HTTPConnection(
                    "127.0.0.1", server.port, timeout=10
                )
                body = (
                    b'{"network": "net", "scheme": "serve-plug"}'
                )
                conn.request(
                    "POST",
                    "/query",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                assert started.wait(10.0)
                conn.sock.close()  # drop mid-flight, before the answer
                gate.set()
            finally:
                unregister_scheme("serve-plug")
            assert client.query(network="net", scheme="exact")["bounds"]
            assert client.healthz()["status"] == "ok"


class TestShutdownUnderLoad:
    def test_drain_completes_quietly_when_queue_empties(self):
        pool, network = small_instance()
        server = ServerThread()
        try:
            client = ServeClient(port=server.port)
            client.put_network("net", network, pool)
            client.query(network="net", scheme="exact")
        finally:
            report = server.stop(drain_timeout=5.0)
        assert report["drained"] == 1.0
        assert report["requests_abandoned"] == 0.0

    def test_abandoned_requests_are_reported_and_refused(self):
        pool, network = small_instance()
        server = ServerThread(max_pending=32)
        gate, started = gated_scheme("serve-plug")
        try:
            client = ServeClient(port=server.port)
            client.put_network("net", network, pool)
            outcomes = []

            def ask():
                try:
                    outcomes.append(client.query(network="net", scheme="exact"))
                except ServeClientError as exc:
                    outcomes.append(exc)

            def ask_plug():
                try:
                    outcomes.append(
                        client.query(network="net", scheme="serve-plug")
                    )
                except ServeClientError as exc:
                    outcomes.append(exc)

            plug = threading.Thread(target=ask_plug)
            plug.start()
            assert started.wait(10.0)
            waiters = [threading.Thread(target=ask) for _ in range(3)]
            for thread in waiters:
                thread.start()
            import time

            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if client.stats()["executor"]["pending"] >= 4:
                    break
                time.sleep(0.005)
            # Release the plug *after* the drain deadline has expired so
            # shutdown must abandon the queued requests — but the
            # executor thread itself unblocks and the process can exit.
            threading.Timer(1.0, gate.set).start()
            report = server.stop(drain_timeout=0.05)
            for thread in waiters:
                thread.join(timeout=30.0)
            plug.join(timeout=30.0)
        finally:
            gate.set()
            unregister_scheme("serve-plug")
        assert report["drained"] == 0.0
        assert report["requests_abandoned"] >= 3.0
        abandoned = [
            o
            for o in outcomes
            if isinstance(o, ServeClientError) and o.status == 503
        ]
        assert len(abandoned) >= 3
