"""The worker transport of the distributed compiler.

Coordinator and workers exchange small JSON *records* through
:class:`FramedStream`, a length-prefixed framed codec over one stream
socket: an 8-byte big-endian length header followed by the record as
compact UTF-8 JSON.  A frame header claiming more than
:data:`MAX_FRAME_BYTES` raises :class:`FrameTooLarge` before any of its
body is read; a body that is not one of the seven records of
:data:`RECORDS` raises :class:`MalformedFrame`.  Peer bytes are only
ever parsed as JSON and checked field by field — never executed.

:class:`WorkerTransport` is the one pool behind
``execution="process"``.  :meth:`WorkerTransport.spawn` starts
spawn-safe local workers, each on one end of a private
``socket.socketpair()`` — a stream is bound to its process by
construction and nothing listens anywhere;
:meth:`WorkerTransport.listen_for` binds ``listen="host:port"`` and
accepts ``repro cluster --connect`` workers, which can live on other
machines.  Either way a worker joins with the same ``hello → init →
ready`` handshake, rebuilds the network from the ``init`` record's
documents **once**, and then serves self-contained job messages until
stopped.  One writer per stream: a worker that dies mid-send corrupts
only its own stream, which the coordinator observes as EOF.

A ``--listen`` port is still unauthenticated: any peer that reaches it
can join as a worker and report forged outcomes.

The scheduling layer in :mod:`repro.compile.distributed` (work
stealing, bounded in-flight dispatch, crash recovery) is written
against ``workers`` (a list of :class:`WorkerHandle`),
``alive_workers()``, ``wait()`` and ``shutdown()``.  Steal and dispatch
decisions never consult wall-clock time (the ``barrier-determinism``
lint covers this module too).
"""

from __future__ import annotations

import json
import os
import select
import socket as socket_module
import struct
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

#: Frame header: payload length as an 8-byte big-endian unsigned int.
HEADER = struct.Struct(">Q")

#: Largest frame body either side accepts.  The biggest legitimate frame
#: is the join-time ``init`` record (the network and variable-pool
#: documents); a header claiming more is a corrupt or hostile peer, and
#: trusting it would buffer without bound.
MAX_FRAME_BYTES = 1 << 28

#: Deepest nesting a frame body may have.  The deepest record, ``init``,
#: nests 8 deep; the check runs before the parser, whose recursion is
#: bounded only by the interpreter's recursion limit.
MAX_DEPTH = 32
_NOT_BRACKETS = bytes(sorted(set(range(256)) - set(b"[]{}")))

_RECV_CHUNK = 1 << 16

#: How long a connection to a ``listen=`` port may take over its join
#: handshake before it is dropped as not-a-worker.
HANDSHAKE_SECONDS = 30.0

#: How long a spawned worker gets to boot its interpreter and join.
SPAWN_SECONDS = 120.0


def parse_address(address: str) -> Tuple[str, int]:
    """Split ``"host:port"`` into ``(host, port)``.

    >>> parse_address("127.0.0.1:7453")
    ('127.0.0.1', 7453)
    """
    host, sep, port = address.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(
            f"bad address {address!r}; expected 'host:port' with a "
            "numeric port"
        )
    return host, int(port)


class FrameTooLarge(ValueError):
    """A frame header claimed a body beyond :data:`MAX_FRAME_BYTES`."""


class MalformedFrame(ValueError):
    """A frame body that is not one of the seven wire records."""


def _checked_length(length: int) -> int:
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return length


Prefix = Tuple[Tuple[int, bool], ...]


@dataclass
class _JobMessage:
    """One job on the coordinator→worker wire; self-contained."""

    job_index: int
    scheme: str
    epsilon: float
    job_size: int
    prefix: Prefix  # the job root's assignments
    prob: float
    active: Tuple[str, ...]
    budgets: Dict[str, float]
    snap_lower: Dict[str, float]
    snap_upper: Dict[str, float]
    global_share: Dict[str, float]


@dataclass
class _Outcome:
    """What one executed job reports back to the coordinator."""

    lower_delta: Dict[str, float]
    upper_delta: Dict[str, float]  # how much each upper bound shrank
    residual: Dict[str, float]
    global_left: Dict[str, float]  # unconsumed eager global-budget share
    children: Sequence[tuple]  # (prefix, prob, active, budgets)
    cost: float
    tree_nodes: int
    evals: int
    max_depth: int
    # Time the worker sat blocked waiting for this job's message.
    recv_wait: float = 0.0


# -- the wire schema: one checker per field -----------------------------
#
# ``int`` takes no bool, ``float`` any number, a map of numbers is keyed
# by name, and an object has exactly its fields.  Lists decode to
# tuples: a prefix is a tuple of ``(int, bool)`` tuples, as the
# evaluator's own assignment, since a cursor compares prefixes entry by
# entry.  Item types are collected with ``set(map(type, ...))`` so the
# per-item work stays in C.

_NUMBER = frozenset({int, float})


def _ensure(valid: bool, value):
    if not valid:
        raise MalformedFrame(f"unexpected value {str(value)[:80]!r}")
    return value


def _of(*types):
    """A checker for a value of exactly one of ``types``."""
    return lambda value: _ensure(type(value) in types, value)


# A document is checked in depth where it is used: network_from_dict
# rejects a malformed section.
_int, _float, _str, _document = _of(int), _of(*_NUMBER), _of(str), _of(dict)


def _list_of(types: set, value) -> tuple:
    return tuple(
        _ensure(type(value) is list and set(map(type, value)) <= types, value)
    )


def _names(value) -> Tuple[str, ...]:
    return _list_of({str}, value)


def _floats(value) -> Dict[str, float]:
    return _ensure(
        type(value) is dict and set(map(type, value.values())) <= _NUMBER, value
    )


def _prefix(value) -> Prefix:
    return tuple(
        tuple(_ensure(
            type(entry) is list and tuple(map(type, entry)) == (int, bool), entry
        ))
        for entry in _list_of({list}, value)
    )


def _child(value) -> tuple:
    _ensure(type(value) is list and len(value) == 4, value)
    prefix, prob, active, budgets = value
    return _prefix(prefix), _float(prob), _names(active), _floats(budgets)


def _order(value):
    return value if type(value) is str else _list_of({int}, value)


def _object(fields: dict, make=dict):
    """A checker for an object with exactly ``fields``, built by ``make``."""
    def check(value):
        _ensure(type(value) is dict and value.keys() == fields.keys(), value)
        return make(**{name: field(value[name]) for name, field in fields.items()})
    return check


#: The seven records and their fields.  ``hello(pid)`` opens a join,
#: ``init(worker_id, config)`` answers it and ``ready(worker_id)``
#: closes it; then ``job(message)`` and ``stop()`` go to the worker,
#: ``done(worker_id, job_index, outcome)`` and
#: ``error(worker_id, job_index, traceback)`` come back.
RECORDS = {
    "hello": (_int,),
    "init": (_int, _object({
        "network": _document, "pool": _document, "targets": _names,
        "order": _order, "engine": _str,
        "fault": lambda value: value if value is None else _floats(value),
    })),
    "ready": (_int,),
    "job": (_object({
        "job_index": _int, "scheme": _str, "epsilon": _float,
        "job_size": _int, "prefix": _prefix, "prob": _float,
        "active": _names, "budgets": _floats, "snap_lower": _floats,
        "snap_upper": _floats, "global_share": _floats,
    }, _JobMessage),),
    "done": (_int, _int, _object({
        "lower_delta": _floats, "upper_delta": _floats, "residual": _floats,
        "global_left": _floats,
        "children": lambda value: tuple(map(_child, _list_of({list}, value))),
        "cost": _float, "tree_nodes": _int, "evals": _int, "max_depth": _int,
        "recv_wait": _float,
    }, _Outcome)),
    "error": (_int, _int, _str),
    "stop": (),
}


def encode_record(record: tuple) -> bytes:
    """One record as compact UTF-8 JSON (dataclass fields as objects)."""
    document = [
        vars(field) if isinstance(field, (_JobMessage, _Outcome)) else field
        for field in record
    ]
    return json.dumps(document, separators=(",", ":")).encode("utf-8")


def _nests_deeper(body: bytes, limit: int) -> bool:
    """Whether ``body``'s brackets nest deeper than ``limit`` (or do
    not balance), read outside JSON strings in linear passes."""
    # Drop escaped backslashes and quotes, then every string's content.
    text = body.replace(b"\\\\", b"").replace(b'\\"', b"")
    brackets = b"".join(text.split(b'"')[::2]).translate(None, _NOT_BRACKETS)
    for _ in range(limit):
        if not brackets:
            return False
        # Each pass strips the innermost level.
        brackets = brackets.replace(b"[]", b"").replace(b"{}", b"")
    return bool(brackets)


def decode_record(body) -> tuple:
    """Parse one frame body back into its record tuple.

    Anything but one of the seven :data:`RECORDS` — bytes that are not
    UTF-8 or not JSON, nesting too deep for the parser, an unknown kind,
    the wrong arity or a field of the wrong type — raises
    :class:`MalformedFrame`.
    """
    body = bytes(body)
    if _nests_deeper(body, MAX_DEPTH):
        raise MalformedFrame(f"frame body nests deeper than {MAX_DEPTH}")
    try:
        document = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise MalformedFrame(f"frame body is not JSON: {exc}") from None
    kind = document[0] if type(document) is list and document else None
    fields = RECORDS.get(kind) if type(kind) is str else None
    _ensure(fields is not None and len(document) == 1 + len(fields), document)
    return (kind,) + tuple(
        check(value) for check, value in zip(fields, document[1:])
    )


class FramedStream:
    """Length-prefixed JSON records over one stream socket.

    Every frame is ``HEADER.pack(len(body)) + body`` where ``body`` is
    :func:`encode_record` of the record.  :meth:`recv` blocks for
    exactly one record; :meth:`receive_available` drains whatever
    complete frames the kernel buffer holds without blocking (the
    coordinator's select loop).  A peer that dies mid-frame surfaces as ``EOFError`` — the
    partial frame is discarded, never delivered — and a header beyond
    :data:`MAX_FRAME_BYTES` as :class:`FrameTooLarge`, raised before the
    body is read, and a body that is no record as
    :class:`MalformedFrame`; the stream is unusable after any of them.
    """

    def __init__(self, sock: socket_module.socket) -> None:
        if sock.family in (socket_module.AF_INET, socket_module.AF_INET6):
            sock.setsockopt(
                socket_module.IPPROTO_TCP, socket_module.TCP_NODELAY, 1
            )
        self.sock = sock
        self.bytes_sent = 0
        self.bytes_received = 0
        self._buffer = bytearray()

    def send(self, record) -> None:
        body = encode_record(record)
        frame = HEADER.pack(_checked_length(len(body))) + body
        self.sock.sendall(frame)
        self.bytes_sent += len(frame)

    def send_partial(self, record) -> None:
        """Ship the header plus a truncated body (crash-injection tests)."""
        body = encode_record(record)
        frame = HEADER.pack(len(body)) + body[: max(1, len(body) // 2)]
        self.sock.sendall(frame)
        self.bytes_sent += len(frame)

    def _read_exact(self, count: int) -> bytearray:
        while len(self._buffer) < count:
            chunk = self.sock.recv(_RECV_CHUNK)
            if not chunk:
                raise EOFError("peer closed the stream mid-frame")
            self._buffer += chunk
            self.bytes_received += len(chunk)
        data = self._buffer[:count]
        del self._buffer[:count]
        return data

    def recv(self):
        """Block until one complete record arrives."""
        (length,) = HEADER.unpack(self._read_exact(HEADER.size))
        return decode_record(self._read_exact(_checked_length(length)))

    def receive_available(self) -> Tuple[list, bool]:
        """Drain buffered complete frames; returns ``(records, eof)``.

        Non-blocking: reads whatever the kernel already holds, decodes
        every complete frame, and keeps any trailing partial frame
        buffered for the next call.  ``eof`` is True when the peer
        closed the connection (any half-received frame is dropped).
        """
        eof = False
        self.sock.setblocking(False)
        try:
            while True:
                try:
                    chunk = self.sock.recv(_RECV_CHUNK)
                except (BlockingIOError, InterruptedError):
                    break
                except OSError:
                    eof = True
                    break
                if not chunk:
                    eof = True
                    break
                self._buffer += chunk
                self.bytes_received += len(chunk)
        finally:
            self.sock.setblocking(True)
        records = []
        buffer = self._buffer
        start = 0
        while len(buffer) - start >= HEADER.size:
            (length,) = HEADER.unpack_from(buffer, start)
            end = start + HEADER.size + _checked_length(length)
            if len(buffer) < end:
                break
            records.append(decode_record(buffer[start + HEADER.size : end]))
            start = end
        del buffer[:start]
        return records, eof

    def fileno(self) -> int:
        return self.sock.fileno()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - already torn down
            pass


class WorkerHandle:
    """Coordinator-side state for one worker.

    ``pending`` is the worker's creation-order queue of job indices for
    the current generation — held coordinator-side so idle workers can
    *steal* from a loaded peer's queue; ``assigned`` maps the indices
    actually shipped (in flight) to their :class:`Job`.  ``process`` is
    the spawned worker behind ``stream`` (``None`` for a remote join).
    """

    def __init__(
        self, worker_id: int, stream: FramedStream, process=None
    ) -> None:
        self.worker_id = worker_id
        self.assigned: Dict[int, object] = {}
        self.pending: Deque[int] = deque()
        self.stream: Optional[FramedStream] = stream
        self.process = process

    def send(self, record) -> None:
        if self.stream is None:
            return
        try:
            self.stream.send(record)
        except OSError:
            self.mark_dead()

    def alive(self) -> bool:
        # Process death always surfaces as EOF on the socket (the
        # kernel closes it), so liveness is the stream's alone — which
        # also covers remote workers with no local process object.
        return self.stream is not None

    def mark_dead(self) -> None:
        if self.stream is not None:
            self.stream.close()
            self.stream = None


def _expect(stream: FramedStream, kind: str) -> None:
    if stream.recv()[0] != kind:
        raise MalformedFrame(f"expected a {kind!r} record from the worker")


def _handshake(
    stream: FramedStream, worker_id: int, config: dict, timeout: float
) -> None:
    """Coordinator side of the join: ``hello`` → ``init`` → ``ready``.

    The worker opens with ``("hello", pid)``; the coordinator replies
    ``("init", worker_id, config)``; the worker rebuilds the network
    and variable pool from the config's documents once, and confirms
    with ``("ready", worker_id)``.  Anything else raises.
    """
    stream.sock.settimeout(timeout)
    _expect(stream, "hello")
    stream.send(("init", worker_id, config))
    _expect(stream, "ready")
    stream.sock.settimeout(None)


class WorkerTransport:
    """The worker pool: one framed stream per spawned or remote worker."""

    def __init__(self) -> None:
        self.workers: List[WorkerHandle] = []
        self.spawn_seconds = 0.0
        self.worker_failures = 0
        self.listener: Optional[socket_module.socket] = None

    # -- construction ---------------------------------------------------

    @classmethod
    def spawn(cls, config: dict, workers: int) -> "WorkerTransport":
        """Spawn local workers, each on its own private socket pair."""
        import multiprocessing

        transport = cls()
        started = time.perf_counter()
        context = multiprocessing.get_context("spawn")
        try:
            for worker_id in range(workers):
                ours, theirs = socket_module.socketpair()
                stream = FramedStream(ours)
                process = context.Process(
                    target=_spawned_worker_main, args=(theirs,), daemon=True
                )
                # Close our copy of the worker's end once it is handed
                # over: the worker then holds the only one, so its death
                # surfaces as EOF on ``ours``.
                with theirs:
                    process.start()
                transport.workers.append(
                    WorkerHandle(worker_id, stream, process)
                )
            for worker in transport.workers:
                _handshake(
                    worker.stream, worker.worker_id, config, SPAWN_SECONDS
                )
        except BaseException:
            # Partial spawn (e.g. the OS process limit): the caller
            # never sees this pool object, so reap the workers that
            # did start before re-raising.
            transport.shutdown(force=True)
            raise
        transport.spawn_seconds = time.perf_counter() - started
        return transport

    @classmethod
    def listen_for(
        cls,
        config: dict,
        workers: int,
        address: str,
        join_timeout: Optional[float] = None,
    ) -> "WorkerTransport":
        """Bind ``address`` and wait for ``workers`` remote joins.

        A connection that fails the handshake — closes, stays silent,
        sends garbage or an oversize frame — is closed and skipped; the
        join keeps waiting until ``join_timeout``.
        """
        transport = cls()
        started = time.perf_counter()
        host, port = parse_address(address)
        listener = socket_module.socket(
            socket_module.AF_INET, socket_module.SOCK_STREAM
        )
        listener.setsockopt(
            socket_module.SOL_SOCKET, socket_module.SO_REUSEADDR, 1
        )
        transport.listener = listener
        deadline = (
            None if join_timeout is None
            else time.monotonic() + join_timeout
        )
        try:
            listener.bind((host, port))
            listener.listen(16)
            listener.settimeout(0.5)
            while len(transport.workers) < workers:
                try:
                    conn, _ = listener.accept()
                except socket_module.timeout:
                    if deadline is not None and time.monotonic() > deadline:
                        raise TimeoutError(
                            f"only {len(transport.workers)}/{workers} "
                            "workers joined before the join timeout"
                        )
                    continue
                stream = FramedStream(conn)
                worker_id = len(transport.workers)
                try:
                    _handshake(stream, worker_id, config, HANDSHAKE_SECONDS)
                except (OSError, EOFError, FrameTooLarge, MalformedFrame):
                    # Not a worker (port scan, health check, hostile
                    # peer): a timeout, a close, or a frame that is too
                    # large, malformed or out of turn.
                    stream.close()
                    continue
                transport.workers.append(WorkerHandle(worker_id, stream))
        except BaseException:
            transport.shutdown(force=True)
            raise
        transport.spawn_seconds = time.perf_counter() - started
        return transport

    # -- runtime --------------------------------------------------------

    def alive_workers(self) -> List[WorkerHandle]:
        return [worker for worker in self.workers if worker.alive()]

    def wait(self, timeout: float):
        """Collect ready worker records; returns ``[(handle, record)]``."""
        channels = {
            worker.stream.fileno(): worker
            for worker in self.workers
            if worker.stream is not None
        }
        if not channels:
            return []
        try:
            readable, _, _ = select.select(list(channels), [], [], timeout)
        except (OSError, ValueError):  # pragma: no cover - torn sockets
            readable = []
        records = []
        for fd in readable:
            worker = channels[fd]
            if worker.stream is None:
                continue
            try:
                drained, eof = worker.stream.receive_available()
                if any(record[0] not in ("done", "error") for record in drained):
                    raise MalformedFrame("a worker sent a coordinator record")
            except (OSError, FrameTooLarge, MalformedFrame):
                # A torn socket, a forged length header or a malformed
                # frame: drop the worker; the scheduler requeues its jobs.
                drained, eof = [], True
            records.extend((worker, record) for record in drained)
            if eof:
                # The worker died (possibly mid-send: only its own
                # stream is affected, the half frame is discarded).
                worker.mark_dead()
        return records

    def shutdown(
        self,
        force: bool = False,
        timeout: float = 5.0,
        kill_deadline: float = 1.0,
    ) -> List[int]:
        """Stop every worker with a bounded per-worker join deadline.

        The stop record is always sent, even under ``force=True``, so
        healthy workers get the chance to exit cleanly.  Remote workers
        then have their connection closed; spawned workers are joined
        (``force`` shortens the deadline to ``kill_deadline``) and
        terminated when they overstay it.  Returns the ids of the
        workers that had to be killed (the caller reports them in
        ``result.extra``).
        """
        killed: List[int] = []
        for worker in self.workers:
            if worker.alive():
                worker.send(("stop",))
        deadline = time.monotonic() + (kill_deadline if force else timeout)
        for worker in self.workers:
            if worker.process is None:
                continue
            remaining = max(0.0, deadline - time.monotonic())
            worker.process.join(remaining)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout)
                killed.append(worker.worker_id)
        for worker in self.workers:
            worker.mark_dead()
        if self.listener is not None:
            self.listener.close()
            self.listener = None
        self.workers = []
        return killed

    def wire_bytes(self) -> Tuple[int, int]:
        """Total ``(sent, received)`` bytes across current workers."""
        sent = 0
        received = 0
        for worker in self.workers:
            if worker.stream is not None:
                sent += worker.stream.bytes_sent
                received += worker.stream.bytes_received
        return sent, received


# ----------------------------------------------------------------------
# Worker-side entry points
# ----------------------------------------------------------------------


def _serve_connection(
    sock: socket_module.socket, fault: Optional[dict] = None
) -> int:
    """Join the coordinator behind ``sock`` and serve jobs until stopped.

    Run the join handshake, rebuild the shipped network and pool once,
    then loop on job records until the stop record — or the
    coordinator's disappearance or a malformed frame — ends the session.
    """
    # Lazy import: this module is the transport layer underneath
    # repro.compile.distributed, which imports it at module scope.
    from .distributed import _build_worker_state, _serve_jobs

    stream = FramedStream(sock)
    try:
        stream.send(("hello", os.getpid()))
        init = stream.recv()
        if init[0] != "init":
            raise MalformedFrame(f"expected an 'init' record, got {init[0]!r}")
        worker_id, config = init[1], init[2]
        compiler, cursor = _build_worker_state(config)
        if fault is None:
            fault = config.get("fault") or {}
        stream.send(("ready", worker_id))
        try:
            _serve_jobs(worker_id, compiler, cursor, fault, stream)
        except (EOFError, OSError, FrameTooLarge, MalformedFrame):
            # The coordinator went away, or its stream no longer carries
            # records: nothing left to serve.
            pass
    finally:
        stream.close()
    return 0


def serve_worker(
    address: str,
    retry_seconds: float = 10.0,
    fault: Optional[dict] = None,
) -> int:
    """Join a coordinator at ``address`` and serve jobs until stopped.

    The ``repro cluster --connect host:port`` entry point: connect
    (retrying for up to ``retry_seconds`` while the coordinator is
    still coming up), then serve like a spawned worker.  Returns a
    process exit status (0).
    """
    host, port = parse_address(address)
    deadline = time.monotonic() + retry_seconds
    while True:
        try:
            sock = socket_module.create_connection((host, port), timeout=5.0)
            break
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.1)
    sock.settimeout(None)
    return _serve_connection(sock, fault)


def _spawned_worker_main(sock: socket_module.socket) -> None:
    """Spawn target: serve the coordinator on our end of its socket pair."""
    try:
        _serve_connection(sock)
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
