"""Worker transports for the distributed compiler.

The coordinator/worker wire protocol is transport-agnostic: both sides
exchange small pickled *records* — ``("job", message)`` and ``("stop",)``
towards the worker, ``("done", worker_id, job_index, outcome)`` and
``("error", worker_id, job_index, traceback)`` back — and two transports
carry them:

* :class:`PipeTransport` — the original single-host pool: spawn-safe
  worker processes, one ``multiprocessing.Queue`` per worker for jobs
  and one **private result pipe** per worker for outcomes (one writer
  per pipe: a worker that dies mid-send corrupts only its own stream,
  which the coordinator observes as EOF).
* :class:`SocketTransport` — workers join over TCP, so they can live on
  other machines (``repro cluster --listen`` / ``--connect``).  Records
  travel through :class:`FramedStream`, a length-prefixed framed codec:
  an 8-byte big-endian length header followed by the pickled record.
  Workers deserialize the network and the pickled
  :class:`~repro.engine.masked.MaskedProgram` **once at join** (the
  ``init`` handshake ships the same payload the pipe workers get) and
  then receive the same self-contained job messages as the pipe
  workers.  A frame header claiming more than :data:`MAX_FRAME_BYTES`
  raises :class:`FrameTooLarge` before any of its body is read.

Both transports expose the same coordinator-side surface — ``workers``
(a list of :class:`WorkerHandle`), ``alive_workers()``, ``wait()``,
``shutdown()`` — so the scheduling layer in
:mod:`repro.compile.distributed` (work stealing, bounded in-flight
dispatch, crash recovery) is written once against this interface.
Steal and dispatch decisions never consult wall-clock time (the
``barrier-determinism`` lint covers this module too).
"""

from __future__ import annotations

import os
import pickle
import select
import socket as socket_module
import struct
import time
from collections import deque
from multiprocessing.connection import wait as connection_wait
from typing import Callable, Deque, Dict, List, Optional, Tuple

#: Frame header: payload length as an 8-byte big-endian unsigned int.
HEADER = struct.Struct(">Q")

#: Largest frame body either side accepts.  The biggest legitimate frame
#: is the join-time payload (pickled network + masked program); a header
#: claiming more is a corrupt or hostile peer, and trusting it would
#: buffer without bound.
MAX_FRAME_BYTES = 1 << 28

#: The transports a worker pool can run on.
TRANSPORTS = ("pipe", "socket")

_RECV_CHUNK = 1 << 16


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


def _checked_length(length: int) -> int:
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return length


class FramedStream:
    """Length-prefixed pickled records over one TCP socket.

    Every frame is ``HEADER.pack(len(body)) + body`` where ``body`` is
    the pickled record.  :meth:`recv` blocks for exactly one record;
    :meth:`receive_available` drains whatever complete frames the
    kernel buffer holds without blocking (the coordinator's select
    loop).  A peer that dies mid-frame surfaces as ``EOFError`` — the
    partial frame is discarded, never delivered — and a header beyond
    :data:`MAX_FRAME_BYTES` as :class:`FrameTooLarge`, raised before the
    body is read; the stream is unusable after either.
    """

    def __init__(self, sock: socket_module.socket) -> None:
        sock.setsockopt(
            socket_module.IPPROTO_TCP, socket_module.TCP_NODELAY, 1
        )
        self.sock = sock
        self.bytes_sent = 0
        self.bytes_received = 0
        self._buffer = bytearray()

    def send(self, record) -> None:
        body = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        frame = HEADER.pack(_checked_length(len(body))) + body
        self.sock.sendall(frame)
        self.bytes_sent += len(frame)

    def send_partial(self, record) -> None:
        """Ship the header plus a truncated body (crash-injection tests)."""
        body = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
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
        return pickle.loads(self._read_exact(_checked_length(length)))

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
            records.append(pickle.loads(buffer[start + HEADER.size : end]))
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
    """Coordinator-side state for one worker, transport-independent.

    ``pending`` is the worker's creation-order queue of job indices for
    the current generation — held coordinator-side so idle workers can
    *steal* from a loaded peer's queue; ``assigned`` maps the indices
    actually shipped (in flight) to their :class:`Job`.
    """

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.assigned: Dict[int, object] = {}
        self.pending: Deque[int] = deque()

    def send(self, record) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def alive(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def mark_dead(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class WorkerTransport:
    """Common coordinator-side surface of both transports."""

    kind = "abstract"

    def __init__(self) -> None:
        self.workers: List[WorkerHandle] = []
        self.spawn_seconds = 0.0
        self.worker_failures = 0
        self.killed_worker_ids: List[int] = []

    def alive_workers(self) -> List[WorkerHandle]:
        return [worker for worker in self.workers if worker.alive()]

    def wait(self, timeout: float):  # pragma: no cover - abstract
        """Collect ready worker records; returns ``[(handle, record)]``."""
        raise NotImplementedError

    def shutdown(
        self,
        force: bool = False,
        timeout: float = 5.0,
        kill_deadline: float = 1.0,
    ) -> List[int]:  # pragma: no cover - abstract
        raise NotImplementedError


class _PipeWorkerHandle(WorkerHandle):
    def __init__(self, worker_id: int, process, job_queue, reader) -> None:
        super().__init__(worker_id)
        self.process = process
        self.job_queue = job_queue
        self.reader = reader  # our end of the worker's result pipe

    def send(self, record) -> None:
        try:
            self.job_queue.put(record)
        except (OSError, ValueError):  # pragma: no cover - torn queue
            pass

    def alive(self) -> bool:
        return self.reader is not None and self.process.is_alive()

    def mark_dead(self) -> None:
        if self.reader is not None:
            try:
                self.reader.close()
            except OSError:  # pragma: no cover - already torn down
                pass
            self.reader = None


class PipeTransport(WorkerTransport):
    """Persistent spawn-safe worker processes plus their queues."""

    kind = "pipe"

    def __init__(
        self, payload: bytes, workers: int, worker_main: Callable
    ) -> None:
        import multiprocessing

        super().__init__()
        context = multiprocessing.get_context("spawn")
        started = time.perf_counter()
        try:
            for worker_id in range(workers):
                job_queue = context.Queue()
                reader, writer = context.Pipe(duplex=False)
                process = context.Process(
                    target=worker_main,
                    args=(worker_id, payload, job_queue, writer),
                    daemon=True,
                )
                process.start()
                # Close our copy of the write end: the worker now holds
                # the only one, so its death surfaces as EOF on
                # ``reader``.
                writer.close()
                self.workers.append(
                    _PipeWorkerHandle(worker_id, process, job_queue, reader)
                )
        except BaseException:
            # Partial spawn (e.g. the OS process limit): the caller
            # never sees this pool object, so reap the workers that
            # did start before re-raising.
            self.shutdown(force=True)
            raise
        self.spawn_seconds = time.perf_counter() - started

    def wait(self, timeout: float):
        readers = {
            worker.reader: worker
            for worker in self.workers
            if worker.reader is not None
        }
        if not readers:
            return []
        ready = connection_wait(list(readers), timeout=timeout)
        records = []
        for reader in ready:
            worker = readers[reader]
            try:
                record = reader.recv()
            except (EOFError, OSError):
                # The worker died (possibly mid-send: only its own
                # stream is affected); the scheduler requeues its jobs.
                worker.mark_dead()
                continue
            records.append((worker, record))
        return records

    def shutdown(
        self,
        force: bool = False,
        timeout: float = 5.0,
        kill_deadline: float = 1.0,
    ) -> List[int]:
        """Stop every worker; escalate to ``terminate()`` when needed.

        The stop record is always sent, even under ``force=True``, so
        healthy workers get the chance to exit cleanly; ``force`` only
        shortens the join deadline to ``kill_deadline`` before the
        stragglers are terminated.  Returns the ids of the workers that
        had to be killed (the caller reports them in ``result.extra``).
        """
        killed: List[int] = []
        for worker in self.workers:
            if worker.alive():
                worker.send(("stop",))
        deadline = time.monotonic() + (kill_deadline if force else timeout)
        for worker in self.workers:
            remaining = max(0.0, deadline - time.monotonic())
            worker.process.join(remaining)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout)
                killed.append(worker.worker_id)
        for worker in self.workers:
            worker.job_queue.cancel_join_thread()
            worker.job_queue.close()
            worker.mark_dead()
        self.killed_worker_ids.extend(killed)
        self.workers = []
        return killed


class _SocketWorkerHandle(WorkerHandle):
    def __init__(
        self, worker_id: int, stream: FramedStream, process=None
    ) -> None:
        super().__init__(worker_id)
        self.stream: Optional[FramedStream] = stream
        self.process = process  # local spawn only; None for remote joins

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


class SocketTransport(WorkerTransport):
    """Workers joined over TCP; local-spawned or remote ``--connect``."""

    kind = "socket"

    def __init__(self) -> None:
        super().__init__()
        self.listener: Optional[socket_module.socket] = None
        self.address: Optional[Tuple[str, int]] = None
        self._local_processes: list = []

    # -- construction ---------------------------------------------------

    @classmethod
    def spawn_local(
        cls,
        payload: bytes,
        workers: int,
        host: str = "127.0.0.1",
        join_timeout: float = 120.0,
    ) -> "SocketTransport":
        """Listen on an ephemeral port and spawn local socket workers."""
        import multiprocessing

        transport = cls()
        started = time.perf_counter()
        transport._listen(host, 0)
        bound_host, port = transport.address
        context = multiprocessing.get_context("spawn")
        try:
            for _ in range(workers):
                process = context.Process(
                    target=_socket_worker_main,
                    args=(bound_host, port),
                    daemon=True,
                )
                process.start()
                transport._local_processes.append(process)
            transport._accept_workers(payload, workers, join_timeout)
        except BaseException:
            transport.shutdown(force=True)
            raise
        transport.spawn_seconds = time.perf_counter() - started
        return transport

    @classmethod
    def listen_for(
        cls,
        payload: bytes,
        workers: int,
        address: str,
        join_timeout: Optional[float] = None,
    ) -> "SocketTransport":
        """Bind ``address`` and wait for ``workers`` remote joins."""
        transport = cls()
        started = time.perf_counter()
        host, port = parse_address(address)
        transport._listen(host, port)
        try:
            transport._accept_workers(payload, workers, join_timeout)
        except BaseException:
            transport.shutdown(force=True)
            raise
        transport.spawn_seconds = time.perf_counter() - started
        return transport

    def _listen(self, host: str, port: int) -> None:
        listener = socket_module.socket(
            socket_module.AF_INET, socket_module.SOCK_STREAM
        )
        listener.setsockopt(
            socket_module.SOL_SOCKET, socket_module.SO_REUSEADDR, 1
        )
        listener.bind((host, port))
        listener.listen(16)
        self.listener = listener
        self.address = listener.getsockname()[:2]

    def _accept_workers(
        self, payload: bytes, workers: int, join_timeout: Optional[float]
    ) -> None:
        """Run the join handshake until ``workers`` workers are ready.

        Handshake: the worker connects and sends ``("hello", pid)``;
        the coordinator assigns the next worker id (accept order) and
        replies ``("init", worker_id, payload)``; the worker
        deserializes the payload — network, variable pool, masked
        program — once, and confirms with ``("ready", worker_id)``.
        """
        deadline = (
            None if join_timeout is None
            else time.monotonic() + join_timeout
        )
        joined: List[_SocketWorkerHandle] = []
        while len(joined) < workers:
            self.listener.settimeout(0.5)
            try:
                conn, _ = self.listener.accept()
            except socket_module.timeout:
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"only {len(joined)}/{workers} workers joined "
                        "before the join timeout"
                    )
                continue
            stream = FramedStream(conn)
            conn.settimeout(30.0)
            hello = stream.recv()
            if not (isinstance(hello, tuple) and hello[0] == "hello"):
                stream.close()
                continue
            worker_id = len(joined)
            stream.send(("init", worker_id, payload))
            ready = stream.recv()
            if not (isinstance(ready, tuple) and ready[0] == "ready"):
                stream.close()
                continue
            conn.settimeout(None)
            process = (
                self._local_processes[worker_id]
                if worker_id < len(self._local_processes)
                else None
            )
            joined.append(_SocketWorkerHandle(worker_id, stream, process))
        self.workers.extend(joined)

    # -- runtime --------------------------------------------------------

    def wait(self, timeout: float):
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
            except (OSError, FrameTooLarge):
                # A torn socket or a forged length header: drop the
                # worker; the scheduler requeues its jobs.
                drained, eof = [], True
            records.extend((worker, record) for record in drained)
            if eof:
                worker.mark_dead()
        return records

    def shutdown(
        self,
        force: bool = False,
        timeout: float = 5.0,
        kill_deadline: float = 1.0,
    ) -> List[int]:
        """Stop every worker with a bounded per-worker join deadline.

        Remote workers get the stop record and their connection closed;
        local-spawned workers are additionally joined (``force=True``
        shortens the deadline to ``kill_deadline``) and terminated —
        and reported — when they overstay it.
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
        for process in self._local_processes:
            if process.is_alive():  # pragma: no cover - spawn aborted early
                process.terminate()
                process.join(timeout)
        if self.listener is not None:
            try:
                self.listener.close()
            except OSError:  # pragma: no cover - already torn down
                pass
            self.listener = None
        self.killed_worker_ids.extend(killed)
        self.workers = []
        self._local_processes = []
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


def serve_worker(
    address: str,
    retry_seconds: float = 10.0,
    fault: Optional[dict] = None,
) -> int:
    """Join a coordinator at ``address`` and serve jobs until stopped.

    The ``repro cluster --connect host:port`` entry point: connect
    (retrying for up to ``retry_seconds`` while the coordinator is
    still coming up), run the join handshake, deserialize the shipped
    network/program payload once, then loop on job records until the
    stop record — or the coordinator's disappearance — ends the
    session.  Returns a process exit status (0).
    """
    # Lazy import: this module is the transport layer underneath
    # repro.compile.distributed, which imports it at module scope.
    from .distributed import _build_worker_state, _serve_jobs

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
    stream = FramedStream(sock)
    try:
        stream.send(("hello", os.getpid()))
        init = stream.recv()
        if not (isinstance(init, tuple) and init[0] == "init"):
            raise RuntimeError(f"unexpected handshake record {init!r}")
        worker_id, payload = init[1], init[2]
        config = pickle.loads(payload)
        compiler, cursor = _build_worker_state(config)
        if fault is None:
            fault = config.get("fault") or {}
        stream.send(("ready", worker_id))
        try:
            _serve_jobs(
                worker_id,
                compiler,
                cursor,
                fault,
                recv_record=stream.recv,
                send_record=stream.send,
                send_partial=stream.send_partial,
            )
        except (EOFError, OSError):
            # The coordinator went away; nothing left to serve.
            pass
    finally:
        stream.close()
    return 0


def _socket_worker_main(host: str, port: int) -> None:
    """Spawn target for locally-launched socket workers."""
    try:
        serve_worker(f"{host}:{port}", retry_seconds=30.0)
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
