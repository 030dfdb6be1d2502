"""The ``repro serve`` asyncio HTTP/JSON query service.

A long-running front-end over the scheme registry: clients register
event networks (the :mod:`repro.network.serialize` document format)
under catalog names, then issue queries that dispatch through
:func:`repro.engine.registry.run_scheme` — every registered scheme is
servable, with its options normalised by the same capability gates as
a direct call.  Concurrent queries are coalesced by the batching layer
(:mod:`repro.serve.batching`) and answered through the dbt-style
artifact cache (:mod:`repro.serve.cache`).

Catalog semantics (the cache contract).  A document has two content
identities: its *document hash* (network plus pool, the PUT's
``hash``), which keys and tags result artifacts, and its *structure
hash* (the network section alone), which keys and tags the compiled
network.  Documents that differ only in their marginals share one
compiled network; each pass builds its pool from the document its
query named.

* **register/edit** ``PUT /networks/<name>`` — binds the name to the
  document; an edit drops the old document hash's results unless a
  catalog entry still names that document, and the old structure's
  compiled network unless an entry still names that structure
  (``cache_dropped``); re-registering identical content invalidates
  nothing.  The network section is validated unless its compiled
  network is resident (those exact bytes were built before).
* **rename** ``POST /networks/<name>/rename`` — remaps the catalog
  name only; artifacts are content-addressed, so nothing is dropped
  (``cache_renamed``).
* **delete** ``DELETE /networks/<name>`` — unbinds the name and drops
  its artifacts under the same rule as an edit.

The catalog holds each network section as its canonical bytes (plus
the target and name maps queries are checked against), not as parsed
records: a ``cold`` pass parses those bytes.

Conditioning: ``POST /condition`` is ``POST /query`` with the scheme
defaulting to ``exact-cond`` and evidence *required* — the request's
``evidence`` list (any form accepted by
:func:`repro.engine.registry.normalise_evidence`) merged with the
network's *sticky* evidence, set with ``PUT /networks/<name>/evidence``
and cleared with ``DELETE`` (or by re-registering the network).
Evidence participates in the normalised options, so it is part of the
artifact-cache key for evidence-capable schemes and normalised away —
one shared cache entry — for all others.  Every response envelope
carries ``protocol_version`` (:data:`repro.serve.protocol.PROTOCOL_VERSION`).

Endpoints: ``GET /healthz``, ``GET /stats``, ``GET /schemes``,
``PUT /networks/<name>``, ``DELETE /networks/<name>``,
``POST /networks/<name>/rename``,
``PUT/DELETE /networks/<name>/evidence``, ``POST /query``,
``POST /condition``, ``POST /shutdown``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import re
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..compile.ordering import ORDER_NAMES
from ..engine.registry import (
    ImpossibleEvidenceError,
    available_schemes,
    get_scheme,
    normalise_evidence,
    normalise_options,
    scheme_capabilities,
    CAP_BULK,
    CAP_EVIDENCE,
)
from ..network.serialize import (
    canonical_document_bytes,
    canonical_json_bytes,
    content_hash,
    network_from_dict,
    pool_from_dict,
)
from .batching import (
    BatchingExecutor,
    ComputeError,
    QueryJob,
    QueueFull,
    ShuttingDown,
)
from .cache import DEFAULT_CACHE_BYTES, ArtifactCache
from .protocol import ProtocolError, Request, json_response, read_request

_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]{1,128}$")

#: Execution modes a served query may request (``process`` spawns local
#: workers; a served query cannot ask for ``listen=``).
SERVABLE_EXECUTIONS = ("simulate", "process")


class ServeError(Exception):
    """A request error with an HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _compiled_key(structure_hash: str) -> str:
    return f"compiled:{structure_hash}"


@dataclass
class CatalogEntry:
    """One registered network: its content identities and what queries read.

    ``network_hash`` is the document hash and ``structure_hash`` the
    SHA-256 of ``network_bytes``, the canonical encoding of the network
    section.  ``targets`` and ``names`` are that section's name -> node
    maps and ``pool`` is the document's pool section.

    ``evidence`` is the *sticky* evidence set via
    ``PUT /networks/<name>/evidence``: canonical entries merged into
    every evidence-capable query against this name.  Re-registering the
    name resets it — new content, fresh conditioning state.
    """

    name: str
    network_hash: str
    structure_hash: str
    network_bytes: bytes
    targets: Dict[str, int]
    names: Dict[str, int]
    pool: dict
    evidence: Tuple[tuple, ...] = ()


class ReproServer:
    """The asyncio service: catalog + batching executor + cache."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 32,
        max_pending: int = 256,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
    ) -> None:
        self.host = host
        self._requested_port = port
        self.cache = ArtifactCache(cache_bytes)
        self.executor = BatchingExecutor(
            self.cache, self._referenced, max_batch=max_batch, max_pending=max_pending
        )
        self.catalog: Dict[str, CatalogEntry] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set = set()
        self._shutdown = None  # asyncio.Event, created on start()
        self._drain_timeout = 5.0
        self._started_at = time.perf_counter()
        self.report: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------
    # Catalog operations (shared by HTTP routes and CLI preloading)
    # ------------------------------------------------------------------

    def put_network(self, name: str, document: dict) -> dict:
        """Register (or edit) a catalog network from its document."""
        if not _NAME_RE.match(name):
            raise ServeError(400, f"bad network name {name!r}")
        if not (
            isinstance(document, dict)
            and isinstance(document.get("network"), dict)
            and isinstance(document.get("pool"), dict)
        ):
            raise ServeError(
                400, "body must be a document with object 'network' and 'pool'"
            )
        section = document["network"]
        network_bytes = canonical_json_bytes(section)
        structure_hash = hashlib.sha256(network_bytes).hexdigest()
        network_hash = hashlib.sha256(
            canonical_document_bytes(document, network_bytes)
        ).hexdigest()
        try:
            # Validate eagerly: a malformed document must fail the PUT,
            # not the first query that tries to materialize it.  A
            # resident compiled network was built from these very bytes.
            if not self.cache.contains(_compiled_key(structure_hash)):
                network_from_dict(section)
            pool_from_dict(document["pool"])
        except (KeyError, ValueError, TypeError) as exc:
            raise ServeError(400, f"invalid network document: {exc}") from exc
        previous = self.catalog.get(name)
        self.catalog[name] = CatalogEntry(
            name,
            network_hash,
            structure_hash,
            network_bytes,
            section["targets"],
            section["names"],
            document["pool"],
        )
        invalidated = 0
        if previous is not None:
            invalidated = self._drop_unreferenced(previous)
        return {
            "network": name,
            "hash": network_hash,
            "replaced": previous is not None,
            "invalidated": invalidated,
        }

    def delete_network(self, name: str) -> dict:
        entry = self.catalog.pop(name, None)
        if entry is None:
            raise ServeError(404, f"unknown network {name!r}")
        return {"network": name, "invalidated": self._drop_unreferenced(entry)}

    def rename_network(self, name: str, new_name: str) -> dict:
        entry = self.catalog.get(name)
        if entry is None:
            raise ServeError(404, f"unknown network {name!r}")
        if not _NAME_RE.match(new_name):
            raise ServeError(400, f"bad network name {new_name!r}")
        if new_name in self.catalog:
            raise ServeError(409, f"network {new_name!r} already exists")
        del self.catalog[name]
        entry.name = new_name
        self.catalog[new_name] = entry
        invalidated = self.cache.rename_network(name, new_name)
        return {
            "network": new_name,
            "was": name,
            "hash": entry.network_hash,
            "invalidated": invalidated,
        }

    def _referenced(self, content_hash: str) -> bool:
        """Does a catalog entry name ``content_hash`` (as its document
        or its structure)?"""
        return any(
            content_hash in (entry.network_hash, entry.structure_hash)
            for entry in self.catalog.values()
        )

    def _drop_unreferenced(self, entry: CatalogEntry) -> int:
        """Drop the artifacts of an unbound ``entry`` that no catalog
        entry still reaches: its results unless an entry names its
        document hash, its compiled network unless an entry names its
        structure.  Returns the number of artifacts dropped."""
        entries = self.catalog.values()
        invalidated = 0
        if all(other.network_hash != entry.network_hash for other in entries):
            invalidated += self.cache.drop_network(entry.network_hash)
        if all(
            other.structure_hash != entry.structure_hash for other in entries
        ):
            invalidated += self.cache.drop_network(entry.structure_hash)
        return invalidated

    # ------------------------------------------------------------------
    # Query preparation
    # ------------------------------------------------------------------

    def _prepare_job(
        self, payload: dict, require_evidence: bool = False
    ) -> QueryJob:
        name = payload.get("network")
        if not isinstance(name, str):
            raise ServeError(400, "missing 'network' (a catalog name)")
        entry = self.catalog.get(name)
        if entry is None:
            raise ServeError(404, f"unknown network {name!r}")
        scheme = payload.get("scheme", "exact")
        try:
            spec = get_scheme(scheme)
        except ValueError as exc:
            raise ServeError(400, str(exc)) from exc
        try:
            request_evidence = normalise_evidence(payload.get("evidence"))
            # The sticky set and the request's entries must agree; the
            # merge re-canonicalises and surfaces conflicts as a 400.
            evidence = normalise_evidence(
                tuple(entry.evidence) + request_evidence
            )
        except ValueError as exc:
            raise ServeError(400, str(exc)) from exc
        if require_evidence:
            if not spec.has(CAP_EVIDENCE):
                raise ServeError(
                    400,
                    f"scheme {scheme!r} cannot condition on evidence; "
                    f"expected one of "
                    f"{available_schemes(capability=CAP_EVIDENCE)}",
                )
            if not evidence:
                raise ServeError(
                    400,
                    "conditioning requires evidence: pass an 'evidence' "
                    "list or set sticky evidence with "
                    f"PUT /networks/{name}/evidence",
                )
        self._validate_evidence(entry, evidence)
        execution = payload.get("execution", "simulate")
        if execution not in SERVABLE_EXECUTIONS:
            raise ServeError(
                400,
                f"execution {execution!r} is not servable; "
                f"expected one of {SERVABLE_EXECUTIONS}",
            )
        known_targets = entry.targets
        raw_targets = payload.get("targets")
        if raw_targets is None:
            targets = tuple(known_targets)
        elif isinstance(raw_targets, list) and all(
            isinstance(target, str) for target in raw_targets
        ):
            unknown = [t for t in raw_targets if t not in known_targets]
            if unknown:
                raise ServeError(400, f"unknown targets {unknown!r}")
            if not raw_targets:
                raise ServeError(400, "empty target list")
            targets = tuple(dict.fromkeys(raw_targets))
        else:
            raise ServeError(400, "'targets' must be a list of names")
        order = payload.get("ordering", payload.get("order", "frequency"))
        if isinstance(order, str):
            if order not in ORDER_NAMES:
                raise ServeError(
                    400,
                    f"unknown ordering {order!r}; expected one of "
                    f"{ORDER_NAMES} or an index list",
                )
        elif not isinstance(order, list) or not all(
            isinstance(index, int) for index in order
        ):
            raise ServeError(
                400, "'ordering' must be a strategy name or an index list"
            )
        try:
            options = normalise_options(
                scheme,
                epsilon=payload.get("epsilon", 0.0),
                ordering=order,
                workers=payload.get("workers"),
                job_size=payload.get("job_size", 3),
                execution=execution,
                timeout=payload.get("timeout"),
                samples=payload.get("samples", 1000),
                seed=int(payload.get("seed", 0)),
                confidence=payload.get("confidence", 0.95),
                kernel=payload.get("kernel"),
                evidence=evidence,
            )
        except (ValueError, TypeError) as exc:
            raise ServeError(400, str(exc)) from exc
        options_doc = {
            "epsilon": options.epsilon,
            "order": options.order
            if isinstance(options.order, str)
            else [int(index) for index in options.order],
            "workers": options.workers,
            "job_size": options.job_size,
            "execution": options.execution,
            "timeout": options.timeout,
            "samples": options.samples,
            "seed": options.seed,
            "confidence": options.confidence,
            "kernel": options.kernel,
            # Normalised away (empty) for evidence-free schemes, so
            # conditioned and unconditioned requests share cache keys
            # only when the engine pass is provably identical.
            "evidence": [list(item) for item in options.evidence],
        }
        sorted_targets = sorted(targets)
        # Bulk schemes evaluate all targets in one sweep with per-target
        # answers independent of the target set, so their group key
        # ignores targets (the pass runs the union); every other scheme
        # coalesces identical target sets only.
        group_doc = {
            "network": entry.network_hash,
            "scheme": scheme,
            "options": options_doc,
            "targets": None if spec.has(CAP_BULK) else sorted_targets,
        }
        cache_doc = {
            "network": entry.network_hash,
            "scheme": scheme,
            "options": options_doc,
            "targets": sorted_targets,
        }
        run_kwargs = {
            "epsilon": options.epsilon,
            "order": options.order,
            "workers": options.workers,
            "job_size": options.job_size,
            "execution": options.execution,
            "timeout": options.timeout,
            "samples": options.samples,
            "seed": options.seed,
            "confidence": options.confidence,
            "kernel": options.kernel,
            "evidence": options.evidence,
        }
        return QueryJob(
            scheme=scheme,
            targets=targets,
            network_hash=entry.network_hash,
            group_key=content_hash(group_doc),
            cache_key=content_hash(cache_doc),
            run_kwargs=run_kwargs,
            materialize=self._materializer(entry),
        )

    def _materializer(self, entry: CatalogEntry):
        """A pass-time resolver for the compiled-network artifact.

        Captures the entry's network bytes and pool section (snapshot
        semantics: a query admitted before an edit is answered against
        the content it named) and builds the pass's pool from that
        section.  When no compiled network was resident for the
        structure — its first query, or re-entry after an LRU eviction —
        it parses the bytes and also returns what to store the network
        under, which the executor does after the pass (a ``cold`` pass).
        """
        cache = self.cache
        key = _compiled_key(entry.structure_hash)
        built = (key, entry.structure_hash, len(entry.network_bytes))
        network_bytes = entry.network_bytes
        pool_document = entry.pool

        def materialize():
            pool = pool_from_dict(pool_document)
            artifact = cache.lookup(key)
            if artifact is not None:
                return artifact.payload, pool, None
            return network_from_dict(json.loads(network_bytes)), pool, built

        return materialize

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._shutdown = asyncio.Event()
        self.executor.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        self._started_at = time.perf_counter()

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> Dict[str, float]:
        """Accept until a shutdown request; drain; return the report."""
        assert self._server is not None, "server not started"
        await self._shutdown.wait()
        self._server.close()
        await self._server.wait_closed()
        report = await self.executor.shutdown(self._drain_timeout)
        # Give in-flight connection tasks a moment to flush their
        # (possibly 503) responses before the loop goes away.
        if self._connections:
            await asyncio.wait(tuple(self._connections), timeout=1.0)
        self.report = report
        return report

    def request_shutdown(self, drain_timeout: float = 5.0) -> None:
        self._drain_timeout = drain_timeout
        if self._shutdown is not None:
            self._shutdown.set()

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                status, payload = await self._dispatch(request)
            except ProtocolError as exc:
                status, payload = exc.status, {"error": str(exc)}
            except ServeError as exc:
                status, payload = exc.status, {"error": str(exc)}
            except (
                Exception
            ) as exc:  # noqa: BLE001 - connection isolation boundary
                status, payload = 500, {
                    "error": f"{type(exc).__name__}: {exc}"
                }
            try:
                writer.write(json_response(status, payload))
                await writer.drain()
            except (ConnectionError, OSError):
                # The client went away mid-response; its peers and the
                # accept loop are unaffected.
                pass
        finally:
            self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: Request) -> Tuple[int, dict]:
        method = request.method
        parts = [part for part in request.path.split("/") if part]
        if parts == ["healthz"] and method == "GET":
            return 200, {"status": "ok"}
        if parts == ["stats"] and method == "GET":
            return 200, self._stats()
        if parts == ["schemes"] and method == "GET":
            return 200, {
                "schemes": {
                    name: sorted(scheme_capabilities(name))
                    for name in available_schemes()
                }
            }
        if parts == ["shutdown"] and method == "POST":
            body = request.json()
            timeout = float(body.get("drain_timeout", 5.0))
            self.request_shutdown(timeout)
            return 200, {"status": "shutting-down", "drain_timeout": timeout}
        if parts == ["query"] and method == "POST":
            return await self._handle_query(request.json())
        if parts == ["condition"] and method == "POST":
            payload = dict(request.json())
            payload.setdefault("scheme", "exact-cond")
            return await self._handle_query(payload, require_evidence=True)
        if (
            len(parts) == 3
            and parts[0] == "networks"
            and parts[2] == "evidence"
        ):
            return self._handle_evidence(parts[1], method, request)
        if len(parts) == 2 and parts[0] == "networks":
            name = parts[1]
            if method in ("PUT", "POST"):
                return 200, self.put_network(name, request.json())
            if method == "DELETE":
                return 200, self.delete_network(name)
            raise ServeError(405, f"{method} not supported on networks")
        if (
            len(parts) == 3
            and parts[0] == "networks"
            and parts[2] == "rename"
            and method == "POST"
        ):
            body = request.json()
            new_name = body.get("to")
            if not isinstance(new_name, str):
                raise ServeError(400, "rename body needs a 'to' name")
            return 200, self.rename_network(parts[1], new_name)
        raise ServeError(404, f"no route for {method} {request.path}")

    @staticmethod
    def _validate_evidence(
        entry: CatalogEntry, evidence: Tuple[tuple, ...]
    ) -> None:
        """Evidence must name real events/variables of the document."""
        known_names = entry.names
        pool_size = len(entry.pool.get("probabilities", ()))
        for item in evidence:
            if item[0] == "event" and item[1] not in known_names:
                raise ServeError(400, f"unknown evidence event {item[1]!r}")
            if item[0] == "var" and item[1] >= pool_size:
                raise ServeError(
                    400,
                    f"evidence variable {item[1]} is not in the pool "
                    f"(size {pool_size})",
                )

    def _handle_evidence(
        self, name: str, method: str, request: Request
    ) -> Tuple[int, dict]:
        """Sticky evidence CRUD: ``PUT``/``DELETE /networks/<n>/evidence``."""
        entry = self.catalog.get(name)
        if entry is None:
            raise ServeError(404, f"unknown network {name!r}")
        if method == "PUT":
            body = request.json()
            try:
                evidence = normalise_evidence(body.get("evidence"))
            except ValueError as exc:
                raise ServeError(400, str(exc)) from exc
            if not evidence:
                raise ServeError(
                    400, "evidence body needs a non-empty 'evidence' list"
                )
            self._validate_evidence(entry, evidence)
            entry.evidence = evidence
            return 200, {
                "network": name,
                "evidence": [list(item) for item in evidence],
            }
        if method == "DELETE":
            cleared = len(entry.evidence)
            entry.evidence = ()
            return 200, {"network": name, "cleared": cleared}
        raise ServeError(405, f"{method} not supported on evidence")

    async def _handle_query(
        self, payload: dict, require_evidence: bool = False
    ) -> Tuple[int, dict]:
        job = self._prepare_job(payload, require_evidence=require_evidence)
        try:
            response = await self.executor.submit(job)
        except (QueueFull, ShuttingDown) as exc:
            return 503, {"error": str(exc)}
        except ComputeError as exc:
            if isinstance(exc.__cause__, ImpossibleEvidenceError):
                return 422, {"error": str(exc)}
            return 500, {"error": str(exc)}
        return 200, response

    def _stats(self) -> dict:
        return {
            "uptime_seconds": time.perf_counter() - self._started_at,
            "cache": self.cache.stats(),
            "executor": {
                "pending": self.executor.pending,
                "requests": self.executor.requests,
                "passes": self.executor.passes,
                "batches": self.executor.batches,
                "rejected": self.executor.rejected,
                "abandoned": self.executor.abandoned,
                "failed": self.executor.failed,
                "max_batch": self.executor.max_batch,
                "max_pending": self.executor.max_pending,
            },
            "networks": {
                name: entry.network_hash
                for name, entry in sorted(self.catalog.items())
            },
        }


class ServerThread:
    """A server on its own event-loop thread (tests and benchmarks).

    The server object is reachable as ``.server`` for in-process
    assertions (cache counters, executor instrumentation); HTTP clients
    talk to ``.port``.  ``stop()`` performs the drain-and-report
    shutdown and returns the report.
    """

    def __init__(self, **server_kwargs) -> None:
        self.server = ReproServer(**server_kwargs)
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None
        self.report: Optional[Dict[str, float]] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("server thread failed to start")
        if self._failure is not None:
            raise RuntimeError("server thread failed") from self._failure

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced to starter
            self._failure = exc
            self._ready.set()

    async def _main(self) -> None:
        await self.server.start()
        self.loop = asyncio.get_running_loop()
        self._ready.set()
        self.report = await self.server.serve_forever()

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self, drain_timeout: float = 5.0) -> Optional[Dict[str, float]]:
        if self._thread.is_alive():
            self.loop.call_soon_threadsafe(
                self.server.request_shutdown, drain_timeout
            )
            self._thread.join(timeout=30.0)
        return self.report

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
