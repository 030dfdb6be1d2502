"""Admission control and request batching for the query service.

Production traffic hits the same event networks and targets over and
over, which is exactly the access pattern a batching barrier exploits:
concurrent queries that agree on (network, scheme, normalised options)
are *coalesced* into one engine pass instead of N.  The rules are
capability-driven:

* ``bulk``-capable schemes (``naive``, ``montecarlo``) evaluate all
  targets × all worlds in one sweep, and their per-target answers are
  independent of which other targets ride along (Monte Carlo draws its
  sample worlds from the seed before looking at any target), so
  requests may differ in *targets*: the pass runs the union and each
  request is answered from its slice — bit-identical to a direct
  single-request run.
* Every other scheme (the Shannon family compiles a decision tree
  *for* its target set) coalesces only requests with an identical
  target set, which is precisely the repeated-query case the service
  exists for.

The executor runs one engine pass at a time on a worker thread (the
asyncio loop stays free to accept, queue, and time out), pulls
everything waiting off the queue between passes, and bounds the queue
with an admission cap — beyond it, requests are rejected immediately
(HTTP 503) instead of building unbounded latency.  A pass that raises
fails *only its own group*: peers in the same batch still answer.

Every response reports ``batched_into`` (requests coalesced into its
group), ``cache`` (``hit`` — answered from the artifact cache without
a pass; ``miss`` — a pass ran over an already-materialized network;
``cold`` — the pass also had to materialize the network), and
``queue_wait_seconds``.

A pass stores what it made — the group's results and, on a cold pass,
the compiled network — on the event-loop thread after it returns, and
only under a content hash some catalog entry still names (the
``referenced`` probe): an edit or delete admitted during the pass has
already dropped that hash's artifacts, and nothing may store new ones
under it.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..engine.registry import run_scheme
from .cache import ArtifactCache


class QueueFull(Exception):
    """Admission control rejected the request (queue at capacity)."""


class ShuttingDown(Exception):
    """The service is draining; no new work is admitted."""


class ComputeError(Exception):
    """The engine pass for this request's group raised (``__cause__``)."""


@dataclass(eq=False)
class QueryJob:
    """One admitted query, prepared for grouping and caching.

    ``materialize`` resolves the network/pool objects at pass time (the
    server wires it to the compiled-artifact layer); it returns
    ``(network, pool, built)`` where ``built`` is ``None`` when the
    compiled network was resident, and otherwise the ``(key, content
    hash, nbytes)`` to store the network it had to deserialise under.
    """

    scheme: str
    targets: Tuple[str, ...]
    network_hash: str
    group_key: str
    cache_key: str
    run_kwargs: Dict[str, object]
    materialize: Callable[[], Tuple[object, object, Optional[tuple]]]
    future: "asyncio.Future[dict]" = field(repr=False, default=None)
    enqueued_at: float = 0.0
    queue_wait: float = 0.0


class BatchingExecutor:
    """The admission queue plus the single-consumer batch loop.

    ``referenced(content_hash)`` says whether a catalog entry still
    names a hash; a pass stores artifacts only under such hashes.
    """

    def __init__(
        self,
        cache: ArtifactCache,
        referenced: Callable[[str], bool],
        max_batch: int = 32,
        max_pending: int = 256,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        self.cache = cache
        self.referenced = referenced
        self.max_batch = max_batch
        self.max_pending = max_pending
        self._queue: "asyncio.Queue[Optional[QueryJob]]" = asyncio.Queue()
        self._outstanding: set = set()
        self._consumer: Optional[asyncio.Task] = None
        self._draining = False
        # Instrumented counters: the coalescing tests assert
        # passes < requests directly against these.
        self.requests = 0
        self.passes = 0
        self.batches = 0
        self.rejected = 0
        self.abandoned = 0
        self.failed = 0

    @property
    def pending(self) -> int:
        """Requests admitted but not yet answered (queued or in-pass)."""
        return len(self._outstanding)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._consumer is None:
            self._consumer = asyncio.get_running_loop().create_task(
                self._consume()
            )

    async def shutdown(self, drain_timeout: float = 5.0) -> Dict[str, float]:
        """Drain the queue (bounded by ``drain_timeout``) and stop.

        Mirrors the distributed compiler's ``workers_killed``
        discipline: work that cannot be drained inside the deadline is
        *reported*, not silently discarded — every abandoned request
        gets a 503 response and shows up in ``requests_abandoned``.
        """
        self._draining = True
        deadline = time.perf_counter() + max(0.0, drain_timeout)
        while self._outstanding and time.perf_counter() < deadline:
            await asyncio.sleep(0.005)
        abandoned = 0
        for job in tuple(self._outstanding):
            if job.future is not None and not job.future.done():
                job.future.set_exception(
                    ShuttingDown("server shutting down before this request ran")
                )
                abandoned += 1
        self._outstanding.clear()
        self.abandoned += abandoned
        if self._consumer is not None:
            await self._queue.put(None)
            try:
                await asyncio.wait_for(self._consumer, timeout=1.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                self._consumer.cancel()
            self._consumer = None
        return {
            "drained": 0.0 if abandoned else 1.0,
            "requests_abandoned": float(abandoned),
        }

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    async def submit(self, job: QueryJob) -> dict:
        """Admit one job and await its response payload."""
        if self._draining:
            raise ShuttingDown("server is shutting down")
        if len(self._outstanding) >= self.max_pending:
            self.rejected += 1
            raise QueueFull(
                f"admission queue full ({self.max_pending} requests pending)"
            )
        self.requests += 1
        job.future = asyncio.get_running_loop().create_future()
        job.enqueued_at = time.perf_counter()
        self._outstanding.add(job)
        await self._queue.put(job)
        try:
            return await job.future
        finally:
            self._outstanding.discard(job)

    # ------------------------------------------------------------------
    # The batch loop
    # ------------------------------------------------------------------

    async def _consume(self) -> None:
        while True:
            job = await self._queue.get()
            if job is None:
                return
            batch = [job]
            while len(batch) < self.max_batch:
                try:
                    extra = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is None:
                    await self._run_batch(batch)
                    return
                batch.append(extra)
            await self._run_batch(batch)

    async def _run_batch(self, batch: List[QueryJob]) -> None:
        self.batches += 1
        groups: "OrderedDict[str, List[QueryJob]]" = OrderedDict()
        for job in batch:
            groups.setdefault(job.group_key, []).append(job)
        for group in groups.values():
            await self._run_group(group)

    async def _run_group(self, group: List[QueryJob]) -> None:
        started = time.perf_counter()
        live = []
        for job in group:
            job.queue_wait = started - job.enqueued_at
            if job.future.done():
                continue  # abandoned by shutdown while queued
            live.append(job)
        if not live:
            return
        pending: List[QueryJob] = []
        for job in live:
            artifact = self.cache.lookup(job.cache_key)
            if artifact is not None:
                self._fulfil(job, artifact.payload, "hit", len(live))
            else:
                pending.append(job)
        if not pending:
            return
        first = pending[0]
        union = sorted({name for job in pending for name in job.targets})

        def _pass():
            network, pool, built = first.materialize()
            result = run_scheme(
                first.scheme, network, pool, targets=union, **first.run_kwargs
            )
            return result, network, built

        self.passes += 1
        loop = asyncio.get_running_loop()
        try:
            result, network, built = await loop.run_in_executor(None, _pass)
        except Exception as exc:  # noqa: BLE001 - fault isolation boundary
            self.failed += len(pending)
            failure = ComputeError(f"{type(exc).__name__}: {exc}")
            failure.__cause__ = exc
            for job in pending:
                if not job.future.done():
                    job.future.set_exception(failure)
            return
        # The catalog changes on this thread: no await between probe and store.
        if built is not None and self.referenced(built[1]):
            key, content_hash, nbytes = built
            self.cache.store(key, "compiled", network, content_hash, nbytes=nbytes)
        state = "miss" if built is None else "cold"
        by_targets: "OrderedDict[Tuple[str, ...], List[QueryJob]]" = OrderedDict()
        for job in pending:
            by_targets.setdefault(tuple(sorted(job.targets)), []).append(job)
        for targets, jobs in by_targets.items():
            payload = {
                "bounds": {name: list(result.bounds[name]) for name in targets},
                "scheme": result.scheme,
                "epsilon": result.epsilon,
                "seconds": result.seconds,
                "tree_nodes": result.tree_nodes,
                "evals": result.evals,
                "extra": {
                    key: value
                    for key, value in result.extra.items()
                    if isinstance(value, (int, float, str))
                },
            }
            if self.referenced(first.network_hash):
                self.cache.store(
                    jobs[0].cache_key, "result", payload, first.network_hash
                )
            for job in jobs:
                self._fulfil(job, payload, state, len(live))

    def _fulfil(
        self, job: QueryJob, payload: dict, cache_state: str, batched: int
    ) -> None:
        response = dict(payload)
        extra = dict(payload.get("extra", {}))
        extra["cache"] = cache_state
        extra["batched_into"] = float(batched)
        extra["queue_wait_seconds"] = job.queue_wait
        response["extra"] = extra
        if not job.future.done():
            job.future.set_result(response)
