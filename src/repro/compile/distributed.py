"""Distributed probability computation (paper, Section 4.4).

The decision-tree exploration is split into *jobs*: a job explores a
fragment of the tree of depth at most ``d`` below its root; whenever the
exploration reaches relative depth ``d`` with unresolved targets, it
forks a new job rooted at that node instead of recursing.  Jobs execute
in **generations** (BFS levels of the job DAG): every job of a
generation sees the same coordinator snapshot — global bounds, its share
of the eager scheme's global budget, pooled hybrid residuals — and the
results are merged at the generation barrier in creation order.  A job
is therefore a *pure function of its creation-time inputs*, which makes
the decision trees and bounds identical across both execution modes,
however jobs are scheduled:

* ``execution="simulate"`` (default) — jobs run sequentially in creation
  order, like the paper's own evaluation ("timings … were obtained by
  simulating distributed computation on a single machine"); per-job
  wall-clock cost is measured and the *makespan* of a ``w``-worker
  schedule (greedy assignment of ready jobs to the earliest available
  worker, plus a per-job communication overhead) is replayed from the
  recorded costs.
* ``execution="process"`` — true multi-process execution on the one
  worker pool of :mod:`repro.compile.transport`: persistent workers —
  spawned locally on private socket pairs, or, with
  ``listen="host:port"``, remote ``repro cluster --connect`` processes —
  each receive the network and variable-pool documents **once at
  join** and lower the network themselves, then receive jobs as small
  self-contained messages (the job's assignment prefix, its budgets and
  the barrier's bound snapshot).  Results stream back as ``(bounds
  deltas, eval count, cost)`` records.  Every record is JSON of a fixed
  schema (:data:`repro.compile.transport.RECORDS`).

**Reaching a job root.**  A job message carries its *prefix* and nothing
else about evaluator state — the paper's job.  Each worker, in every mode,
owns a persistent evaluator wrapped in a :class:`_PrefixCursor`, and
:meth:`_PrefixCursor.seek` is the one way a worker reaches a job root:
rewind the trail to the common ancestor of the prefix it already holds
and the job's, then push the missing suffix.  State the two jobs share
is never recomputed, and evaluator state is never shipped: every worker
holds the compiled program, so it re-derives columns from it.  (A
compiled re-push of a 6-frame prefix costs ~0.1 ms.  On an install with
no C compiler the suffix is re-swept on the Python tier, where a sweep
costs about twice a verbatim column write; ``docs/BENCHMARKS.md`` has
that configuration measured end to end.)

On top of the pool the coordinator runs a bounded-inflight scheduler:

* **work stealing inside a generation** — the barrier constrains merge
  order, not assignment: per-worker job queues are held coordinator-
  side, and an idle worker steals from the tail of the most loaded
  peer's queue (ties broken by worker id — never wall clock), while
  the barrier still merges outcomes in creation order, so stolen
  schedules produce bit-identical trees and bounds;
* **jobs in flight** — :data:`PIPELINE_DEPTH` jobs are kept in flight
  per worker, so the next message crosses the wire while the current
  job executes; workers report the time they spent blocked waiting for
  each message, surfaced as ``result.extra["recv_wait_seconds"]``.
"""

from __future__ import annotations

import heapq
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..network.nodes import EventNetwork
from ..worlds.variables import VariablePool
from .compiler import ShannonCompiler, make_evaluator
from .result import CompilationResult
from .transport import Prefix, WorkerTransport, _JobMessage, _Outcome

EXECUTIONS = ("simulate", "process")
# How result.extra["execution"] encodes the mode (1.0 and 3.0 retired).
_EXECUTION_CODES = {"simulate": 0.0, "process": 2.0}
#: Jobs kept in flight per pooled worker: the next message crosses the
#: wire while the current job runs.
PIPELINE_DEPTH = 2


@dataclass
class Job:
    """A unit of work: explore the subtree below ``prefix`` to depth ``d``."""

    index: int
    prefix: Prefix
    prob: float
    active: Tuple[str, ...]
    budgets: Dict[str, float]
    cost: float = 0.0
    excluded_workers: set = field(default_factory=set)


class _JobCompiler(ShannonCompiler):
    """A ShannonCompiler that stops at a relative depth and forks jobs."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.job_size = 0
        self.forked: List[tuple] = []
        # Evaluator depth at the job root; set per job after the prefix
        # is applied (the local compiler path applies no prefix, so the
        # root frame of run() sits at depth 1).
        self._base_depth = 1

    def _enter_node(self, prob, active, budgets):
        relative_depth = self.evaluator.depth - self._base_depth
        if self.job_size > 0 and relative_depth >= self.job_size:
            # Evaluating here would duplicate the child job's own entry
            # evaluation; fork the subtree as a fresh job instead.
            prefix = tuple(self.evaluator.assignment.items())
            self.forked.append((prefix, prob, tuple(active), dict(budgets)))
            return {name: 0.0 for name in budgets}
        return None


class _PrefixCursor:
    """One worker's persistent evaluator plus its applied job prefix.

    The evaluator keeps a root frame (depth 1) plus one trail frame per
    assignment of the currently applied prefix.  :meth:`seek` moves
    between prefixes through their common ancestor — rewind the frames
    past it, push the missing suffix — so state the two jobs share is
    never recomputed.  :meth:`release` rewinds to the balanced baseline
    (depth 0) so the evaluator can be handed back to
    ``ShannonCompiler.run`` or a later coordinator run.
    """

    def __init__(self, network: EventNetwork, engine: str) -> None:
        self._network = network
        self._engine = engine
        self.evaluator = None
        self.applied: Prefix = ()

    def ensure(self):
        """The worker's evaluator, rebuilt only if its trail is off."""
        evaluator = self.evaluator
        if evaluator is None or evaluator.depth != 1 + len(self.applied):
            if evaluator is None or evaluator.depth != 0:
                # Missing, or left unbalanced by an aborted job: the
                # trail no longer describes ``applied``, start over.
                evaluator = make_evaluator(self._network, engine=self._engine)
                self.evaluator = evaluator
            evaluator.push()
            self.applied = ()
        return evaluator

    def seek(self, prefix: Prefix) -> None:
        """Move the evaluator from the applied prefix to ``prefix``."""
        evaluator = self.evaluator
        common = 0
        for ours, theirs in zip(self.applied, prefix):
            if ours != theirs:
                break
            common += 1
        evaluator.rewind_to(1 + common)
        for variable, value in prefix[common:]:
            evaluator.push(variable, value)
        self.applied = tuple(prefix)

    def release(self) -> None:
        """Rewind to the balanced baseline state (depth 0)."""
        if self.evaluator is not None:
            self.evaluator.rewind_to(0)
        self.applied = ()


def _run_job(
    compiler: _JobCompiler, cursor: _PrefixCursor, message: _JobMessage
) -> _Outcome:
    """Execute one job against a persistent cursor; pure in its inputs."""
    evaluator = cursor.ensure()
    compiler.evaluator = evaluator
    compiler.forked = []
    compiler._scheme = message.scheme
    compiler._epsilon = message.epsilon
    compiler._finished = set()
    compiler._lower = dict(message.snap_lower)
    compiler._upper = dict(message.snap_upper)
    compiler._global_budget = dict(message.global_share)
    compiler._tree_nodes = 0
    compiler._max_depth = 0
    compiler.job_size = message.job_size
    started = time.perf_counter()
    cursor.seek(message.prefix)
    # Counted from the job root: the seek's re-sweeps depend on which job
    # this worker ran last, and a job reports only what is its own.
    evals_before = evaluator.evals
    compiler._base_depth = evaluator.depth
    residual = compiler._dfs(
        message.prob, list(message.active), dict(message.budgets)
    )
    cost = time.perf_counter() - started
    return _Outcome(
        lower_delta={
            name: compiler._lower[name] - message.snap_lower[name]
            for name in message.snap_lower
        },
        upper_delta={
            name: message.snap_upper[name] - compiler._upper[name]
            for name in message.snap_upper
        },
        residual=residual,
        global_left=dict(compiler._global_budget),
        children=compiler.forked,
        cost=cost,
        tree_nodes=compiler._tree_nodes,
        evals=evaluator.evals - evals_before,
        max_depth=compiler._max_depth,
    )


# ----------------------------------------------------------------------
# Worker-side serving loop (spawn-safe: importable at module level)
# ----------------------------------------------------------------------


def _build_worker_state(config: dict):
    """Deserialize a worker payload once; returns ``(compiler, cursor)``.

    ``config`` holds the network and variable-pool documents; the
    worker's evaluator lowers the rebuilt network itself.
    """
    from ..network.serialize import network_from_dict, pool_from_dict

    network = network_from_dict(config["network"])
    pool = pool_from_dict(config["pool"])
    compiler = _JobCompiler(
        network, pool, targets=config["targets"], order=config["order"],
        engine=config["engine"],
    )
    cursor = _PrefixCursor(network, config["engine"])
    cursor.evaluator = compiler.evaluator
    return compiler, cursor


def _serve_jobs(
    worker_id: int,
    compiler: _JobCompiler,
    cursor: _PrefixCursor,
    fault: dict,
    stream,
) -> None:
    """One worker's serving loop over its :class:`FramedStream`.

    Records arrive as ``("job", message)`` until a ``("stop",)`` record
    ends the session, and results leave on the same stream.  The time
    spent blocked in ``stream.recv`` is measured per job and reported
    in the outcome (``recv_wait``): the next message is already
    buffered while the current job runs, so the wait collapses towards
    zero.

    ``fault`` drives the crash-injection tests: ``crash_on_job`` dies
    hard before running the n-th job, ``stall_on_job`` sleeps,
    ``partial_send_on_job`` ships a frame header with a truncated body
    and then dies — the mid-send scenario — and
    ``sleep_per_job`` slows every job down (skew for the stealing tests
    and benchmarks).
    """
    targeted = fault.get("worker") == worker_id
    jobs_seen = 0
    while True:
        waited_from = time.perf_counter()
        record = stream.recv()
        recv_wait = time.perf_counter() - waited_from
        if record[0] != "job":
            break  # stop, or a record out of turn
        message = record[1]
        jobs_seen += 1
        if targeted:
            if jobs_seen == fault.get("crash_on_job"):
                os._exit(17)  # simulate a hard worker crash (tests)
            if jobs_seen == fault.get("stall_on_job"):
                time.sleep(fault.get("stall_seconds", 3600.0))
        if targeted and fault.get("sleep_per_job"):
            time.sleep(fault["sleep_per_job"])
        try:
            outcome = _run_job(compiler, cursor, message)
            outcome.recv_wait = recv_wait
            done = ("done", worker_id, message.job_index, outcome)
            if targeted and jobs_seen == fault.get("partial_send_on_job"):
                stream.send_partial(done)
                os._exit(17)  # die between frame header and body
            stream.send(done)
        except Exception:
            stream.send(
                ("error", worker_id, message.job_index, traceback.format_exc())
            )
            break


def _worker_payload(
    network: EventNetwork,
    pool: VariablePool,
    target_names: Sequence[str],
    order,
    engine: str,
    fault: Optional[dict] = None,
) -> dict:
    """The join-time config the ``init`` record ships: documents only
    (dicts, lists, strings, numbers)."""
    from ..network.serialize import network_to_dict, pool_to_dict

    return {
        "network": network_to_dict(network),
        "pool": pool_to_dict(pool),
        "targets": list(target_names),
        "order": order if isinstance(order, str) else [int(i) for i in order],
        "engine": engine,
        "fault": fault,
    }


class DistributedCompiler:
    """Coordinator for job-based distributed compilation."""

    def __init__(
        self,
        network: EventNetwork,
        pool: VariablePool,
        targets: Optional[Sequence[str]] = None,
        order: "str | Sequence[int]" = "frequency",
        workers: int = 4,
        job_size: int = 3,
        overhead: float = 0.0005,
        engine: str = "masked",
        kernel: Optional[str] = None,
        fault_injection: Optional[dict] = None,
        steal: bool = True,
        listen: Optional[str] = None,
    ) -> None:
        if type(workers) is not int or workers < 1:
            raise ValueError(f"workers must be an int >= 1, got {workers!r}")
        if kernel is not None and ":" not in engine:
            # The tier travels inside the engine string: the worker
            # config ships it unchanged, and make_evaluator parses it
            # back out on the other side.
            engine = f"{engine}:{kernel}"
        if type(job_size) is not int or job_size < 1:
            raise ValueError(f"job_size must be an int >= 1, got {job_size!r}")
        self.job_size = job_size
        self.network = network
        self.pool = pool
        self.workers = workers
        self.overhead = overhead
        self.engine = engine
        self.order = order
        self.fault_injection = fault_injection
        self.steal = steal
        self.listen = listen
        self._compiler = _JobCompiler(
            network, pool, targets=targets, order=order, engine=engine
        )
        self.target_names = self._compiler.target_names
        self._process_pool: Optional[WorkerTransport] = None
        self._workers_killed = 0
        self._steals = 0
        self._recv_wait_by_worker: Dict[int, float] = {}

    # ------------------------------------------------------------------

    def run(
        self,
        scheme: str = "hybrid",
        epsilon: float = 0.1,
        execution: str = "simulate",
        timeout: Optional[float] = None,
    ) -> CompilationResult:
        """Compile with ``workers`` workers; returns merged bounds.

        ``execution="simulate"`` (default) measures per-job cost and
        reports the simulated makespan in ``result.makespan``;
        ``execution="process"`` runs the jobs on persistent worker
        processes — spawned locally, or (with ``listen="host:port"``)
        remote ``repro cluster --connect`` workers.  ``timeout`` bounds
        the whole run in both modes and raises ``TimeoutError`` on
        expiry — checked continuously while collecting process results
        (the pool is torn down, no orphans) and at job/generation
        boundaries under ``simulate`` (a single in-flight job is never
        interrupted).
        Both modes produce identical trees and bounds: a job is a pure
        function of its creation-time inputs, merged at deterministic
        generation barriers.
        """
        # The registry gate rejects schemes not marked distributed-capable;
        # the Shannon-set check guards against plugin schemes claiming the
        # capability, since the job compiler only implements Algorithm 1.
        from ..engine.registry import CAP_DISTRIBUTED, get_scheme
        from .compiler import SCHEMES

        if not get_scheme(scheme).has(CAP_DISTRIBUTED) or scheme not in SCHEMES:
            raise ValueError(f"scheme {scheme!r} is not distributed-capable")
        if scheme == "exact":
            epsilon = 0.0
        if execution not in EXECUTIONS:
            raise ValueError(
                f"unknown execution mode {execution!r}; "
                f"expected one of {EXECUTIONS}"
            )
        deadline = None if timeout is None else time.monotonic() + timeout
        if execution == "simulate":
            return self._run_simulated(scheme, epsilon, deadline)
        return self._run_pooled(scheme, epsilon, deadline)

    @property
    def workers_killed(self) -> int:
        """Workers terminated (not joined) across this coordinator's life."""
        return self._workers_killed

    def close(self, force: bool = False) -> None:
        """Tear down the persistent worker pool, if any.

        ``force=True`` shortens the per-worker join deadline before
        escalating to ``terminate()`` — the interrupt/timeout path,
        where a worker may be wedged mid-job.  Workers that had to be
        killed are counted in :attr:`workers_killed` and reported in
        the next successful run's ``result.extra``.
        """
        if self._process_pool is not None:
            self._workers_killed += len(
                self._process_pool.shutdown(force=force)
            )
            self._process_pool = None

    def __enter__(self) -> "DistributedCompiler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # The deterministic generation engine shared by both execution modes
    # ------------------------------------------------------------------

    def _run_generations(self, scheme, epsilon, execute_wave, deadline=None):
        """Run the job DAG in BFS generations; returns the merged state.

        ``execute_wave(wave, messages)`` runs one generation and returns
        its outcomes *in creation order*; everything order-dependent —
        bound snapshots, eager budget shares, hybrid residual pooling —
        happens here, at the barriers, so the result is independent of
        how a wave's jobs are scheduled.
        """
        names = self.target_names
        lower = {name: 0.0 for name in names}
        upper = {name: 1.0 for name in names}
        residual_pool = {name: 0.0 for name in names}
        global_remaining = {name: 2.0 * epsilon for name in names}
        wave = [
            Job(0, (), 1.0, tuple(names), {name: 2.0 * epsilon for name in names})
        ]
        executed: List[Job] = []
        parent_of: Dict[int, int] = {}
        totals = {"tree_nodes": 0, "evals": 0, "max_depth": 0}
        next_index = 1
        while wave:
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError("distributed run exceeded its timeout")
            # Barrier state: every job of the wave sees these snapshots.
            first = wave[0]
            for name in first.budgets:
                first.budgets[name] += residual_pool[name]
                residual_pool[name] = 0.0
            share = {
                name: global_remaining[name] / len(wave) for name in names
            }
            snap_lower = dict(lower)
            snap_upper = dict(upper)
            messages = [
                _JobMessage(
                    job.index, scheme, epsilon, self.job_size, job.prefix,
                    job.prob, job.active, dict(job.budgets), snap_lower,
                    snap_upper, share,
                )
                for job in wave
            ]
            outcomes = execute_wave(wave, messages)
            # Merge at the barrier, in creation order.
            global_remaining = {name: 0.0 for name in names}
            next_wave: List[Job] = []
            for job, outcome in zip(wave, outcomes):
                job.cost = outcome.cost
                executed.append(job)
                totals["tree_nodes"] += outcome.tree_nodes
                totals["evals"] += outcome.evals
                totals["max_depth"] = max(
                    totals["max_depth"], outcome.max_depth
                )
                for name in names:
                    lower[name] += outcome.lower_delta[name]
                    upper[name] -= outcome.upper_delta[name]
                    residual_pool[name] += outcome.residual.get(name, 0.0)
                    global_remaining[name] += outcome.global_left[name]
                for prefix, prob, active, budgets in outcome.children:
                    next_wave.append(Job(next_index, prefix, prob, active, budgets))
                    parent_of[next_index] = job.index
                    next_index += 1
            wave = next_wave
        bounds = {name: (lower[name], upper[name]) for name in names}
        return bounds, executed, parent_of, totals

    def _result(
        self, scheme, epsilon, bounds, executed, totals, *,
        seconds, makespan, execution,
    ) -> CompilationResult:
        result = CompilationResult(
            bounds=bounds,
            scheme=f"{scheme}-d",
            epsilon=epsilon,
            seconds=seconds,
            tree_nodes=totals["tree_nodes"],
            evals=totals["evals"],
            max_depth=totals["max_depth"],
            jobs=len(executed),
            workers=self.workers,
            makespan=makespan,
        )
        result.extra["job_size"] = float(self.job_size)
        result.extra["execution"] = _EXECUTION_CODES[execution]
        # Workers build their evaluators from the same engine string.
        from ..engine.kernels import record_kernel_tier

        record_kernel_tier(result.extra, self._compiler.evaluator)
        return result

    # ------------------------------------------------------------------
    # Execution modes
    # ------------------------------------------------------------------

    def _make_cursor(self, compiler: _JobCompiler) -> _PrefixCursor:
        """A worker cursor seeded with the compiler's balanced evaluator."""
        cursor = _PrefixCursor(self.network, compiler.engine)
        if compiler.evaluator is not None and compiler.evaluator.depth == 0:
            cursor.evaluator = compiler.evaluator
        else:
            cursor.evaluator = make_evaluator(
                self.network, engine=compiler.engine
            )
            compiler.evaluator = cursor.evaluator
        return cursor

    def _run_simulated(
        self, scheme: str, epsilon: float, deadline: Optional[float] = None
    ) -> CompilationResult:
        compiler = self._compiler
        cursor = self._make_cursor(compiler)
        wall_started = time.perf_counter()

        def execute_wave(wave, messages):
            outcomes = []
            for message in messages:
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        "distributed run exceeded its timeout"
                    )
                outcomes.append(_run_job(compiler, cursor, message))
            return outcomes

        try:
            bounds, executed, parent_of, totals = self._run_generations(
                scheme, epsilon, execute_wave, deadline=deadline
            )
        finally:
            # Balance the shared persistent evaluator on every exit
            # path (incl. a barrier-level timeout), so the next run
            # reuses it instead of re-running the baseline sweep.
            cursor.release()
        wall = time.perf_counter() - wall_started
        makespan = self._simulate_makespan(executed, parent_of)
        return self._result(
            scheme, epsilon, bounds, executed, totals,
            seconds=wall, makespan=makespan, execution="simulate",
        )

    def _simulate_makespan(
        self, executed: List[Job], parent_of: Dict[int, int]
    ) -> float:
        """Greedy w-worker schedule over the recorded job costs.

        Ready jobs (parent finished) are assigned in (ready time,
        creation index) order to the earliest-free worker; each job
        occupies its worker for its measured cost plus the per-job
        communication overhead.
        """
        costs = {job.index: job.cost for job in executed}
        children_of: Dict[int, List[int]] = {}
        for child, parent in parent_of.items():
            children_of.setdefault(parent, []).append(child)
        ready: List[Tuple[float, int]] = [(0.0, 0)]
        worker_free = [0.0] * self.workers
        makespan = 0.0
        while ready:
            ready_time, index = heapq.heappop(ready)
            worker = min(range(self.workers), key=lambda w: worker_free[w])
            start = max(ready_time, worker_free[worker])
            finish = start + costs[index] + self.overhead
            worker_free[worker] = finish
            makespan = max(makespan, finish)
            for child in sorted(children_of.get(index, ())):
                heapq.heappush(ready, (finish, child))
        return makespan

    # -- process mode ---------------------------------------------------

    def _ensure_process_pool(self) -> WorkerTransport:
        pool = self._process_pool
        if pool is not None:
            if pool.alive_workers():
                return pool
            # Every worker died: replace the pool, folding any workers
            # the teardown had to kill into the tally the next
            # successful run reports.
            self.close(force=True)
        config = _worker_payload(
            self.network, self.pool, self.target_names, self.order,
            self.engine, fault=self.fault_injection,
        )
        if self.listen is not None:
            pool = WorkerTransport.listen_for(config, self.workers, self.listen)
        else:
            pool = WorkerTransport.spawn(config, self.workers)
        self._process_pool = pool
        return pool

    def _run_pooled(
        self, scheme: str, epsilon: float, deadline: Optional[float]
    ) -> CompilationResult:
        pool = self._ensure_process_pool()
        self._steals = 0
        self._recv_wait_by_worker = {}
        started = time.perf_counter()
        try:

            def execute_wave(wave, messages):
                return self._execute_process_wave(
                    pool, wave, messages, deadline
                )

            bounds, executed, parent_of, totals = self._run_generations(
                scheme, epsilon, execute_wave, deadline=deadline
            )
        except BaseException:
            # Interrupt, timeout, worker error: never leave orphans —
            # and never wait long on a wedged worker.
            self.close(force=True)
            raise
        elapsed = time.perf_counter() - started
        result = self._result(
            scheme, epsilon, bounds, executed, totals,
            seconds=elapsed, makespan=elapsed, execution="process",
        )
        result.extra["spawn_seconds"] = pool.spawn_seconds
        result.extra["worker_failures"] = float(pool.worker_failures)
        result.extra["workers_killed"] = float(self._workers_killed)
        result.extra["steals"] = float(self._steals)
        result.extra["recv_wait_seconds"] = sum(
            self._recv_wait_by_worker.values()
        )
        for worker_id, waited in sorted(self._recv_wait_by_worker.items()):
            result.extra[f"recv_wait_w{worker_id}"] = waited
        sent, received = pool.wire_bytes()
        result.extra["wire_bytes_sent"] = float(sent)
        result.extra["wire_bytes_received"] = float(received)
        return result

    def _execute_process_wave(self, pool, wave, messages, deadline):
        """Dispatch one generation to the worker pool and collect.

        Jobs are partitioned into contiguous creation-order blocks (one
        per worker) so sibling jobs — which share long prefixes — land
        on the same worker and its cursor seeks stay short.  The
        blocks live in per-worker ``pending`` queues held coordinator-
        side: each worker keeps at most :data:`PIPELINE_DEPTH` jobs in
        flight, and a worker whose queue runs dry *steals* from the
        tail of the most loaded peer's queue — assignment changes, the
        creation-order merge at the barrier does not.  A worker that
        dies mid-wave has its unfinished jobs requeued on the
        surviving workers, with the dead worker recorded in each job's
        ``excluded_workers``.
        """
        alive = pool.alive_workers()
        if not alive:
            raise RuntimeError("no alive workers in the worker pool")
        by_index = {
            job.index: (job, message) for job, message in zip(wave, messages)
        }
        # Contiguous block partition across the alive workers.
        for position, job in enumerate(wave):
            worker = alive[position * len(alive) // len(wave)]
            worker.pending.append(job.index)
        for worker in alive:
            self._top_up(pool, worker, by_index)
        outcomes: Dict[int, _Outcome] = {}
        while len(outcomes) < len(wave):
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    "distributed process run exceeded its timeout"
                )
            records = pool.wait(0.05)
            if not records:
                # No traffic: poll liveness, for workers that died (or
                # were marked dead mid-drain) without a parsed record.
                self._recover_dead_workers(pool, outcomes, by_index)
                if not pool.alive_workers():
                    raise RuntimeError(
                        "all distributed workers died; cannot recover"
                    )
                continue
            for worker, record in records:
                kind, worker_id, job_index = record[0], record[1], record[2]
                if kind == "error":
                    raise RuntimeError(
                        f"distributed worker {worker_id} failed on job "
                        f"{job_index}:\n{record[3]}"
                    )
                if job_index not in by_index or job_index in outcomes:
                    # A duplicate: the job was requeued while its
                    # original result was still in flight (or a stale
                    # duplicate buffered past its own wave).  Jobs are
                    # pure functions of their message, so the copies
                    # are identical — keep the first, drop the rest.
                    continue
                outcome = record[3]
                outcomes[job_index] = outcome
                self._recv_wait_by_worker[worker_id] = (
                    self._recv_wait_by_worker.get(worker_id, 0.0)
                    + outcome.recv_wait
                )
                for other in pool.workers:
                    other.assigned.pop(job_index, None)
                self._top_up(pool, worker, by_index)
            self._recover_dead_workers(pool, outcomes, by_index)
        return [outcomes[job.index] for job in wave]

    def _top_up(self, pool, worker, by_index) -> None:
        """Keep up to :data:`PIPELINE_DEPTH` jobs in flight on ``worker``."""
        if not worker.alive():
            return
        while len(worker.assigned) < PIPELINE_DEPTH:
            job_index = self._claim_next_job(pool, worker)
            if job_index is None:
                return
            job, message = by_index[job_index]
            worker.assigned[job_index] = job
            worker.send(("job", message))

    def _claim_next_job(self, pool, worker) -> Optional[int]:
        """The next job index for ``worker``: its own queue, or a steal.

        An idle worker (nothing in flight) steals from any loaded
        peer; a worker merely prefetching its pipeline only steals
        from peers with at least two queued jobs, so it never strips a
        busy peer's last pending job.  The victim is the peer with the
        longest queue, ties broken by worker id — the decision depends
        only on queue state, never on wall-clock time — and the steal
        takes the queue *tail*, where the prefixes are least local to
        the victim.
        """
        if worker.pending:
            return worker.pending.popleft()
        if not self.steal:
            return None
        floor = 2 if worker.assigned else 1
        victims = [
            peer
            for peer in pool.alive_workers()
            if peer is not worker and len(peer.pending) >= floor
        ]
        if not victims:
            return None
        victims.sort(key=lambda peer: (-len(peer.pending), peer.worker_id))
        self._steals += 1
        return victims[0].pending.pop()

    def _recover_dead_workers(self, pool, outcomes, by_index) -> None:
        """Requeue the unfinished jobs of any worker that died.

        The dead worker is recorded in each requeued job's
        ``excluded_workers`` so reassignment avoids it; the wire
        message is reused as is (it is self-contained).  Orphans go
        onto the survivors' pending queues (round-robin) and flow out
        through the same top-up/steal path as everything else.
        """
        for worker in pool.workers:
            if worker.alive() or (not worker.assigned and not worker.pending):
                continue
            orphaned = [
                index
                for index in sorted(set(worker.assigned) | set(worker.pending))
                if index not in outcomes
            ]
            worker.assigned.clear()
            worker.pending.clear()
            if not orphaned:
                continue
            pool.worker_failures += 1
            survivors = pool.alive_workers()
            if not survivors:
                raise RuntimeError(
                    "all distributed workers died; cannot recover"
                )
            for position, index in enumerate(orphaned):
                job, message = by_index[index]
                job.excluded_workers.add(worker.worker_id)
                candidates = [
                    survivor
                    for survivor in survivors
                    if survivor.worker_id not in job.excluded_workers
                ] or survivors
                target = candidates[position % len(candidates)]
                target.pending.append(index)
            for survivor in survivors:
                self._top_up(pool, survivor, by_index)


def compile_distributed(
    network: EventNetwork,
    pool: VariablePool,
    scheme: str = "hybrid",
    epsilon: float = 0.1,
    workers: int = 4,
    job_size: int = 3,
    targets: Optional[Sequence[str]] = None,
    order: "str | Sequence[int]" = "frequency",
    execution: str = "simulate",
    engine: str = "masked",
    kernel: Optional[str] = None,
    timeout: Optional[float] = None,
    steal: bool = True,
    listen: Optional[str] = None,
) -> CompilationResult:
    """One-shot helper mirroring :func:`repro.compile.compiler.compile_network`."""
    coordinator = DistributedCompiler(
        network,
        pool,
        targets=targets,
        order=order,
        workers=workers,
        job_size=job_size,
        engine=engine,
        kernel=kernel,
        steal=steal,
        listen=listen,
    )
    try:
        return coordinator.run(
            scheme=scheme, epsilon=epsilon, execution=execution,
            timeout=timeout,
        )
    finally:
        coordinator.close()
