"""Unit tests for distributed probability computation (§4.4)."""

import pytest

from repro.compile.compiler import compile_network
from repro.compile.distributed import DistributedCompiler, compile_distributed
from repro.events.expressions import conj, disj, negate, var
from repro.events.probability import event_probability

from ..conftest import (
    free_port,
    make_pool,
    pooled_coordinator,
    random_event,
)


def make_instance():
    pool = make_pool([0.5, 0.6, 0.4, 0.7, 0.5])
    events = {
        "a": disj([conj([var(0), var(1)]), conj([var(2), var(3)])]),
        "b": conj([var(1), negate(var(4))]),
    }
    from repro.network.build import build_targets

    return pool, build_targets(events), events


class TestDistributedExact:
    def test_matches_sequential_exact(self):
        pool, network, events = make_instance()
        sequential = compile_network(network, pool)
        for job_size in (1, 2, 4):
            for workers in (1, 3, 8):
                result = compile_distributed(
                    network,
                    pool,
                    scheme="exact",
                    workers=workers,
                    job_size=job_size,
                )
                for name in events:
                    assert result.bounds[name][0] == pytest.approx(
                        sequential.bounds[name][0]
                    )
                    assert result.bounds[name][1] == pytest.approx(
                        sequential.bounds[name][1]
                    )

    def test_job_count_grows_with_smaller_jobs(self):
        pool, network, _ = make_instance()
        small = compile_distributed(network, pool, scheme="exact", job_size=1)
        large = compile_distributed(network, pool, scheme="exact", job_size=5)
        assert small.jobs >= large.jobs
        assert large.jobs >= 1

    def test_makespan_reported(self):
        pool, network, _ = make_instance()
        result = compile_distributed(
            network, pool, scheme="exact", workers=4, job_size=2
        )
        assert result.makespan > 0.0
        assert result.workers == 4
        assert result.scheme == "exact-d"

    def test_more_workers_never_slow_the_simulated_schedule(self):
        pool, network, _ = make_instance()
        coordinator_args = dict(job_size=1, overhead=0.0)
        one = DistributedCompiler(network, pool, workers=1, **coordinator_args)
        many = DistributedCompiler(network, pool, workers=8, **coordinator_args)
        jobs_one = one.run(scheme="exact").jobs
        jobs_many = many.run(scheme="exact").jobs
        # Deterministic job DAG: worker count must not change the jobs.
        assert jobs_one == jobs_many


class TestDistributedApproximation:
    @pytest.mark.parametrize("scheme", ["hybrid", "eager", "lazy"])
    def test_epsilon_guarantee(self, scheme):
        pool, network, events = make_instance()
        result = compile_distributed(
            network, pool, scheme=scheme, epsilon=0.1, workers=4, job_size=2
        )
        for name, event in events.items():
            probability = event_probability(event, pool)
            lower, upper = result.bounds[name]
            assert lower - 1e-9 <= probability <= upper + 1e-9
            assert upper - lower <= 0.2 + 1e-9

    def test_budget_conservation_on_random_events(self, rng):
        from repro.network.build import build_targets

        for _ in range(10):
            pool = make_pool([rng.uniform(0.2, 0.8) for _ in range(5)])
            events = {f"t{i}": random_event(pool, rng) for i in range(2)}
            network = build_targets(events)
            result = compile_distributed(
                network, pool, scheme="hybrid", epsilon=0.05, workers=3, job_size=2
            )
            for name, event in events.items():
                probability = event_probability(event, pool)
                lower, upper = result.bounds[name]
                assert lower - 1e-9 <= probability <= upper + 1e-9
                assert upper - lower <= 0.1 + 1e-9


class TestValidation:
    def test_bad_parameters(self):
        pool, network, _ = make_instance()
        with pytest.raises(ValueError):
            DistributedCompiler(network, pool, workers=0)
        with pytest.raises(ValueError):
            DistributedCompiler(network, pool, job_size=0)
        coordinator = DistributedCompiler(network, pool)
        with pytest.raises(ValueError):
            coordinator.run(scheme="bogus")
        # The retired modes and the old alias are errors, not aliases.
        for execution in ("mpi", "threads", "socket", "simulated"):
            with pytest.raises(ValueError, match="unknown execution mode"):
                coordinator.run(execution=execution)

    def test_bad_job_size_rejected(self):
        # The fork depth is an int >= 1 on every surface; "adaptive"
        # is not a depth.
        from repro import ENFrame, KMedoidsSpec
        from repro.cli import main
        from repro.engine.registry import run_scheme

        pool, network, _ = make_instance()
        platform = ENFrame.from_sensor_data(
            5, scheme="mutex", seed=2, group_size=2
        ).kmedoids(KMedoidsSpec(k=2, iterations=1))
        for bad in ("adaptive", "bogus", 2.5, 0, True):
            with pytest.raises(ValueError):
                DistributedCompiler(network, pool, job_size=bad)
            with pytest.raises(ValueError):
                compile_distributed(network, pool, workers=2, job_size=bad)
            with pytest.raises(ValueError):
                run_scheme("exact", network, pool, workers=2, job_size=bad)
            with pytest.raises(ValueError):
                platform.run("exact", workers=2, job_size=bad)
        for bad in ("adaptive", "0"):
            argv = ["cluster", "--objects", "5", "--group-size", "2",
                    "--algorithm", "exact", "--workers", "2",
                    "--job-size", bad]
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: not an int
                code = exc.code
            assert code == 2


def make_wide_instance(seed: int = 5):
    """A wider instance whose waves outnumber workers * PIPELINE_DEPTH.

    Stealing only has material to work with when a generation leaves
    jobs queued after the initial top-up, so the steal tests need many
    more jobs per wave than the 5-variable instance produces.
    """
    import random

    from repro.network.build import build_targets

    rng = random.Random(seed)
    pool = make_pool([rng.uniform(0.2, 0.8) for _ in range(10)])
    events = {f"t{i}": random_event(pool, rng, depth=4) for i in range(3)}
    return pool, build_targets(events)


def _assert_same_tree(result, reference):
    assert result.tree_nodes == reference.tree_nodes
    assert result.jobs == reference.jobs
    for name in reference.bounds:
        assert result.bounds[name] == pytest.approx(reference.bounds[name])


def _document_types(value) -> set:
    """The exact types a join-time document is built from."""
    if isinstance(value, dict):
        return {dict}.union(
            *(_document_types(key) | _document_types(item)
              for key, item in value.items())
        )
    if isinstance(value, list):
        return {list}.union(*map(_document_types, value))
    return {type(value)}


class TestWorkerPayload:
    """A worker's ``init`` carries documents only and the worker lowers
    the network itself, to the coordinator's program."""

    @pytest.mark.parametrize("folded", [False, True])
    def test_init_carries_only_documents(self, folded):
        from repro.compile.distributed import _build_worker_state, _worker_payload
        from repro.compile.transport import decode_record, encode_record
        from repro.engine.masked import masked_program

        if folded:
            from repro.data.datasets import sensor_dataset
            from repro.mining.kmedoids import KMedoidsSpec, build_kmedoids_folded

            dataset = sensor_dataset(5, scheme="mutex", seed=2, group_size=2)
            pool = dataset.pool
            network = build_kmedoids_folded(
                dataset, KMedoidsSpec(k=2, iterations=2)
            )
        else:
            pool, network, _ = make_instance()
        coordinator = DistributedCompiler(network, pool, workers=2)
        config = _worker_payload(
            network, pool, coordinator.target_names, [0, 1], "masked"
        )
        assert "program" not in config
        assert _document_types(config) <= {
            dict, list, str, int, float, bool, type(None)
        }
        # The init record carries the config itself, as JSON.
        _, _, config = decode_record(encode_record(("init", 0, config)))
        compiler, _ = _build_worker_state(config)
        expected = masked_program(network)
        lowered = compiler.evaluator._prog
        for column in ("kinds", "child_indices", "guard_value", "final_vertex"):
            assert getattr(lowered, column).tobytes() == (
                getattr(expected, column).tobytes()
            )


class TestProcessExecution:
    """The one worker pool, its workers spawned on local socket pairs."""

    pool_kind = "pair"

    def test_process_exact_matches_sequential(self):
        pool, network, events = make_instance()
        sequential = compile_network(network, pool)
        with pooled_coordinator(
            self.pool_kind, network, pool, job_size=2
        ) as coordinator:
            result = coordinator.run(scheme="exact", execution="process")
        for name in events:
            assert result.bounds[name] == pytest.approx(
                sequential.bounds[name]
            )
        assert result.extra["execution"] == 2.0
        assert result.extra["wire_bytes_sent"] > 0.0
        assert result.extra["wire_bytes_received"] > 0.0

    def _assert_death_is_survived(self, fault: str) -> None:
        import multiprocessing

        pool, network, _ = make_instance()
        reference = compile_distributed(
            network, pool, scheme="exact", workers=2, job_size=1
        )
        with pooled_coordinator(
            self.pool_kind, network, pool, job_size=1,
            fault_injection={"worker": 1, fault: 2},
        ) as coordinator:
            result = coordinator.run(scheme="exact", execution="process")
            # The dead worker's jobs were requeued on the survivor: the
            # run completes with identical trees and bounds.
            _assert_same_tree(result, reference)
            assert result.extra["worker_failures"] >= 1.0
            # The dead worker is out of the pool; the survivor carried it.
            alive = coordinator._process_pool.alive_workers()
            assert [worker.worker_id for worker in alive] == [0]
        assert not multiprocessing.active_children()

    def test_worker_crash_requeues_with_dead_worker_excluded(self):
        self._assert_death_is_survived("crash_on_job")

    def test_partial_send_crash_recovers(self):
        # The worker dies after shipping a frame header with a truncated
        # body: the partial frame must be discarded (never delivered).
        self._assert_death_is_survived("partial_send_on_job")

    def test_timeout_tears_down_pool_without_orphans(self):
        import multiprocessing

        pool, network, _ = make_instance()
        with pooled_coordinator(
            self.pool_kind, network, pool, job_size=1,
            fault_injection={"worker": 0, "stall_on_job": 1},
        ) as coordinator:
            with pytest.raises(TimeoutError):
                coordinator.run(
                    scheme="exact", execution="process", timeout=1.5
                )
            assert coordinator._process_pool is None
        assert not multiprocessing.active_children()

    def test_interrupt_tears_down_pool_without_orphans(self, monkeypatch):
        import multiprocessing

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(
            DistributedCompiler, "_execute_process_wave", interrupted
        )
        pool, network, _ = make_instance()
        with pooled_coordinator(
            self.pool_kind, network, pool, job_size=2
        ) as coordinator:
            with pytest.raises(KeyboardInterrupt):
                coordinator.run(scheme="exact", execution="process")
            # The exception path must have force-closed the pool.
            assert coordinator._process_pool is None
        assert not multiprocessing.active_children()

    def test_pool_persists_across_runs(self):
        pool, network, _ = make_instance()
        with pooled_coordinator(
            self.pool_kind, network, pool, job_size=2
        ) as coordinator:
            coordinator.run(scheme="exact", execution="process")
            first_pool = coordinator._process_pool
            coordinator.run(scheme="hybrid", epsilon=0.1, execution="process")
            assert coordinator._process_pool is first_pool

    def test_stealing_moves_jobs_and_keeps_the_tree(self):
        # Worker 0 is slowed on every job; with wide waves the idle
        # worker must steal from its queue, and the merged tree must
        # still match the no-steal and simulated runs exactly.
        pool, network = make_wide_instance()
        slow = {"worker": 0, "sleep_per_job": 0.002}
        runs = {}
        for steal in (True, False):
            with pooled_coordinator(
                self.pool_kind, network, pool, job_size=1,
                fault_injection=slow, steal=steal,
            ) as coordinator:
                runs[steal] = coordinator.run(
                    scheme="exact", execution="process"
                )
        assert runs[True].extra["steals"] > 0.0
        assert runs[False].extra["steals"] == 0.0
        _assert_same_tree(runs[True], runs[False])


class TestProcessExecutionOverListen(TestProcessExecution):
    """The same contracts with ``--connect`` workers joined over TCP."""

    pool_kind = "listen"


class TestSocketExecution:
    """Who may — and who may not — reach the coordinator's sockets."""

    def test_local_pool_opens_no_listening_socket(self, monkeypatch):
        import socket

        def refuse(*args, **kwargs):
            raise AssertionError("a run without listen= must not listen")

        monkeypatch.setattr(socket.socket, "listen", refuse)
        pool, network, _ = make_instance()
        with pooled_coordinator(
            "pair", network, pool, job_size=2
        ) as coordinator:
            coordinator.run(scheme="exact", execution="process")
            transport = coordinator._process_pool
            assert transport.listener is None
            families = {
                worker.stream.sock.family for worker in transport.workers
            }
            assert families == {socket.AF_UNIX}
            # A stream is bound to its process by construction.
            assert all(worker.process.is_alive() for worker in transport.workers)

    def test_stray_connections_do_not_abort_the_join(self, monkeypatch):
        # A port scan (connect, close), garbage bytes, a forged length
        # header, a record that is not a hello and a peer that never
        # speaks must each be dropped; the real worker that joins after
        # them carries the run.
        import socket
        import threading

        from repro.compile import transport
        from repro.compile.transport import HEADER, FramedStream, serve_worker

        monkeypatch.setattr(transport, "HANDSHAKE_SECONDS", 0.3)
        port = free_port()
        address = f"127.0.0.1:{port}"
        finished = threading.Event()

        def connect():
            while True:
                try:
                    return socket.create_connection(("127.0.0.1", port))
                except OSError:
                    if finished.wait(0.05):
                        raise

        def strays_then_a_worker():
            connect().close()
            with connect() as garbage:
                garbage.sendall(HEADER.pack(9) + b"not-a-pkl")
            with connect() as forged:
                forged.sendall(HEADER.pack(1 << 62))
            with connect() as impostor:
                FramedStream(impostor).send(("ready", 0))
            with connect():  # silent until the handshake times out
                serve_worker(address, 30.0)

        joiner = threading.Thread(target=strays_then_a_worker, daemon=True)
        joiner.start()
        pool, network, _ = make_instance()
        coordinator = DistributedCompiler(
            network, pool, workers=1, job_size=2, listen=address
        )
        try:
            simulated = coordinator.run(scheme="exact")
            result = coordinator.run(
                scheme="exact", execution="process", timeout=60.0
            )
            assert result.jobs == simulated.jobs
            assert result.tree_nodes == simulated.tree_nodes
            assert result.bounds == simulated.bounds
            assert result.extra["worker_failures"] == 0.0
        finally:
            finished.set()
            coordinator.close()
            joiner.join(10.0)
        assert not joiner.is_alive()

    def test_oversize_frame_drops_the_worker_and_the_run_completes(self):
        # One honest serve_worker() process and one hostile peer that
        # joins properly, then answers its first job with a forged
        # length header: the coordinator must drop it (not buffer
        # towards 4 EiB, not crash) and finish on the survivor.
        import multiprocessing
        import socket as socket_module
        import threading

        from repro.compile.transport import HEADER, FramedStream, serve_worker

        port = free_port()
        address = f"127.0.0.1:{port}"
        finished = threading.Event()

        def hostile():
            while True:
                try:
                    sock = socket_module.create_connection(("127.0.0.1", port))
                    break
                except OSError:
                    if finished.wait(0.05):
                        return
            stream = FramedStream(sock)
            try:
                stream.send(("hello", 0))
                _, worker_id, _ = stream.recv()
                stream.send(("ready", worker_id))
                stream.recv()  # the first job
                sock.sendall(HEADER.pack(1 << 62))
                finished.wait(60.0)  # stay connected: no EOF to blame
            except (EOFError, OSError):
                pass
            finally:
                stream.close()

        honest = multiprocessing.get_context("spawn").Process(
            target=serve_worker, args=(address, 30.0), daemon=True
        )
        honest.start()
        intruder = threading.Thread(target=hostile, daemon=True)
        intruder.start()
        pool, network, _ = make_instance()
        coordinator = DistributedCompiler(
            network, pool, workers=2, job_size=1, listen=address
        )
        try:
            simulated = coordinator.run(scheme="exact")
            result = coordinator.run(
                scheme="exact", execution="process", timeout=60.0
            )
            assert result.jobs == simulated.jobs
            assert result.tree_nodes == simulated.tree_nodes
            assert result.bounds == simulated.bounds
            assert result.extra["worker_failures"] >= 1.0
            assert len(coordinator._process_pool.alive_workers()) == 1
        finally:
            finished.set()
            coordinator.close()
            intruder.join(10.0)
            honest.join(10.0)
            if honest.is_alive():  # pragma: no cover - hung joiner
                honest.terminate()
                honest.join(5.0)
        assert not intruder.is_alive()


class TestShutdownReporting:
    def test_healthy_force_close_kills_nobody(self):
        pool, network, _ = make_instance()
        coordinator = DistributedCompiler(network, pool, workers=2, job_size=2)
        try:
            coordinator.run(scheme="exact", execution="process")
        finally:
            coordinator.close(force=True)
        # Healthy workers honour the stop record inside the bounded
        # deadline even under force=True; nobody needed terminate().
        assert coordinator.workers_killed == 0

    def test_stalled_worker_is_killed_and_counted(self):
        pool, network, _ = make_instance()
        coordinator = DistributedCompiler(
            network, pool, workers=2, job_size=1,
            fault_injection={"worker": 0, "stall_on_job": 1},
        )
        try:
            with pytest.raises(TimeoutError):
                coordinator.run(scheme="exact", execution="process",
                                timeout=1.5)
        finally:
            coordinator.close(force=True)
        # The stalled worker overstayed the kill deadline and had to be
        # terminated; the count feeds the next run's result.extra.
        assert coordinator.workers_killed >= 1

    def test_killed_workers_reported_in_next_run_extra(self):
        pool, network, _ = make_instance()
        coordinator = DistributedCompiler(
            network, pool, workers=2, job_size=1,
            fault_injection={"worker": 0, "stall_on_job": 1},
        )
        try:
            with pytest.raises(TimeoutError):
                coordinator.run(scheme="exact", execution="process",
                                timeout=1.5)
            coordinator.fault_injection = None
            result = coordinator.run(scheme="exact", execution="process")
            assert result.extra["workers_killed"] >= 1.0
        finally:
            coordinator.close(force=True)
