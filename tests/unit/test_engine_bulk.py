"""Unit tests for the vectorized bulk-world evaluator."""

import numpy as np
import pytest

from repro.engine.bulk import (
    BulkEvaluator,
    bulk_monte_carlo_probabilities,
    bulk_naive_probabilities,
    enumerate_worlds,
    make_bulk_evaluator,
    world_masses,
)
from repro.events.expressions import (
    TRUE,
    atom,
    cdist,
    cinv,
    conj,
    cpow,
    cprod,
    csum,
    disj,
    guard,
    negate,
    var,
)
from repro.engine.kernels import get_backend
from repro.events.probability import event_probability
from repro.network.build import NetworkBuilder, build_targets
from repro.worlds.naive import lineage_nodes, naive_probabilities_scalar

from ..conftest import make_pool


class TestWorldEnumeration:
    def test_order_matches_pool_enumeration(self):
        pool = make_pool([0.5, 0.4, 0.7])
        assignments = enumerate_worlds(len(pool), 0, 1 << len(pool))
        masses = world_masses(assignments, np.asarray(pool.probabilities))
        for row, (valuation, mass) in zip(
            range(len(assignments)), pool.iter_valuations()
        ):
            expected = [valuation[i] for i in range(len(pool))]
            assert list(assignments[row]) == expected
            assert masses[row] == mass  # bit-for-bit: same multiply order

    def test_empty_pool_single_world(self):
        assignments = enumerate_worlds(0, 0, 1)
        assert assignments.shape == (1, 0)
        assert world_masses(assignments, np.zeros(0)) == pytest.approx([1.0])

    def test_64_plus_variables_past_int64(self):
        # Regression: with 64+ variables, world indices overflow int64
        # and the naive `index >> shift` bit extraction is undefined
        # (a shift by >= 64).  The chunked path must agree with plain
        # Python big-int arithmetic at arbitrary offsets.
        variable_count = 70

        def oracle(index):
            return [
                ((index >> (variable_count - 1 - column)) & 1) == 0
                for column in range(variable_count)
            ]

        for start in (0, 5, (1 << 62) - 3, (1 << 65) + 1, (1 << 69) + 7):
            stop = start + 6
            block = enumerate_worlds(variable_count, start, stop)
            assert block.shape == (6, variable_count)
            for row, index in enumerate(range(start, stop)):
                assert list(block[row]) == oracle(index), (start, row)

    def test_64_variable_boundary_crossing_chunk(self):
        # A slice straddling a multiple of 2**62 exercises the run
        # split inside the chunked path.
        variable_count = 64
        boundary = 1 << 62
        block = enumerate_worlds(variable_count, boundary - 2, boundary + 2)
        for row, index in enumerate(range(boundary - 2, boundary + 2)):
            expected = [
                ((index >> (variable_count - 1 - column)) & 1) == 0
                for column in range(variable_count)
            ]
            assert list(block[row]) == expected


class TestBulkEvaluator:
    def _check_against_oracle(self, events, pool):
        network = build_targets(events)
        evaluator = BulkEvaluator(network)
        assignments = enumerate_worlds(len(pool), 0, 1 << len(pool))
        masses = world_masses(assignments, np.asarray(pool.probabilities))
        target_ids = [network.targets[name] for name in events]
        outcomes = evaluator.evaluate(assignments, target_ids)
        for name, event in events.items():
            bulk = float(masses @ outcomes[network.targets[name]])
            assert bulk == pytest.approx(
                event_probability(event, pool), abs=1e-12
            )

    def test_boolean_connectives(self):
        pool = make_pool([0.5, 0.4, 0.7])
        self._check_against_oracle(
            {
                "a": disj([var(0), conj([var(1), negate(var(2))])]),
                "b": conj([var(0), disj([var(1), var(2)])]),
                "true": TRUE,
            },
            pool,
        )

    def test_numeric_kinds(self):
        pool = make_pool([0.5, 0.4, 0.7])
        total = csum([guard(var(0), 1.0), guard(var(1), 2.0), guard(var(2), -1.0)])
        product = cprod([guard(var(0), 2.0), guard(var(1), 3.0)])
        self._check_against_oracle(
            {
                "sum_cmp": atom("<=", total, guard(TRUE, 1.5)),
                "prod_cmp": atom(">", product, guard(TRUE, 5.0)),
                "inv_cmp": atom("<", cinv(total), guard(TRUE, 0.6)),
                "pow_cmp": atom(">=", cpow(total, 2), guard(TRUE, 1.0)),
            },
            pool,
        )

    def test_distances_over_vectors(self):
        pool = make_pool([0.6, 0.3])
        left = guard(var(0), np.array([0.0, 0.0]))
        right = guard(var(1), np.array([3.0, 4.0]))
        for metric, threshold in (
            ("euclidean", 4.0),
            ("sqeuclidean", 20.0),
            ("manhattan", 6.0),
        ):
            self._check_against_oracle(
                {"d": atom("<=", cdist(left, right, metric), guard(TRUE, threshold))},
                pool,
            )

    def test_undefined_makes_atoms_true(self):
        # With var(0) false the guard is undefined, so the atom holds.
        pool = make_pool([0.3])
        self._check_against_oracle(
            {"t": atom(">", guard(var(0), -5.0), guard(TRUE, 0.0))}, pool
        )

    def test_division_by_zero_is_undefined(self):
        # total = 0 when both vars are false -> inv undefined -> atom true.
        pool = make_pool([0.5, 0.5])
        total = csum([guard(var(0), 1.0), guard(var(1), -1.0)])
        self._check_against_oracle(
            {"t": atom("<", cinv(total), guard(TRUE, 0.0))}, pool
        )


class TestBulkNaive:
    def test_matches_scalar_oracle(self):
        pool = make_pool([0.5, 0.4, 0.7, 0.2])
        events = {
            "a": disj([var(0), conj([var(1), var(2)])]),
            "b": conj([negate(var(3)), disj([var(0), var(2)])]),
        }
        network = build_targets(events)
        bulk = bulk_naive_probabilities(network, pool)
        scalar = naive_probabilities_scalar(network, pool)
        for name in events:
            assert bulk.bounds[name][0] == pytest.approx(
                scalar.bounds[name][0], abs=1e-9
            )
            assert bulk.bounds[name][0] == bulk.bounds[name][1]
        assert bulk.tree_nodes == scalar.tree_nodes
        assert bulk.extra["vectorized"] == 1.0

    def test_chunking_does_not_change_results(self):
        pool = make_pool([0.5, 0.4, 0.7, 0.2, 0.9])
        network = build_targets({"t": disj([var(i) for i in range(5)])})
        whole = bulk_naive_probabilities(network, pool)
        chunked = bulk_naive_probabilities(network, pool, chunk_size=3)
        assert chunked.bounds["t"][0] == pytest.approx(
            whole.bounds["t"][0], abs=1e-12
        )
        assert chunked.tree_nodes == whole.tree_nodes

    def test_world_signatures(self):
        pool = make_pool([0.5, 0.5])
        network = build_targets({"t": var(0)})
        builder = NetworkBuilder(network)
        network.bind_name("Phi", builder.build(var(0)))
        result = bulk_naive_probabilities(
            network, pool, world_key_nodes=lineage_nodes(network, ["Phi"])
        )
        assert result.extra["distinct_worlds"] == 2.0

    def test_timeout_reports_partial(self):
        pool = make_pool([0.5] * 12)
        network = build_targets({"t": conj([var(i) for i in range(12)])})
        result = bulk_naive_probabilities(network, pool, timeout=0.0)
        assert result.extra["timed_out"] == 1.0
        assert result.bounds["t"][1] == 1.0


class TestFoldedBulk:
    """Folded networks evaluate as their unrolled program, on the default rung."""

    kernel = None  # the process default (``REPRO_KERNEL`` or ``auto``)

    @pytest.fixture(autouse=True)
    def _pin_rung(self, monkeypatch):
        if self.kernel is not None:
            monkeypatch.setenv("REPRO_KERNEL", self.kernel)

    def _counter(self, iterations):
        from repro.events.expressions import LoopCVal, literal
        from repro.network.nodes import EventNetwork

        builder = NetworkBuilder(EventNetwork(iterations=iterations))
        slot = LoopCVal("S")
        next_value = csum([slot, guard(var(0), 1.0)])
        builder.define_slot("S", init=literal(0.0), next_value=next_value)
        builder.add_target(
            "big", atom(">=", next_value, guard(TRUE, float(iterations)))
        )
        return builder.network

    def test_make_bulk_evaluator_dispatches(self):
        # Both flavours run as one lowered program on either rung; the
        # rung depends only on whether a backend is live.
        folded = self._counter(2)
        flat = build_targets({"t": var(0)})
        live = get_backend("native") is not None
        for network in (folded, flat):
            assert make_bulk_evaluator(network, kernel="python").kernel == "python"
            assert make_bulk_evaluator(network, kernel="native").kernel == (
                "native" if live else "python"
            )
        if self.kernel == "python":  # the pin reaches the default rung
            assert make_bulk_evaluator(folded).kernel == "python"

    def test_counter_semantics(self):
        # With x0 true the slot reaches `iterations`, so P[big] = P[x0].
        pool = make_pool([0.3])
        for iterations in (1, 2, 5):
            result = bulk_naive_probabilities(self._counter(iterations), pool)
            assert result.bounds["big"][0] == pytest.approx(0.3, abs=1e-12)
            assert result.extra["vectorized"] == 1.0

    def test_multi_slot_boolean_and_numeric(self):
        # Boolean slot: "x0 ever seen so far"; numeric slot: running sum
        # gated on the boolean slot — exercises both slot kinds and the
        # cross-slot wiring.
        from repro.events.expressions import LoopCVal, LoopEvent, cond, literal
        from repro.network.nodes import EventNetwork

        iterations = 3
        builder = NetworkBuilder(EventNetwork(iterations=iterations))
        seen = LoopEvent("seen")
        total = LoopCVal("T")
        seen_next = disj([seen, var(0)])
        total_next = csum([total, cond(seen_next, guard(var(1), 1.0))])
        builder.define_slot("seen", init=var(0), next_value=seen_next)
        builder.define_slot("T", init=literal(0.0), next_value=total_next)
        builder.add_target("flag", seen_next)
        builder.add_target(
            "accumulated", atom(">=", total_next, guard(TRUE, float(iterations)))
        )
        folded = builder.network

        pool = make_pool([0.4, 0.7])
        bulk = bulk_naive_probabilities(folded, pool)
        scalar = naive_probabilities_scalar(folded, pool)
        for name in folded.targets:
            assert bulk.bounds[name][0] == pytest.approx(
                scalar.bounds[name][0], abs=1e-9
            )
        # flag is just "x0" (seen from iteration 0 onwards).
        assert bulk.bounds["flag"][0] == pytest.approx(0.4, abs=1e-12)
        # accumulated needs x0 (to arm the counter at t=0) and x1.
        assert bulk.bounds["accumulated"][0] == pytest.approx(
            0.4 * 0.7, abs=1e-12
        )

    def test_kmedoids_folded_matches_scalar_oracle(self):
        from repro.data.datasets import sensor_dataset
        from repro.mining.kmedoids import KMedoidsSpec, build_kmedoids_folded

        dataset = sensor_dataset(6, scheme="independent", seed=4, group_size=2)
        folded = build_kmedoids_folded(dataset, KMedoidsSpec(k=2, iterations=3))
        bulk = bulk_naive_probabilities(folded, dataset.pool)
        scalar = naive_probabilities_scalar(folded, dataset.pool)
        for name in folded.targets:
            assert bulk.bounds[name][0] == pytest.approx(
                scalar.bounds[name][0], abs=1e-9
            )
        assert bulk.tree_nodes == scalar.tree_nodes

    def test_world_signatures_over_folded(self):
        pool = make_pool([0.5, 0.5])
        folded = self._counter(2)
        phi = NetworkBuilder(folded).build(var(0))
        folded.bind_name("Phi", phi)
        result = bulk_naive_probabilities(
            folded, pool, world_key_nodes=lineage_nodes(folded, ["Phi"])
        )
        assert result.extra["distinct_worlds"] == 2.0

    def test_timeout_reports_partial(self):
        pool = make_pool([0.5] * 12)
        folded = self._counter(2)
        result = bulk_naive_probabilities(folded, pool, timeout=0.0)
        assert result.extra["timed_out"] == 1.0
        assert result.bounds["big"][1] == 1.0

    def test_chunking_does_not_change_results(self):
        pool = make_pool([0.5, 0.4, 0.7])
        folded = self._counter(3)
        whole = bulk_naive_probabilities(folded, pool)
        chunked = bulk_naive_probabilities(folded, pool, chunk_size=3)
        assert chunked.bounds["big"][0] == pytest.approx(
            whole.bounds["big"][0], abs=1e-12
        )

    def test_subset_of_targets_on_multi_slot_network(self):
        # Regression: slot state was seeded from *every* slot's init,
        # crashing when the requested targets only reach some slots.
        from repro.events.expressions import LoopCVal, LoopEvent, cond, literal
        from repro.network.nodes import EventNetwork

        builder = NetworkBuilder(EventNetwork(iterations=3))
        seen = LoopEvent("seen")
        total = LoopCVal("T")
        seen_next = disj([seen, var(0)])
        total_next = csum([total, cond(seen_next, guard(var(1), 1.0))])
        builder.define_slot("seen", init=var(0), next_value=seen_next)
        builder.define_slot("T", init=literal(0.0), next_value=total_next)
        builder.add_target("flag", seen_next)
        builder.add_target(
            "accumulated", atom(">=", total_next, guard(TRUE, 3.0))
        )
        folded = builder.network

        pool = make_pool([0.4, 0.7])
        partial = bulk_naive_probabilities(folded, pool, targets=["flag"])
        assert set(partial.bounds) == {"flag"}
        assert partial.bounds["flag"][0] == pytest.approx(0.4, abs=1e-12)

    def test_loop_dependent_initialiser_matches_scalar(self):
        # Regression: slot A initialised from slot B's value (a
        # loop-dependent init) must evaluate like the scalar folded
        # evaluator instead of being rejected.
        from repro.events.expressions import LoopCVal, literal
        from repro.network.nodes import EventNetwork

        builder = NetworkBuilder(EventNetwork(iterations=2))
        slot_a, slot_b = LoopCVal("A"), LoopCVal("B")
        a_next = csum([slot_a, guard(var(0), 1.0)])
        b_next = csum([slot_b, guard(var(1), 1.0)])
        builder.define_slot("A", init=csum([slot_b, literal(0.5)]), next_value=a_next)
        builder.define_slot("B", init=literal(0.0), next_value=b_next)
        builder.add_target("a_big", atom(">=", a_next, guard(TRUE, 2.5)))
        builder.add_target("b_big", atom(">=", b_next, guard(TRUE, 2.0)))
        folded = builder.network

        pool = make_pool([0.6, 0.3])
        bulk = bulk_naive_probabilities(folded, pool)
        scalar = naive_probabilities_scalar(folded, pool)
        for name in folded.targets:
            assert bulk.bounds[name][0] == pytest.approx(
                scalar.bounds[name][0], abs=1e-9
            )

    def test_deep_init_chain_is_recursion_free(self):
        # Regression: the demand-driven first sweep used Python
        # recursion, so a cross-slot init chain as deep as the slot
        # count hit the recursion limit.  The explicit-stack version
        # must walk a chain far deeper than the remaining headroom.
        import sys

        from repro.events.expressions import LoopCVal, literal
        from repro.network.nodes import EventNetwork

        depth = 200
        builder = NetworkBuilder(EventNetwork(iterations=2))
        slots = [LoopCVal(f"s{i}") for i in range(depth)]
        builder.define_slot(
            "s0", init=literal(1.0), next_value=csum([slots[0], literal(0.0)])
        )
        for i in range(1, depth):
            # Slot i initialises from slot i-1's loop value: the first
            # sweep must resolve inits transitively through the chain.
            builder.define_slot(
                f"s{i}",
                init=csum([slots[i - 1], literal(1.0)]),
                next_value=csum([slots[i], guard(var(0), 1.0)]),
            )
        tail = csum([slots[depth - 1], literal(0.0)])
        builder.add_target(
            "deep", atom(">=", tail, guard(TRUE, float(depth - 1)))
        )
        folded = builder.network
        pool = make_pool([0.5])

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(120)
        try:
            result = bulk_naive_probabilities(folded, pool)
        finally:
            sys.setrecursionlimit(limit)
        # Init chain leaves slot depth-1 at depth-1; one +1.0 guard per
        # iteration on the p=0.5 variable keeps it >= depth-1 always.
        assert result.bounds["deep"][0] == pytest.approx(1.0)

    def test_rebound_slot_is_not_served_from_a_stale_ir(self):
        # Regression: define_slot rebinding must invalidate the cached
        # folded IR even though the network does not grow (the cache is
        # keyed by node count).
        pool = make_pool([0.3])
        folded = self._counter(3)
        first = bulk_naive_probabilities(folded, pool)
        assert first.bounds["big"][0] == pytest.approx(0.3, abs=1e-12)
        size_before = len(folded.nodes)
        loop_in, _, next_node = folded.slots["S"]
        # Rebind the init to a node that already exists (hash-consing
        # dedups it), so the node count cannot betray the change.
        existing_guard = NetworkBuilder(folded).build(guard(var(0), 1.0))
        assert len(folded.nodes) == size_before
        folded.define_slot("S", existing_guard, next_node)
        rebound = bulk_naive_probabilities(folded, pool)
        scalar = naive_probabilities_scalar(folded, pool)
        assert rebound.bounds["big"] != first.bounds["big"]
        assert rebound.bounds["big"][0] == pytest.approx(
            scalar.bounds["big"][0], abs=1e-9
        )

    def test_network_growth_reclassifies_loop_dependence(self):
        # Regression: loop_dependent() was cached without a size key, so
        # targets added after a first evaluation were scheduled in the
        # loop-independent prefix and crashed the next bulk run.
        from repro.events.expressions import LoopCVal, literal
        from repro.network.nodes import EventNetwork

        builder = NetworkBuilder(EventNetwork(iterations=3))
        slot = LoopCVal("S")
        next_value = csum([slot, guard(var(0), 1.0)])
        builder.define_slot("S", init=literal(0.0), next_value=next_value)
        builder.add_target("big", atom(">=", next_value, guard(TRUE, 3.0)))
        folded = builder.network
        pool = make_pool([0.3])
        first = bulk_naive_probabilities(folded, pool)
        assert first.bounds["big"][0] == pytest.approx(0.3, abs=1e-12)

        # New loop-dependent target appended after the caches warmed up.
        builder.add_target("small", atom("<", next_value, guard(TRUE, 2.0)))
        second = bulk_naive_probabilities(folded, pool)
        scalar = naive_probabilities_scalar(folded, pool)
        for name in ("big", "small"):
            assert second.bounds[name][0] == pytest.approx(
                scalar.bounds[name][0], abs=1e-9
            )

    def test_monte_carlo_over_folded_deterministic(self):
        pool = make_pool([0.3])
        folded = self._counter(3)
        first = bulk_monte_carlo_probabilities(folded, pool, samples=300, seed=7)
        second = bulk_monte_carlo_probabilities(folded, pool, samples=300, seed=7)
        assert first.bounds == second.bounds
        assert first.extra["vectorized"] == 1.0
        exact = bulk_naive_probabilities(folded, pool).bounds["big"][0]
        assert abs(first.probability("big") - exact) < 0.15


class TestFoldedBulkPythonRung(TestFoldedBulk):
    """The same regressions on the NumPy row sweep, compiler or not."""

    kernel = "python"


class TestBulkMonteCarlo:
    def test_deterministic_per_seed(self):
        pool = make_pool([0.5, 0.3])
        network = build_targets({"t": conj([var(0), var(1)])})
        first = bulk_monte_carlo_probabilities(network, pool, samples=200, seed=3)
        second = bulk_monte_carlo_probabilities(network, pool, samples=200, seed=3)
        assert first.bounds == second.bounds

    def test_chunking_preserves_the_stream(self):
        pool = make_pool([0.5, 0.3, 0.8])
        network = build_targets({"t": disj([var(0), var(1), var(2)])})
        whole = bulk_monte_carlo_probabilities(network, pool, samples=500, seed=9)
        chunked = bulk_monte_carlo_probabilities(
            network, pool, samples=500, seed=9, chunk_size=64
        )
        # Chunked draws consume the generator in the same order.
        assert chunked.bounds == whole.bounds

    def test_estimate_converges(self):
        pool = make_pool([0.5, 0.4, 0.7])
        event = disj([var(0), conj([var(1), var(2)])])
        network = build_targets({"t": event})
        exact = event_probability(event, pool)
        result = bulk_monte_carlo_probabilities(network, pool, samples=4000, seed=1)
        assert abs(result.probability("t") - exact) < 0.05

    def test_invalid_arguments(self):
        pool = make_pool([0.5])
        network = build_targets({"t": var(0)})
        with pytest.raises(ValueError):
            bulk_monte_carlo_probabilities(network, pool, samples=0)
        with pytest.raises(ValueError):
            bulk_monte_carlo_probabilities(network, pool, confidence=0.3)
