"""Unit tests for the bit-packed world columns (:mod:`repro.engine.packed`)."""

import numpy as np
import pytest

from repro.engine.bulk import BulkEvaluator, make_bulk_evaluator
from repro.engine.kernels import BACKEND_ERRORS, get_backend
from repro.engine.packed import (
    PackedBulkEvaluator,
    PackedFoldedBulkEvaluator,
    _segments_numpy,
    n_words,
    pack_bool_column,
    tail_mask,
    unpack_bool_column,
)
from repro.events.expressions import (
    FALSE,
    TRUE,
    atom,
    conj,
    disj,
    guard,
    negate,
    var,
)
from repro.network.build import build_targets

from ..conftest import make_pool, require_native, source_backend

ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


class TestPackedColumns:
    @pytest.mark.parametrize("worlds", [1, 7, 63, 64, 65, 128, 200, 4096])
    def test_roundtrip(self, worlds):
        rng = np.random.default_rng(worlds)
        column = rng.random(worlds) < 0.5
        words = pack_bool_column(column)
        assert words.dtype == np.uint64
        assert words.shape == (n_words(worlds),)
        np.testing.assert_array_equal(unpack_bool_column(words, worlds), column)

    @pytest.mark.parametrize("worlds", [1, 7, 63, 64, 65, 128, 200])
    def test_tail_bits_are_zero(self, worlds):
        # The invariant every word-wise op relies on: bits at positions
        # >= worlds are zero, so popcounts and reductions never see
        # ghost worlds.
        words = pack_bool_column(np.ones(worlds, dtype=bool))
        assert words[-1] == (words[-1] & tail_mask(worlds))

    def test_bit_order_is_little(self):
        # World w lives at bit w % 64 of word w // 64.
        column = np.zeros(70, dtype=bool)
        column[0] = True
        column[65] = True
        words = pack_bool_column(column)
        assert words[0] == np.uint64(1)
        assert words[1] == np.uint64(2)

    def test_n_words_and_tail_mask(self):
        assert [n_words(w) for w in (1, 64, 65, 128, 129)] == [1, 1, 2, 2, 3]
        assert tail_mask(64) == ALL_ONES
        assert tail_mask(1) == np.uint64(1)
        assert tail_mask(65) == np.uint64(1)


def _run_segments(ops, out, arg_off, arg_idx, matrix, tail, backend=None):
    ops = np.ascontiguousarray(ops, dtype=np.int64)
    out = np.ascontiguousarray(out, dtype=np.int64)
    arg_off = np.ascontiguousarray(arg_off, dtype=np.int64)
    arg_idx = np.ascontiguousarray(arg_idx, dtype=np.int64)
    if backend is None:
        _segments_numpy(ops, out, arg_off, arg_idx, matrix, tail)
    else:
        backend.run_packed(ops, out, arg_off, arg_idx, matrix, tail)


class TestSegmentKernels:
    def _case(self):
        # Slots 0-2 inputs; 3 = NOT 0; 4 = AND(1, 2, 3); 5 = OR(0, 4);
        # 6 = AND() (empty: all-true); 7 = OR() (empty: all-false).
        worlds = 130
        rng = np.random.default_rng(9)
        matrix = np.zeros((8, n_words(worlds)), dtype=np.uint64)
        dense = [rng.random(worlds) < 0.5 for _ in range(3)]
        for slot, column in enumerate(dense):
            matrix[slot] = pack_bool_column(column)
        ops = [2, 0, 1, 0, 1]
        out = [3, 4, 5, 6, 7]
        args = [[0], [1, 2, 3], [0, 4], [], []]
        arg_off = np.cumsum([0] + [len(a) for a in args])
        arg_idx = [i for a in args for i in a]
        expected = {
            3: ~dense[0],
            4: dense[1] & dense[2] & ~dense[0],
            5: dense[0] | (dense[1] & dense[2] & ~dense[0]),
            6: np.ones(worlds, dtype=bool),
            7: np.zeros(worlds, dtype=bool),
        }
        return worlds, matrix, ops, out, arg_off, arg_idx, expected

    def test_numpy_segments(self):
        worlds, matrix, ops, out, arg_off, arg_idx, expected = self._case()
        _run_segments(ops, out, arg_off, arg_idx, matrix, tail_mask(worlds))
        for slot, column in expected.items():
            np.testing.assert_array_equal(
                unpack_bool_column(matrix[slot], worlds), column
            )
            # Tail invariant after every op, including NOT and empty AND.
            assert matrix[slot][-1] == (matrix[slot][-1] & tail_mask(worlds))

    @pytest.mark.parametrize("tier", ["source", "native"])
    def test_kernel_segments_match_numpy(self, tier):
        # "source" is _packed_segments itself, run as plain Python: the
        # text the native tier is compiled from.
        backend = source_backend() if tier == "source" else get_backend(tier)
        if backend is None:
            pytest.skip(f"{tier} tier unavailable: {BACKEND_ERRORS.get(tier)}")
        worlds, matrix, ops, out, arg_off, arg_idx, expected = self._case()
        _run_segments(
            ops, out, arg_off, arg_idx, matrix, tail_mask(worlds), backend
        )
        for slot, column in expected.items():
            np.testing.assert_array_equal(
                unpack_bool_column(matrix[slot], worlds), column
            )


class TestPackedEvaluators:
    def _network(self):
        return build_targets(
            {
                "t": disj([conj([var(0), var(1)]), negate(var(2))]),
                "always": disj([var(0), TRUE]),
                "never": conj([var(0), FALSE]),
                "mixed": atom(
                    "<=", guard(var(0), 1.0), guard(disj([var(1), var(2)]), 2.0)
                ),
            }
        )

    def test_make_bulk_evaluator_dispatch(self):
        network = self._network()
        assert isinstance(
            make_bulk_evaluator(network), PackedBulkEvaluator
        )  # packed by default
        assert type(make_bulk_evaluator(network, packed=False)) is BulkEvaluator

    def test_kernel_attribute_reports_tier(self):
        network = self._network()
        assert make_bulk_evaluator(network, kernel="python").kernel == "numpy"
        require_native()
        evaluator = make_bulk_evaluator(network, kernel="native")
        assert evaluator.kernel == "native"

    def test_plan_is_cached_per_roots(self):
        network = self._network()
        evaluator = make_bulk_evaluator(network)
        roots = list(network.targets.values())
        first = evaluator._plan(roots)
        assert evaluator._plan(roots) is first
        assert evaluator._plan(roots[:1]) is not first

    def test_constants_and_atoms(self):
        network = self._network()
        packed = make_bulk_evaluator(network)
        dense = make_bulk_evaluator(network, packed=False)
        rng = np.random.default_rng(4)
        assignments = rng.random((100, 3)) < 0.5
        targets = list(network.targets.values())
        expected = dense.evaluate(assignments, targets)
        actual = packed.evaluate(assignments, targets)
        for node_id in targets:
            np.testing.assert_array_equal(
                np.asarray(actual[node_id], dtype=bool),
                np.asarray(expected[node_id], dtype=bool),
            )

    def test_folded_evaluator_is_packed_by_default(self):
        from repro.network.folded import FoldedBuilder, LoopEvent

        builder = FoldedBuilder(2)
        flag = LoopEvent("flag")
        flag_next = disj([flag, var(0)])
        builder.define_slot("flag", init=var(1), next_value=flag_next)
        builder.add_target("out", flag_next)
        folded = builder.folded
        assert isinstance(
            make_bulk_evaluator(folded), PackedFoldedBulkEvaluator
        )
        pool = make_pool([0.4, 0.7])
        from repro.engine.bulk import bulk_naive_probabilities

        packed = bulk_naive_probabilities(folded, pool)
        unpacked = bulk_naive_probabilities(folded, pool, packed=False)
        assert packed.extra["packed"] == 1.0
        assert packed.bounds["out"][0] == pytest.approx(
            unpacked.bounds["out"][0], abs=1e-12
        )

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            make_bulk_evaluator(self._network(), kernel="fortran")
