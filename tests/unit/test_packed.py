"""Unit tests for the 64-world words of the world-block evaluator
(:class:`repro.engine.kernels.WorldBlockEvaluator`)."""

import numpy as np
import pytest

from repro.engine.bulk import (
    BulkEvaluator,
    FoldedBulkEvaluator,
    bulk_naive_probabilities,
    make_bulk_evaluator,
)
from repro.engine.kernels import (
    WorldBlockEvaluator,
    n_words,
    pack_bool_column,
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

from ..conftest import make_pool, require_native


def _valid_bits(worlds: int) -> int:
    """The bits of the last word that hold worlds."""
    return (1 << (worlds % 64 or 64)) - 1


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
        # Variable words carry no ghost worlds past the batch.
        words = pack_bool_column(np.ones(worlds, dtype=bool))
        assert int(words[-1]) == _valid_bits(worlds)
        assert (words[:-1] == np.uint64(0xFFFFFFFFFFFFFFFF)).all()

    def test_bit_order_is_little(self):
        # World w lives at bit w % 64 of word w // 64.
        column = np.zeros(70, dtype=bool)
        column[0] = True
        column[65] = True
        words = pack_bool_column(column)
        assert words[0] == np.uint64(1)
        assert words[1] == np.uint64(2)

    def test_n_words_and_tail_mask(self):
        assert [n_words(w) for w in (0, 1, 64, 65, 128, 129)] == [0, 1, 1, 2, 2, 3]
        # A matrix packs row by row: variables x worlds -> variables x words.
        matrix = np.ones((3, 65), dtype=bool)
        words = pack_bool_column(matrix)
        assert words.shape == (3, 2)
        assert (words[:, 1] == np.uint64(1)).all()
        np.testing.assert_array_equal(unpack_bool_column(words, 65), matrix)


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
        assert type(make_bulk_evaluator(network, kernel="python")) is BulkEvaluator
        require_native()
        assert isinstance(
            make_bulk_evaluator(network, kernel="native"), WorldBlockEvaluator
        )
        assert isinstance(
            make_bulk_evaluator(network, kernel="auto"), WorldBlockEvaluator
        )

    def test_kernel_attribute_reports_tier(self):
        require_native()
        evaluator = make_bulk_evaluator(self._network(), kernel="native")
        assert evaluator.kernel == "native"

    def test_constants_and_atoms(self):
        require_native()
        network = self._network()
        blocks = make_bulk_evaluator(network, kernel="native")
        dense = make_bulk_evaluator(network, kernel="python")
        rng = np.random.default_rng(4)
        assignments = rng.random((100, 3)) < 0.5
        targets = list(network.targets.values())
        expected = dense.evaluate(assignments, targets)
        actual = blocks.evaluate(assignments, targets)
        for node_id in targets:
            np.testing.assert_array_equal(actual[node_id], expected[node_id])
        assert actual[network.targets["always"]].all()
        assert not actual[network.targets["never"]].any()

    def test_folded_evaluator_is_packed_by_default(self):
        from repro.network.folded import FoldedBuilder, LoopEvent

        builder = FoldedBuilder(2)
        flag = LoopEvent("flag")
        flag_next = disj([flag, var(0)])
        builder.define_slot("flag", init=var(1), next_value=flag_next)
        builder.add_target("out", flag_next)
        folded = builder.folded
        assert isinstance(
            make_bulk_evaluator(folded, kernel="python"), FoldedBulkEvaluator
        )
        require_native()
        assert isinstance(
            make_bulk_evaluator(folded, kernel="native"), WorldBlockEvaluator
        )
        pool = make_pool([0.4, 0.7])
        blocks = bulk_naive_probabilities(folded, pool, kernel="native")
        dense = bulk_naive_probabilities(folded, pool, kernel="python")
        assert blocks.bounds == dense.bounds
        assert blocks.bounds["out"][0] == pytest.approx(1 - 0.6 * 0.3, abs=1e-12)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            make_bulk_evaluator(self._network(), kernel="fortran")
