"""Unit tests for network/pool serialisation."""

import numpy as np
import pytest

from repro.compile.compiler import compile_network
from repro.data.datasets import sensor_dataset
from repro.mining.kmedoids import (
    KMedoidsSpec,
    build_kmedoids_folded,
    build_kmedoids_program,
)
from repro.mining.targets import medoid_targets
from repro.network.build import build_network, build_targets
from repro.network.serialize import (
    load_network,
    network_from_dict,
    network_to_dict,
    pool_from_dict,
    pool_to_dict,
    save_network,
)
from repro.events.expressions import atom, conj, csum, guard, literal, var

from ..conftest import make_pool


class TestRoundTrip:
    def make_network(self):
        return build_targets(
            {
                "t": conj(
                    [
                        var(0),
                        atom(
                            "<=",
                            csum([guard(var(1), np.array([1.0, 2.0]))]),
                            literal(3.0),
                        ),
                    ]
                )
            }
        )

    def test_flat_round_trip_structure(self):
        network = self.make_network()
        clone = network_from_dict(network_to_dict(network))
        assert len(clone) == len(network)
        assert clone.targets == network.targets
        for original, copied in zip(network.nodes, clone.nodes):
            assert original.kind == copied.kind
            assert original.children == copied.children

    def test_vector_payload_survives(self):
        network = self.make_network()
        clone = network_from_dict(network_to_dict(network))
        vectors = [
            node.payload
            for node in clone.nodes
            if isinstance(node.payload, np.ndarray)
        ]
        assert any(np.array_equal(v, np.array([1.0, 2.0])) for v in vectors)

    def test_round_trip_preserves_probabilities(self):
        pool = make_pool([0.5, 0.7])
        network = self.make_network()
        original = compile_network(network, pool)
        clone = network_from_dict(network_to_dict(network))
        reloaded = compile_network(clone, pool)
        assert reloaded.bounds == original.bounds

    def test_folded_round_trip(self):
        dataset = sensor_dataset(5, scheme="independent", seed=2)
        spec = KMedoidsSpec(k=2, iterations=2)
        folded = build_kmedoids_folded(dataset, spec)
        clone = network_from_dict(network_to_dict(folded))
        original = compile_network(folded, dataset.pool)
        reloaded = compile_network(clone, dataset.pool)
        for name in original.bounds:
            assert reloaded.bounds[name] == pytest.approx(original.bounds[name])

    def test_version_check(self):
        network = self.make_network()
        document = network_to_dict(network)
        document["version"] = 99
        with pytest.raises(ValueError):
            network_from_dict(document)

    def test_slot_ids_outside_the_network_rejected(self):
        dataset = sensor_dataset(5, scheme="independent", seed=2)
        folded = build_kmedoids_folded(dataset, KMedoidsSpec(k=2, iterations=2))
        document = network_to_dict(folded)
        name, (loop_in, init, _) = next(iter(document["slots"].items()))
        document["slots"][name] = [loop_in, init, len(document["nodes"])]
        with pytest.raises(ValueError, match="outside the network"):
            network_from_dict(document)


class TestPoolSerialisation:
    def test_round_trip(self):
        pool = make_pool([0.1, 0.9, 0.5])
        clone = pool_from_dict(pool_to_dict(pool))
        assert clone.probabilities == pool.probabilities
        assert clone.name(1) == pool.name(1)


class TestFileIO:
    def test_save_and_load(self, tmp_path):
        dataset = sensor_dataset(6, scheme="mutex", seed=3, mutex_size=3)
        spec = KMedoidsSpec(k=2, iterations=2)
        program = build_kmedoids_program(dataset, spec)
        medoid_targets(program, 2, 6, 1)
        network = build_network(program)
        path = tmp_path / "network.json"
        save_network(network, str(path), pool=dataset.pool)

        loaded_network, loaded_pool = load_network(str(path))
        original = compile_network(network, dataset.pool)
        reloaded = compile_network(loaded_network, loaded_pool)
        for name in original.bounds:
            assert reloaded.bounds[name] == pytest.approx(original.bounds[name])

    def test_load_without_pool(self, tmp_path):
        network = build_targets({"t": var(0)})
        path = tmp_path / "net.json"
        save_network(network, str(path))
        loaded, pool = load_network(str(path))
        assert pool is None
        assert "t" in loaded.targets

    def test_updated_marginals_after_reload(self, tmp_path):
        """The motivating use-case: recompute with fresh marginals."""
        pool = make_pool([0.5])
        network = build_targets({"t": var(0)})
        path = tmp_path / "net.json"
        save_network(network, str(path), pool=pool)
        loaded, loaded_pool = load_network(str(path))
        loaded_pool.set_probability(0, 0.9)
        result = compile_network(loaded, loaded_pool)
        assert result.bounds["t"][0] == pytest.approx(0.9)
