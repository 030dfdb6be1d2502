"""Unit tests for network/pool serialisation."""

import hashlib

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
    canonical_json_bytes,
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


def _front_end_networks():
    """One network per front end, plus folded k-medoids."""
    import random

    from repro import ENFrame, MCLSpec
    from repro.correlations.schemes import make_lineage
    from repro.mining.kmeans import KMeansSpec
    from repro.mining.markov import build_mcl_program, stochastic_graph
    from repro.mining.programs import KMEDOIDS_SOURCE

    def platform():
        return ENFrame.from_sensor_data(
            6, scheme="mutex", group_size=2, mutex_size=2, seed=3
        )

    spec = KMedoidsSpec(k=2, iterations=2)
    lineage = make_lineage("independent", 6, random.Random(1), group_size=1)
    mcl = build_mcl_program(
        stochastic_graph(6, random.Random(7)),
        lineage.events,
        MCLSpec(inflation=2, iterations=2),
    )
    return {
        "kmedoids": platform().kmedoids(spec).network,
        "kmedoids-folded": platform().kmedoids(spec, folded=True).network,
        "kmeans": platform().kmeans(KMeansSpec(k=2, iterations=2)).network,
        "cooccurrence": platform()
        .kmedoids(spec)
        .cooccurrence([(0, 1), (2, 3)])
        .network,
        "user-program": platform()
        .user_program(KMEDOIDS_SOURCE, (2, 2), [0, 1], [("Centre", (0, 1))])
        .network,
        "mcl": build_network(mcl),
    }


class TestDocumentPins:
    """SHA-256 of every front end's canonical network document, taken
    while a network with a loop was still its own class.  A document's
    bytes are its served hash, so a change here re-keys every cache."""

    PINS = {
        "kmedoids": "109b927cf71c318811cd9d490dbc58a5bf952f309a8ef38062a58e3eeeab8dc6",
        "kmedoids-folded": (
            "3562ce809e3c109fa4bd4f9a3180364f8299ddd04aad90e7eb309c66ed1e52a8"
        ),
        "kmeans": "4554e7434f28bda66c42b60d455f41170c1f82beab477081c1fdc0bf6a3147f4",
        "cooccurrence": (
            "0654b12734a1e2e803808c4d0e00345667ff214a22abbcab7f02d6631312d65e"
        ),
        "user-program": (
            "16fbb110cf14503d1e9337d0e9cf5a1ed618782d08f4a797807871aed844fb6b"
        ),
        "mcl": "33f7782bf38e69601e32f77e1ab889ef02462dda583a4c127c8bcf4208b7df2f",
    }

    def test_documents_are_byte_identical(self):
        digests = {
            name: hashlib.sha256(
                canonical_json_bytes(network_to_dict(network))
            ).hexdigest()
            for name, network in _front_end_networks().items()
        }
        assert digests == self.PINS

    def test_round_trip_keeps_the_bytes(self):
        for network in _front_end_networks().values():
            document = network_to_dict(network)
            again = network_to_dict(network_from_dict(document))
            assert canonical_json_bytes(again) == canonical_json_bytes(document)


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
