"""Unit tests for the service layer: batching, cache, catalog, CLI.

The concurrency tests drive N simultaneous HTTP clients against one
server and assert *coalescing* through the executor's instrumented
pass counter — strictly fewer engine passes than requests, and
``batched_into > 1`` on every response of a coalesced group.  The
determinism trick is a gate-able "plug" scheme registered in-process:
while its runner blocks on a `threading.Event` inside the executor
thread, the asyncio loop keeps admitting requests, which therefore
pile up in the queue and must coalesce into the next batch.
"""

from __future__ import annotations

import copy
import hashlib
import json
import threading
from contextlib import contextmanager

import pytest

from repro.compile.result import CompilationResult
from repro.core.platform import ENFrame
from repro.engine.registry import (
    register_scheme,
    run_scheme,
    unregister_scheme,
)
from repro.events.expressions import LoopCVal, atom, csum, literal
from repro.network.build import NetworkBuilder, build_targets
from repro.network.nodes import EventNetwork, Kind
from repro.network.serialize import (
    canonical_document_bytes,
    canonical_json_bytes,
    content_hash,
    network_content_hash,
    network_from_dict,
    network_to_dict,
    pool_from_dict,
    pool_to_dict,
)
from repro.serve import ArtifactCache, ServeClient, ServeClientError, ServerThread
from repro.serve.server import ReproServer

from ..conftest import make_pool, random_event

import random


def small_instance(seed: int = 7):
    """A small flat network with a handful of named targets."""
    rng = random.Random(seed)
    pool = make_pool([rng.uniform(0.1, 0.9) for _ in range(5)])
    events = {
        f"t{index}": random_event(pool, rng, depth=2) for index in range(4)
    }
    return pool, build_targets(events)


def network_document(network, pool) -> dict:
    return {"network": network_to_dict(network), "pool": pool_to_dict(pool)}


def rescaled(document: dict, factor: float = 0.5) -> dict:
    """The document with the marginal of its first variable node scaled:
    same network section, so same structure hash."""
    edited = copy.deepcopy(document)
    index = next(
        record["p"]
        for record in edited["network"]["nodes"]
        if record["k"] == Kind.VAR
    )
    marginals = edited["pool"]["probabilities"]
    marginals[index] = round(factor * marginals[index], 6)
    return edited


def direct_bounds(document: dict, scheme: str = "exact", **options) -> dict:
    """A direct ``run_scheme`` over what the server builds from a document."""
    result = run_scheme(
        scheme,
        network_from_dict(document["network"]),
        pool_from_dict(document["pool"]),
        **options,
    )
    return {name: list(bounds) for name, bounds in result.bounds.items()}


@contextmanager
def plugged_scheme(name: str = "serve-plug"):
    """Register a scheme whose runner blocks until the gate is set."""
    gate = threading.Event()
    started = threading.Event()

    def runner(network, pool, targets, options):
        names = list(targets) if targets is not None else list(network.targets)
        started.set()
        assert gate.wait(timeout=30.0), "plug never released"
        return CompilationResult(
            bounds={name: (0.5, 0.5) for name in names},
            scheme="serve-plug",
            epsilon=0.0,
        )

    register_scheme(name, runner, capabilities=(), replace=True)
    try:
        yield gate, started
    finally:
        gate.set()
        unregister_scheme(name)


@pytest.fixture()
def server():
    with ServerThread(max_batch=16, max_pending=64) as handle:
        yield handle


@pytest.fixture()
def client(server):
    return ServeClient(port=server.port)


def wait_for_pending(client, count, timeout=10.0):
    """Poll /stats until ``count`` requests are admitted and pending."""
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if client.stats()["executor"]["pending"] >= count:
            return
        time.sleep(0.005)
    raise AssertionError(f"never reached {count} pending requests")


class TestCoalescing:
    def test_identical_queries_coalesce_into_one_pass(self, server, client):
        pool, network = small_instance()
        client.put_network("net", network, pool)
        targets = sorted(network.targets)[:2]
        with plugged_scheme() as (gate, started):
            plug = threading.Thread(
                target=client.query,
                kwargs=dict(network="net", scheme="serve-plug"),
            )
            plug.start()
            assert started.wait(10.0)
            results = []
            threads = [
                threading.Thread(
                    target=lambda: results.append(
                        client.query(
                            network="net", scheme="exact", targets=targets
                        )
                    )
                )
                for _ in range(6)
            ]
            for thread in threads:
                thread.start()
            wait_for_pending(client, 7)  # plug + all six queued
            passes_before = server.server.executor.passes
            gate.set()
            for thread in threads:
                thread.join(timeout=30.0)
            plug.join(timeout=30.0)
        assert len(results) == 6
        executor = server.server.executor
        # One plugged pass + one coalesced pass for all six requests.
        assert executor.passes - passes_before == 1
        assert executor.passes < executor.requests
        direct = run_scheme("exact", network, pool, targets=targets)
        for response in results:
            assert response["extra"]["batched_into"] == 6.0
            assert response["extra"]["cache"] in ("cold", "miss")
            assert response["extra"]["queue_wait_seconds"] >= 0.0
            for name in targets:
                assert response["bounds"][name][0] == pytest.approx(
                    direct.bounds[name][0], abs=1e-9
                )

    def test_bulk_scheme_coalesces_target_union(self, server, client):
        pool, network = small_instance()
        client.put_network("net", network, pool)
        names = sorted(network.targets)
        with plugged_scheme() as (gate, started):
            plug = threading.Thread(
                target=client.query,
                kwargs=dict(network="net", scheme="serve-plug"),
            )
            plug.start()
            assert started.wait(10.0)
            results = {}

            def ask(key, target):
                results[key] = client.query(
                    network="net", scheme="naive", targets=[target]
                )

            threads = [
                threading.Thread(args=(i, name), target=ask)
                for i, name in enumerate(names[:3])
            ]
            for thread in threads:
                thread.start()
            wait_for_pending(client, 4)
            passes_before = server.server.executor.passes
            gate.set()
            for thread in threads:
                thread.join(timeout=30.0)
            plug.join(timeout=30.0)
        # Three different target sets, ONE union pass (naive is bulk).
        assert server.server.executor.passes - passes_before == 1
        for i, name in enumerate(names[:3]):
            direct = run_scheme("naive", network, pool, targets=[name])
            assert results[i]["extra"]["batched_into"] == 3.0
            assert list(results[i]["bounds"]) == [name]
            assert results[i]["bounds"][name][0] == pytest.approx(
                direct.bounds[name][0], abs=1e-9
            )

    def test_admission_control_rejects_beyond_cap(self):
        pool, network = small_instance()
        with ServerThread(max_pending=2) as server:
            client = ServeClient(port=server.port)
            client.put_network("net", network, pool)
            with plugged_scheme() as (gate, started):
                plug = threading.Thread(
                    target=client.query,
                    kwargs=dict(network="net", scheme="serve-plug"),
                )
                plug.start()
                assert started.wait(10.0)
                second = threading.Thread(
                    target=lambda: client.query(network="net", scheme="exact"),
                )
                second.start()
                wait_for_pending(client, 2)
                with pytest.raises(ServeClientError) as rejected:
                    client.query(network="net", scheme="exact")
                assert rejected.value.status == 503
                assert server.server.executor.rejected == 1
                gate.set()
                second.join(timeout=30.0)
                plug.join(timeout=30.0)


class TestCacheCoherence:
    def test_cache_states_and_exact_counters(self, server, client):
        pool, network = small_instance()
        client.put_network("net", network, pool)
        targets = sorted(network.targets)[:2]
        first = client.query(network="net", scheme="exact", targets=targets)
        # Cold: result probe missed AND the network had to materialize.
        assert first["extra"]["cache"] == "cold"
        stats = client.stats()["cache"]
        assert stats == {
            **stats,
            "hits": 0,
            "misses": 2,  # result probe + compiled probe
            "entries": 2,  # result + compiled artifacts
            "evictions": 0,
            "invalidations": 0,
        }
        second = client.query(network="net", scheme="exact", targets=targets)
        assert second["extra"]["cache"] == "hit"
        assert second["bounds"] == first["bounds"]
        stats = client.stats()["cache"]
        assert stats["hits"] == 1 and stats["misses"] == 2
        # A different target set misses the result layer but finds the
        # compiled artifact resident: "miss", not "cold".
        third = client.query(
            network="net", scheme="exact", targets=sorted(network.targets)[2:]
        )
        assert third["extra"]["cache"] == "miss"
        stats = client.stats()["cache"]
        assert stats["hits"] == 2 and stats["misses"] == 3

    def test_edit_invalidates_exactly_the_affected_hash(self, server, client):
        pool_a, network_a = small_instance(seed=1)
        pool_b, network_b = small_instance(seed=2)
        pool_c, network_c = small_instance(seed=3)
        client.put_network("a", network_a, pool_a)
        client.put_network("b", network_b, pool_b)
        client.query(network="a", scheme="exact")
        client.query(network="b", scheme="exact")
        # Edit a: its old artifacts (result + compiled) drop, b's stay.
        info = client.put_network("a", network_c, pool_c)
        assert info["replaced"] is True
        assert info["invalidated"] == 2
        assert client.stats()["cache"]["invalidations"] == 2
        assert client.query(network="b", scheme="exact")["extra"]["cache"] == "hit"
        assert client.query(network="a", scheme="exact")["extra"]["cache"] == "cold"
        # Re-registering identical content invalidates nothing.
        info = client.put_network("a", network_c, pool_c)
        assert info["invalidated"] == 0

    def test_rename_keeps_artifacts_delete_drops_them(self, server, client):
        pool, network = small_instance()
        client.put_network("orig", network, pool)
        client.query(network="orig", scheme="exact")
        renamed = client.rename_network("orig", "moved")
        assert renamed["invalidated"] == 0
        # Content-addressed artifacts survive the rename: warm hit.
        assert (
            client.query(network="moved", scheme="exact")["extra"]["cache"]
            == "hit"
        )
        with pytest.raises(ServeClientError) as missing:
            client.query(network="orig", scheme="exact")
        assert missing.value.status == 404
        dropped = client.delete_network("moved")
        assert dropped["invalidated"] == 2
        assert client.stats()["cache"]["entries"] == 0

    def test_delete_keeps_artifacts_shared_by_an_alias(self, server, client):
        pool, network = small_instance()
        client.put_network("one", network, pool)
        client.put_network("two", network, pool)  # same content hash
        client.query(network="one", scheme="exact")
        assert client.delete_network("one")["invalidated"] == 0
        assert (
            client.query(network="two", scheme="exact")["extra"]["cache"]
            == "hit"
        )

    def test_tiny_byte_cap_evicts_but_stays_correct(self):
        pool, network = small_instance()
        with ServerThread(cache_bytes=1) as server:
            client = ServeClient(port=server.port)
            client.put_network("net", network, pool)
            first = client.query(network="net", scheme="exact")
            again = client.query(network="net", scheme="exact")
            assert again["bounds"] == first["bounds"]
            stats = client.stats()["cache"]
            assert stats["evictions"] > 0
            assert stats["bytes"] <= max(
                artifact.nbytes
                for artifact in server.server.cache._entries.values()
            )


class TestStructureKeyedCache:
    """The compiled network is keyed by the network section alone; results
    by the whole document."""

    @staticmethod
    def document() -> dict:
        pool, network = small_instance()
        return network_document(network, pool)

    def test_marginal_only_edit_drops_results_keeps_network(self, client):
        document = self.document()
        edited = rescaled(document)
        client.put_network_document("net", document)
        targets = sorted(document["network"]["targets"])
        assert client.query(network="net", scheme="exact")["extra"]["cache"] == "cold"
        client.query(network="net", scheme="exact", targets=targets[:2])
        info = client.put_network_document("net", edited)
        assert info["invalidated"] == 2  # the two results, not the network
        stats = client.stats()["cache"]
        assert stats["entries"] == stats["compiled_entries"] == 1
        after = client.query(network="net", scheme="exact")
        assert after["extra"]["cache"] == "miss"
        assert after["bounds"] == direct_bounds(edited)
        assert after["bounds"] != direct_bounds(document)

    def test_names_share_a_structure_under_their_own_pools(self, client):
        document = self.document()
        edited = rescaled(document)
        client.put_network_document("a", document)
        client.put_network_document("b", edited)
        first = client.query(network="a", scheme="exact")
        second = client.query(network="b", scheme="exact")
        assert first["extra"]["cache"] == "cold"
        assert second["extra"]["cache"] == "miss"
        assert first["bounds"] == direct_bounds(document)
        assert second["bounds"] == direct_bounds(edited)
        assert client.delete_network("a")["invalidated"] == 1
        targets = sorted(document["network"]["targets"])[:2]
        subset = client.query(network="b", scheme="exact", targets=targets)
        assert subset["extra"]["cache"] == "miss"
        assert client.delete_network("b")["invalidated"] == 3
        assert client.stats()["cache"]["entries"] == 0

    def test_evicted_structure_rematerialises_from_catalog_bytes(self):
        document = self.document()
        targets = sorted(document["network"]["targets"])
        with ServerThread(cache_bytes=1) as server:
            client = ServeClient(port=server.port)
            client.put_network_document("net", document)
            for subset in (targets[:2], targets[2:]):
                # Each result evicts the compiled network stored before it.
                answer = client.query(network="net", scheme="exact", targets=subset)
                assert answer["extra"]["cache"] == "cold"
                expected = direct_bounds(document, targets=subset)
                assert answer["bounds"] == expected
            assert client.stats()["cache"]["evictions"] >= 2

    def test_query_admitted_before_a_pool_edit_keeps_its_pool(self, client):
        document = self.document()
        edited = rescaled(document)
        client.put_network_document("net", document)
        answers = {}
        with plugged_scheme() as (gate, started):
            plug = threading.Thread(
                target=client.query,
                kwargs=dict(network="net", scheme="serve-plug"),
            )
            plug.start()
            assert started.wait(10.0)
            queued = threading.Thread(
                target=lambda: answers.update(
                    client.query(network="net", scheme="exact")
                )
            )
            queued.start()
            wait_for_pending(client, 2)
            client.put_network_document("net", edited)
            gate.set()
            queued.join(timeout=30.0)
            plug.join(timeout=30.0)
        assert not queued.is_alive() and not plug.is_alive()
        assert answers["bounds"] == direct_bounds(document)
        after = client.query(network="net", scheme="exact")
        assert after["bounds"] == direct_bounds(edited)

    def test_pass_outliving_an_edit_leaves_no_orphaned_artifacts(self, client):
        # Both queries are admitted against a cold network before an edit
        # that changes the structure: neither pass may store its result
        # or its compiled network under a hash the edit dropped.
        document = self.document()
        pool, network = small_instance(seed=8)
        edited = network_document(network, pool)
        old_hash = client.put_network_document("net", document)["hash"]
        old_structure = hashlib.sha256(
            canonical_json_bytes(document["network"])
        ).hexdigest()
        with plugged_scheme() as (gate, started):
            plug = threading.Thread(
                target=client.query,
                kwargs=dict(network="net", scheme="serve-plug"),
            )
            plug.start()
            assert started.wait(10.0)
            queued = threading.Thread(
                target=client.query, kwargs=dict(network="net", scheme="exact")
            )
            queued.start()
            wait_for_pending(client, 2)
            client.put_network_document("net", edited)
            gate.set()
            queued.join(timeout=30.0)
            plug.join(timeout=30.0)
        assert not queued.is_alive() and not plug.is_alive()
        stats = client.stats()
        assert stats["executor"]["passes"] == 2
        assert old_hash not in stats["cache"]["by_hash"]
        assert old_structure not in stats["cache"]["by_hash"]
        assert stats["cache"]["entries"] == 0


class TestArtifactCacheUnit:
    def test_lru_evicts_in_recency_order_with_exact_counters(self):
        cache = ArtifactCache(max_bytes=250)
        cache.store("k1", "result", "a", "h1", nbytes=100)
        cache.store("k2", "result", "b", "h1", nbytes=100)
        assert cache.lookup("k1").payload == "a"  # k1 now most recent
        cache.store("k3", "result", "c", "h2", nbytes=100)
        assert cache.evictions == 1
        assert cache.lookup("k2") is None  # k2 was least recent
        assert cache.lookup("k1") is not None
        assert cache.lookup("k3") is not None
        assert cache.total_bytes == 200
        assert cache.stats()["entries"] == 2
        assert cache.hits == 3 and cache.misses == 1

    def test_store_replacement_reaccounts_bytes(self):
        cache = ArtifactCache(max_bytes=1000)
        cache.store("k", "result", "a", "h", nbytes=400)
        cache.store("k", "result", "b", "h", nbytes=100)
        assert cache.total_bytes == 100
        assert cache.evictions == 0

    def test_oversized_artifact_survives_alone(self):
        cache = ArtifactCache(max_bytes=10)
        cache.store("big", "result", "x", "h", nbytes=500)
        assert cache.lookup("big") is not None
        cache.store("big2", "result", "y", "h", nbytes=600)
        assert cache.lookup("big") is None
        assert cache.evictions == 1

    def test_drop_network_is_tag_exact(self):
        cache = ArtifactCache()
        cache.store("k1", "result", "a", "h1", nbytes=10)
        cache.store("k2", "compiled", "b", "h1", nbytes=10)
        cache.store("k3", "result", "c", "h2", nbytes=10)
        assert cache.drop_network("h1") == 2
        assert cache.invalidations == 2
        assert cache.lookup("k3") is not None
        assert cache.drop_network("h1") == 0

    def test_result_is_charged_its_json_length(self):
        payload = {"bounds": {"t": [0.25, 0.5]}, "extra": {"tier": "native"}}
        artifact = ArtifactCache().store("k", "result", payload, "h")
        assert artifact.nbytes == len(json.dumps(payload))

    def test_rename_hook_invalidates_nothing(self):
        cache = ArtifactCache()
        cache.store("k", "result", "a", "h", nbytes=10)
        assert cache.rename_network("old", "new") == 0
        assert cache.invalidations == 0
        assert cache.lookup("k") is not None


class TestValidation:
    def test_unknown_network_is_404(self, client):
        with pytest.raises(ServeClientError) as err:
            client.query(network="ghost", scheme="exact")
        assert err.value.status == 404

    def test_unknown_scheme_and_targets_are_400(self, client):
        pool, network = small_instance()
        client.put_network("net", network, pool)
        for payload in (
            dict(scheme="magic"),
            dict(scheme="exact", targets=["nope"]),
            dict(scheme="exact", targets=[]),
            dict(scheme="exact", kernel="warp-drive"),
            dict(scheme="exact", execution="socket"),
            dict(scheme="exact", execution="threads"),
            dict(scheme="exact", ordering=1.5),
        ):
            with pytest.raises(ServeClientError) as err:
                client.query(network="net", **payload)
            assert err.value.status == 400, payload

    @pytest.mark.parametrize(
        "payload",
        [
            dict(scheme="exact", workers=2, job_size="bad"),
            dict(scheme="exact", workers=2, job_size=0),
            dict(scheme="exact", workers=2, job_size=True),
            dict(scheme="exact", workers=2, job_size="adaptive"),
            dict(scheme="exact", workers=0),
            dict(scheme="exact", workers="two"),
            dict(scheme="exact", workers=2.5),
            dict(scheme="exact", workers=True),
            dict(scheme="exact", workers=2, timeout="x"),
            dict(scheme="naive", timeout="x"),
            dict(scheme="montecarlo", samples=0),
            dict(scheme="montecarlo", confidence=1.5),
            dict(scheme="hybrid", epsilon=-1),
        ],
        ids=lambda payload: "-".join(f"{k}={v}" for k, v in payload.items()),
    )
    def test_out_of_range_options_are_400(self, client, payload):
        # Each is refused before a pass runs, and the server carries on.
        pool, network = small_instance()
        client.put_network("net", network, pool)
        with pytest.raises(ServeClientError) as err:
            client.query(network="net", **payload)
        assert err.value.status == 400, payload
        assert client.query(network="net", scheme="exact")["bounds"]

    def test_malformed_documents_rejected(self, client):
        with pytest.raises(ServeClientError) as err:
            client.put_network_document("net", {"network": {"bogus": 1}})
        assert err.value.status == 400
        with pytest.raises(ServeClientError) as err:
            client.put_network_document("bad~name", {})
        assert err.value.status == 400

    @pytest.mark.parametrize(
        "case",
        [
            "network-not-an-object",
            "pool-not-an-object",
            "unknown-kind",
            "child-not-before-parent",
            "negative-child",
            "target-out-of-range",
            "name-out-of-range",
            "non-boolean-target",
            "loop-input-without-a-loop",
            "cyclic-slot-inits",
            "vector-guard-not-1d",
        ],
    )
    def test_malformed_network_sections_are_400(self, client, case):
        pool, network = small_instance()
        document = network_document(network, pool)
        section = document["network"]
        nodes = section["nodes"]
        if case == "network-not-an-object":
            document["network"] = [section]
        elif case == "pool-not-an-object":
            document["pool"] = list(document["pool"]["probabilities"])
        elif case == "unknown-kind":
            nodes[0]["k"] = 99
        elif case == "child-not-before-parent":
            nodes[-1]["c"] = [len(nodes) - 1]
        elif case == "negative-child":
            nodes[-1]["c"] = [-1]
        elif case == "target-out-of-range":
            section["targets"]["t0"] = len(nodes)
        elif case == "name-out-of-range":
            section["names"]["ghost"] = len(nodes)
        elif case == "loop-input-without-a-loop":
            loop_in = {"slot": "S", "boolean": True}
            nodes.append({"k": int(Kind.LOOP_IN), "c": [], "p": loop_in})
        elif case == "cyclic-slot-inits":
            builder = NetworkBuilder(EventNetwork(iterations=2))
            slot_a, slot_b = LoopCVal("A"), LoopCVal("B")
            builder.add_target("t", atom(">=", slot_a, literal(1.0)))
            one = literal(1.0)
            builder.define_slot("A", init=csum([slot_b, one]), next_value=slot_a)
            builder.define_slot("B", init=csum([slot_a, one]), next_value=slot_b)
            document["network"] = network_to_dict(builder.network)
        elif case == "vector-guard-not-1d":
            nodes.append(
                {
                    "k": int(Kind.GUARD),
                    "c": [section["targets"]["t0"]],
                    "p": {"vector": [[1.0, 2.0], [3.0, 4.0]]},
                }
            )
        else:
            nodes.append({"k": int(Kind.SUM), "c": [], "p": None})
            section["targets"]["t0"] = len(nodes) - 1
        with pytest.raises(ServeClientError) as err:
            client.put_network_document("net", document)
        assert err.value.status == 400
        assert client.stats()["networks"] == {}

    def test_rename_collision_is_409(self, client):
        pool, network = small_instance()
        client.put_network("one", network, pool)
        client.put_network("two", network, pool)
        with pytest.raises(ServeClientError) as err:
            client.rename_network("one", "two")
        assert err.value.status == 409

    def test_unknown_route_and_bad_json(self, server, client):
        status, _ = client.raw_request("GET", "/nowhere")
        assert status == 404
        import http.client as http_client

        connection = http_client.HTTPConnection(
            "127.0.0.1", server.port, timeout=10
        )
        connection.request(
            "POST", "/query", body=b"{not json", headers={"Content-Length": "9"}
        )
        assert connection.getresponse().status == 400
        connection.close()

    def test_schemes_endpoint_lists_registry(self, client):
        from repro.engine.registry import available_schemes

        schemes = client.schemes()
        assert sorted(schemes) == sorted(available_schemes())
        assert "bulk" in schemes["naive"]


class TestNormalisedCacheKeys:
    def test_irrelevant_options_share_one_entry(self, server, client):
        """exact has no epsilon/statistical caps: eps and seed collapse."""
        pool, network = small_instance()
        client.put_network("net", network, pool)
        cold = client.query(network="net", scheme="exact", epsilon=0.3, seed=9)
        warm = client.query(network="net", scheme="exact", epsilon=0.7, seed=2)
        assert cold["extra"]["cache"] == "cold"
        assert warm["extra"]["cache"] == "hit"
        # But a statistical scheme keys on its seed.
        mc_a = client.query(network="net", scheme="montecarlo", seed=1,
                            samples=64)
        mc_b = client.query(network="net", scheme="montecarlo", seed=2,
                            samples=64)
        assert mc_a["extra"]["cache"] == "miss"
        assert mc_b["extra"]["cache"] == "miss"


class TestConditioningEndpoints:
    def test_every_envelope_carries_protocol_version(self, client):
        from repro.serve.protocol import PROTOCOL_VERSION

        assert client.healthz()["protocol_version"] == PROTOCOL_VERSION
        assert client.stats()["protocol_version"] == PROTOCOL_VERSION
        # Error envelopes too — protocol_version is injected at the
        # single serialisation point, not per-handler.
        status, document = client.raw_request(
            "POST", "/query", {"network": "ghost"}
        )
        assert status == 404
        assert document["protocol_version"] == PROTOCOL_VERSION
        status, document = client.raw_request("GET", "/nowhere")
        assert status == 404
        assert document["protocol_version"] == PROTOCOL_VERSION

    def test_condition_matches_direct_scheme(self, client):
        pool, network = small_instance()
        client.put_network("net", network, pool)
        target = sorted(network.targets)[0]
        response = client.condition(
            "net", evidence=[["var", 0, True]], targets=[target]
        )
        assert response["scheme"] == "exact-cond"
        direct = run_scheme(
            "exact-cond", network, pool, targets=[target],
            evidence=[("var", 0, True)],
        )
        assert response["bounds"][target][0] == pytest.approx(
            direct.bounds[target][0], abs=1e-9
        )
        assert response["bounds"][target][1] == pytest.approx(
            direct.bounds[target][1], abs=1e-9
        )

    def test_condition_requires_evidence_and_a_capable_scheme(self, client):
        pool, network = small_instance()
        client.put_network("net", network, pool)
        with pytest.raises(ServeClientError) as err:
            client.condition("net")
        assert err.value.status == 400
        with pytest.raises(ServeClientError) as err:
            client.condition("net", scheme="exact", evidence=[["var", 0, True]])
        assert err.value.status == 400
        assert "exact-cond" in err.value.message

    def test_sticky_evidence_merges_and_clears(self, client):
        pool, network = small_instance()
        client.put_network("net", network, pool)
        target = sorted(network.targets)[0]
        stored = client.put_evidence("net", [["var", 1, False]])
        assert stored["evidence"] == [["var", 1, False]]
        merged = client.condition(
            "net", evidence=[["var", 0, True]], targets=[target]
        )
        direct = run_scheme(
            "exact-cond", network, pool, targets=[target],
            evidence=[("var", 0, True), ("var", 1, False)],
        )
        assert merged["bounds"][target][0] == pytest.approx(
            direct.bounds[target][0], abs=1e-9
        )
        # Sticky evidence conflicting with the request is a 400, not a
        # silent override.
        with pytest.raises(ServeClientError) as err:
            client.condition("net", evidence=[["var", 1, True]])
        assert err.value.status == 400
        assert client.delete_evidence("net")["cleared"] == 1
        with pytest.raises(ServeClientError) as err:
            client.condition("net", targets=[target])
        assert err.value.status == 400

    def test_evidence_validation_and_routes(self, client):
        pool, network = small_instance()
        client.put_network("net", network, pool)
        for bad in ([["var", 99, True]], [["event", "ghost"]], []):
            with pytest.raises(ServeClientError) as err:
                client.put_evidence("net", bad)
            assert err.value.status == 400, bad
        with pytest.raises(ServeClientError) as err:
            client.put_evidence("ghost", [["var", 0, True]])
        assert err.value.status == 404
        status, _ = client.raw_request(
            "POST", "/networks/net/evidence", {"evidence": []}
        )
        assert status == 405

    def test_reregistration_resets_sticky_evidence(self, client):
        pool, network = small_instance()
        client.put_network("net", network, pool)
        client.put_evidence("net", [["var", 0, True]])
        client.put_network("net", network, pool)
        with pytest.raises(ServeClientError) as err:
            client.condition("net")
        assert err.value.status == 400

    def test_evidence_fragments_the_cache_only_when_it_matters(self, client):
        pool, network = small_instance()
        client.put_network("net", network, pool)
        target = sorted(network.targets)[0]
        first = client.query(
            network="net", scheme="exact-cond",
            evidence=[["var", 0, True]], targets=[target],
        )
        same = client.query(
            network="net", scheme="exact-cond",
            evidence=[["var", 0, True]], targets=[target],
        )
        flipped = client.query(
            network="net", scheme="exact-cond",
            evidence=[["var", 0, False]], targets=[target],
        )
        assert first["extra"]["cache"] == "cold"
        assert same["extra"]["cache"] == "hit"
        assert flipped["extra"]["cache"] != "hit"
        # exact has no evidence capability: the option normalises away
        # and must NOT fragment the key.
        plain = client.query(network="net", scheme="exact", targets=[target])
        decorated = client.query(
            network="net", scheme="exact",
            evidence=[["var", 0, True]], targets=[target],
        )
        assert plain["extra"]["cache"] in ("cold", "miss")
        assert decorated["extra"]["cache"] == "hit"

    def test_sticky_evidence_is_part_of_the_cache_key(self, client):
        pool, network = small_instance()
        client.put_network("net", network, pool)
        target = sorted(network.targets)[0]
        request_keyed = client.query(
            network="net", scheme="exact-cond",
            evidence=[["var", 0, True]], targets=[target],
        )
        client.put_evidence("net", [["var", 0, True]])
        sticky_keyed = client.query(
            network="net", scheme="exact-cond", targets=[target]
        )
        # Same canonical evidence, whether sticky or per-request.
        assert request_keyed["extra"]["cache"] in ("cold", "miss")
        assert sticky_keyed["extra"]["cache"] == "hit"


class TestFacadeAndHashing:
    def test_from_network_matches_registry(self):
        pool, network = small_instance()
        direct = run_scheme("exact", network, pool)
        facade = ENFrame.from_network(network, pool).run(scheme="exact")
        for name in network.targets:
            assert facade.probability(name) == pytest.approx(
                0.5 * sum(direct.bounds[name]), abs=1e-12
            )
        with pytest.raises(ValueError):
            ENFrame.from_network(network, pool, targets=["ghost"])

    def test_content_hash_is_content_addressed(self):
        pool_a, network_a = small_instance(seed=5)
        pool_b, network_b = small_instance(seed=5)
        pool_c, network_c = small_instance(seed=6)
        assert network_content_hash(network_a, pool_a) == network_content_hash(
            network_b, pool_b
        )
        assert network_content_hash(network_a, pool_a) != network_content_hash(
            network_c, pool_c
        )


    @pytest.mark.parametrize(
        "extra",
        [{}, {"aaa": [1, 2.5, None], "other": {"b": "é", "a": 1}, "zzz": True}],
    )
    def test_assembled_document_bytes_are_canonical(self, extra):
        pool, network = small_instance()
        document = {**network_document(network, pool), **extra}
        network_bytes = canonical_json_bytes(document["network"])
        assembled = canonical_document_bytes(document, network_bytes)
        assert assembled == canonical_json_bytes(document)
        info = ReproServer(port=0).put_network("demo", document)
        assert info["hash"] == content_hash(document)


class TestServeCLIParsing:
    def test_serve_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--max-batch", "8",
             "--cache-bytes", "4m", "--network", "demo=/tmp/net.json"]
        )
        assert args.port == 0
        assert args.max_batch == 8
        assert args.cache_bytes == 4 << 20
        assert args.network == [("demo", "/tmp/net.json")]

    def test_bad_cache_bytes_and_network_specs_rejected(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--cache-bytes", "lots"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--network", "nopath"])

    def test_serve_roundtrip_via_cli_entrypoint(self, tmp_path):
        """The handler itself, driven in a thread with port 0."""
        import repro.cli as cli
        from repro.network.serialize import save_network

        pool, network = small_instance()
        path = tmp_path / "net.json"
        save_network(network, str(path), pool)
        # Run the server on a private port via the module API (the CLI
        # handler blocks, so drive ReproServer directly for the
        # round-trip and keep the CLI handler covered by parsing plus
        # the CI smoke job).
        document = json.loads(path.read_text())
        server = ReproServer(port=0)
        info = server.put_network("demo", document)
        assert info["hash"] == network_content_hash(network, pool)
        assert cli is not None
