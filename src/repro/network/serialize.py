"""JSON (de)serialisation of event networks and variable pools.

Compiled event networks are expensive to build for large inputs; this
module lets a platform deployment persist them (plus the variable pool
they are defined over) and reload them for later probability
computations — e.g. recompiling the same clustering with fresh
marginals after a sensor recalibration.

The format is a plain JSON document (schema version tagged) with one
record per node; vector payloads are stored as lists.  A network with
a loop is a ``"folded"`` document and also records its iteration count
and slot bindings.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional

import numpy as np

from ..worlds.variables import VariablePool
from .nodes import EventNetwork, InvalidNetworkError, Kind, Node, check_vector

FORMAT_VERSION = 1

_KINDS = {int(kind): kind for kind in Kind}


def _payload_to_json(kind: Kind, payload) -> Any:
    if payload is None:
        return None
    if kind is Kind.GUARD and isinstance(payload, np.ndarray):
        return {"vector": payload.tolist()}
    if kind is Kind.LOOP_IN:
        return {"slot": payload[0], "boolean": payload[1]}
    return payload


def _payload_from_json(kind: Kind, raw) -> Any:
    if raw is None:
        return None
    if kind is Kind.GUARD and isinstance(raw, dict):
        vector = np.asarray(raw["vector"], dtype=float)
        check_vector(vector)
        vector.setflags(write=False)
        return vector
    if kind is Kind.LOOP_IN:
        return (raw["slot"], raw["boolean"])
    return raw


def network_to_dict(network: EventNetwork) -> Dict[str, Any]:
    """Serialise a network (with or without a loop) to a JSON-ready dict."""
    document: Dict[str, Any] = {
        "version": FORMAT_VERSION,
        "kind": "flat" if network.iterations is None else "folded",
        "nodes": [
            {
                "k": int(node.kind),
                "c": list(node.children),
                "p": _payload_to_json(node.kind, node.payload),
            }
            for node in network.nodes
        ],
        "targets": dict(network.targets),
        "names": dict(network.names),
    }
    if network.iterations is not None:
        document["iterations"] = network.iterations
        document["slots"] = {
            name: list(binding) for name, binding in network.slots.items()
        }
    return document


def network_from_dict(document: Dict[str, Any]) -> EventNetwork:
    """Rebuild a network from its serialised form.

    Raises ``ValueError`` for a document no builder could have written:
    an unknown node kind, a child that does not precede its parent (the
    topological order every lowering assumes), a target, name or slot
    id outside the network, or a target that is not a Boolean node —
    and :class:`~repro.network.nodes.InvalidNetworkError`, as the
    builder does, for a network no evaluator can run.
    """
    version = document.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported network format version {version!r}")
    folded = document["kind"] == "folded"
    network = EventNetwork(document["iterations"] if folded else None)
    nodes = network.nodes
    loop_inputs = 0
    for node_id, record in enumerate(document["nodes"]):
        kind = _KINDS.get(record["k"])
        if kind is None:
            raise ValueError(f"node {node_id}: unknown kind {record['k']!r}")
        children = tuple(record["c"])
        if children and not (min(children) >= 0 and max(children) < node_id):
            raise ValueError(
                f"node {node_id}: children {children} must precede it"
            )
        if kind is Kind.LOOP_IN:
            if not folded:
                raise InvalidNetworkError(
                    f"node {node_id}: a loop slot in a network with no loop"
                )
            loop_inputs += 1
        nodes.append(
            Node(node_id, kind, children, _payload_from_json(kind, record["p"]))
        )
    network.names = _node_ids(document["names"], len(nodes), "name")
    network.targets = _node_ids(document["targets"], len(nodes), "target")
    for name, node_id in network.targets.items():
        if not nodes[node_id].is_boolean:
            raise ValueError(f"target {name!r} is not a Boolean node")
    if folded:
        network.slots = {
            name: tuple(binding) for name, binding in document["slots"].items()
        }
        for name, binding in network.slots.items():
            if not all(
                node_id is None or 0 <= node_id < len(nodes) for node_id in binding
            ):
                raise ValueError(f"slot {name!r} binds ids outside the network")
            loop_in = nodes[binding[0]]
            if loop_in.kind is not Kind.LOOP_IN or loop_in.payload[0] != name:
                raise InvalidNetworkError(
                    f"slot {name!r} binds no loop input of its own"
                )
        if loop_inputs != len(network.slots):
            raise InvalidNetworkError("a loop-input node is bound to no slot")
        network.check_complete()
    return network


def _node_ids(raw: Dict[str, Any], size: int, what: str) -> Dict[str, int]:
    ids = {str(name): int(node_id) for name, node_id in raw.items()}
    for name, node_id in ids.items():
        if not 0 <= node_id < size:
            raise ValueError(f"{what} {name!r} names node {node_id} of {size}")
    return ids


def pool_to_dict(pool: VariablePool) -> Dict[str, Any]:
    """Serialise a variable pool (marginals and names)."""
    return {
        "version": FORMAT_VERSION,
        "probabilities": list(pool.probabilities),
        "names": [pool.name(index) for index in pool.indices()],
    }


def pool_from_dict(document: Dict[str, Any]) -> VariablePool:
    if document.get("version") != FORMAT_VERSION:
        raise ValueError("unsupported pool format version")
    pool = VariablePool()
    for probability, name in zip(document["probabilities"], document["names"]):
        pool.add(probability, name=name)
    return pool


def canonical_json_bytes(document: Any) -> bytes:
    """Canonical byte encoding of a JSON-ready document.

    Keys are sorted and separators fixed, so two structurally equal
    documents encode to the same bytes regardless of insertion order —
    the property the service layer's content-addressed artifact cache
    (:mod:`repro.serve.cache`) relies on.  ``float`` values round-trip
    through ``repr`` (shortest-exact in CPython), so the encoding is
    stable across processes on the same platform.
    """
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def canonical_document_bytes(
    document: Dict[str, Any], network_bytes: bytes
) -> bytes:
    """:func:`canonical_json_bytes` of ``document``, given the canonical
    encoding of its ``"network"`` section.

    The network section is the bulk of a served document and its bytes
    are hashed on their own as well (the structure hash), so the
    service encodes them once and assembles the document around them:
    top-level members in sorted key order, each encoded canonically.
    """
    members = [
        canonical_json_bytes(key)
        + b":"
        + (network_bytes if key == "network" else canonical_json_bytes(value))
        for key, value in sorted(document.items())
    ]
    return b"{" + b",".join(members) + b"}"


def content_hash(document: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json_bytes`."""
    return hashlib.sha256(canonical_json_bytes(document)).hexdigest()


def network_content_hash(
    network: EventNetwork, pool: Optional[VariablePool] = None
) -> str:
    """Content hash of a network (and optionally its pool).

    Two networks (flat or folded) serialising to the same document —
    same nodes, targets, names, slot bindings, and marginals — share a
    hash; any edit (a renamed target, a changed probability) changes
    it.  This is the cache-invalidation anchor for the service layer:
    artifacts are keyed by this hash, so an edited network *cannot*
    alias a stale artifact.
    """
    document: Dict[str, Any] = {"network": network_to_dict(network)}
    if pool is not None:
        document["pool"] = pool_to_dict(pool)
    return content_hash(document)


def save_network(
    network: EventNetwork, path: str, pool: Optional[VariablePool] = None
) -> None:
    """Write a network (and optionally its pool) to a JSON file."""
    document = {"network": network_to_dict(network)}
    if pool is not None:
        document["pool"] = pool_to_dict(pool)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def load_network(path: str):
    """Load ``(network, pool_or_None)`` from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    network = network_from_dict(document["network"])
    pool = pool_from_dict(document["pool"]) if "pool" in document else None
    return network, pool
