"""Flattened intermediate representation of event networks.

An :class:`~repro.network.nodes.EventNetwork` stores nodes as Python
records.  Flattening turns the network into a handful of NumPy arrays —
kind codes, a CSR operand table, per-kind payload columns and the loop
slot columns — computed once and cached on the network.  These arrays
are the input of :func:`repro.engine.masked.masked_program`, which
lowers them into the one program every evaluator runs; they also own
the node-level variable cones the orderings read.

A network with a loop fills the record's slot columns; one without is
the case with no slots and one iteration.  Whether a network can be
lowered is decided when it is built (:mod:`repro.network`); flattening
re-checks only what a network assembled by hand could get wrong, with
the same :class:`~repro.network.nodes.InvalidNetworkError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Tuple

import numpy as np

from ..network.nodes import EventNetwork, InvalidNetworkError, Kind

# Dense operator codes for the payload columns.
ATOM_OPS: Dict[str, int] = {"<=": 0, "<": 1, ">=": 2, ">": 3, "==": 4}
DIST_METRICS: Dict[str, int] = {"euclidean": 0, "sqeuclidean": 1, "manhattan": 2}

# Kind codes whose nodes are Boolean-valued.  Shared by the masked
# program (and so by both kernels) — one classification.
BOOL_KIND_CODES = frozenset(
    int(kind)
    for kind in (
        Kind.TRUE,
        Kind.FALSE,
        Kind.VAR,
        Kind.NOT,
        Kind.AND,
        Kind.OR,
        Kind.ATOM,
    )
)


@dataclass
class FlatNetwork:
    """One event network flattened into dense arrays.

    Node ids are preserved: row ``i`` of every array describes node ``i``
    of the source network.  ``child_offsets``/``child_indices`` form a
    CSR adjacency (children of node ``i`` are
    ``child_indices[child_offsets[i]:child_offsets[i + 1]]``), already in
    topological order because the builder interns children before
    parents.

    The slot columns bind each loop-input node to its slot's *init* node
    (first iteration) and *next* node (previous iteration);
    :func:`repro.engine.masked.masked_program` unrolls the loop-dependent
    nodes ``iterations`` times — the mask ``M[t][v]`` of Section 4.2.
    """

    kinds: np.ndarray  # (N,) int16 — Kind codes
    child_offsets: np.ndarray  # (N + 1,) int64
    child_indices: np.ndarray  # (E,) int64
    var_index: np.ndarray  # (N,) int64 — pool index for VAR nodes, else -1
    atom_op: np.ndarray  # (N,) int8 — ATOM_OPS code for ATOM nodes, else -1
    pow_exponent: np.ndarray  # (N,) int64 — exponent for POW nodes, else 0
    dist_metric: np.ndarray  # (N,) int8 — DIST_METRICS code, else -1
    guard_values: Dict[int, object]  # node id -> constant (float or vector)
    iterations: int
    loop_in_ids: np.ndarray  # (S,) int64 — loop-input node per slot
    init_ids: np.ndarray  # (S,) int64 — initial-value node per slot
    next_ids: np.ndarray  # (S,) int64 — iteration-update node per slot
    loop_slot: np.ndarray  # (N,) int64 — slot index of LOOP_IN nodes, else -1
    loop_dependent: np.ndarray  # (N,) bool — value can change across iterations
    _parents: "Tuple[np.ndarray, np.ndarray] | None" = None
    _var_cones: Dict[int, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.kinds)

    def children(self, node_id: int) -> np.ndarray:
        return self.child_indices[
            self.child_offsets[node_id] : self.child_offsets[node_id + 1]
        ]

    def parents(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR parent adjacency ``(offsets, indices)`` (cached).

        Parents of node ``i`` are ``indices[offsets[i]:offsets[i + 1]]``.
        """
        if self._parents is None:
            self._parents = parents_csr(self.child_offsets, self.child_indices)
        return self._parents

    def loop_feeds(self) -> Tuple[np.ndarray, np.ndarray]:
        """The implicit loop edges ``(sources, loop inputs)``: a slot's
        init and next nodes each feed its loop-input node."""
        return (
            np.concatenate([self.init_ids, self.next_ids]),
            np.concatenate([self.loop_in_ids, self.loop_in_ids]),
        )

    def var_cone(self, var_index: int) -> np.ndarray:
        """Node ids downstream of variable ``var_index``, in topo order.

        The *cone* is the set of nodes whose value can change when the
        variable is assigned — the VAR node(s) carrying the index plus
        everything reachable upwards through the parent adjacency and
        the loop edges (:meth:`loop_feeds`).  Cached per variable: the
        masked evaluator re-sweeps this set's rows on every ``push``, and
        the cone-aware variable ordering scores each unassigned variable
        by intersecting it with the unresolved part of the mask
        (:class:`repro.compile.ordering.ConeInfluenceOrder`).
        """
        cached = self._var_cones.get(var_index)
        if cached is not None:
            return cached
        cone = _upward_closure(self, var_index)
        self._var_cones[var_index] = cone
        return cone


def parents_csr(
    child_offsets: np.ndarray, child_indices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Invert a CSR child adjacency: ``(offsets, indices)`` of the parents.

    Edges are stored grouped by parent in id order, so a stable sort by
    child lists every child's parents in id order (with multiplicity).
    """
    count = len(child_offsets) - 1
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(child_indices, minlength=count), out=offsets[1:])
    owners = np.repeat(np.arange(count, dtype=np.int64), np.diff(child_offsets))
    return offsets, owners[np.argsort(child_indices, kind="stable")]


def expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(s, s + c)`` for every ``(s, c)`` pair, concatenated."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - (ends - counts), counts) + np.arange(
        total, dtype=np.int64
    )


def _upward_closure(flat: FlatNetwork, var_index: int) -> np.ndarray:
    """Nodes reachable upwards from a variable's VAR node(s), sorted.

    The closure advances one frontier at a time, gathering the parents
    of a whole frontier with one fancy-indexed read, plus the loop inputs
    fed by any seen node (those fed earlier are seen already; ``np.isin``
    would load ``numpy.ma``).
    """
    offsets, indices = flat.parents()
    sources, successors = flat.loop_feeds()
    seen = np.zeros(len(flat.kinds), dtype=bool)
    frontier = np.flatnonzero(flat.var_index == var_index)
    while len(frontier):
        seen[frontier] = True
        starts = offsets[frontier]
        reached = indices[expand_ranges(starts, offsets[frontier + 1] - starts)]
        if len(sources):  # a folded network's loop edges
            reached = np.concatenate([reached, successors[seen[sources]]])
        fresh = np.zeros(len(seen), dtype=bool)  # dedupes the next frontier
        fresh[reached] = True
        fresh &= ~seen
        frontier = np.flatnonzero(fresh)
    return np.flatnonzero(seen)


def flatten(network: EventNetwork) -> FlatNetwork:
    """Flatten ``network`` (cached: repeated calls reuse the arrays).

    Every slot must be bound, acyclically (``check_complete``).  The
    cache is invalidated when the network grows (builders append nodes
    through the same object) or a slot is rebound (``define_slot``).
    """
    cached = getattr(network, "_flat_ir", None)
    if cached is not None and cached[0] == len(network.nodes):
        return cached[1]
    flat = _flatten_uncached(network)
    network._flat_ir = (len(network.nodes), flat)
    return flat


# The e2e benchmark harness still times a folded flatten step by this name.
flatten_folded = flatten


def _flatten_uncached(network: EventNetwork) -> FlatNetwork:
    # The kind and operand columns come from the node records in one
    # comprehension each; checks and payload columns work on whole arrays.
    nodes = network.nodes
    count = len(nodes)
    operand_lists = [node.children for node in nodes]
    kinds = np.fromiter([node.kind for node in nodes], dtype=np.int16, count=count)
    arity = np.fromiter(map(len, operand_lists), dtype=np.int64, count=count)
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(arity, out=offsets[1:])
    child_indices = np.fromiter(
        chain.from_iterable(operand_lists), dtype=np.int64, count=int(offsets[-1])
    )

    network.check_complete()
    if np.count_nonzero(kinds == int(Kind.LOOP_IN)) != len(network.slots):
        raise InvalidNetworkError("a loop-input node is bound to no slot")
    bindings = np.array(list(network.slots.values()), dtype=np.int64)
    iterations, dependent = network.iterations or 1, list(network.loop_dependent())
    loop_in_ids, init_ids, next_ids = bindings.reshape(-1, 3).T.copy()
    loop_slot = np.full(count, -1, dtype=np.int64)
    loop_slot[loop_in_ids] = np.arange(len(loop_in_ids))
    loop_dependent = np.zeros(count, dtype=bool)
    loop_dependent[dependent] = True
    owners = np.repeat(np.arange(count, dtype=np.int64), arity)
    if np.any(child_indices >= owners):
        raise InvalidNetworkError("network node order is not topological")

    def payloads(kind: Kind) -> Tuple[np.ndarray, list]:
        ids = np.flatnonzero(kinds == int(kind))
        return ids, [nodes[node_id].payload for node_id in ids.tolist()]

    var_index = np.full(count, -1, dtype=np.int64)
    atom_op = np.full(count, -1, dtype=np.int8)
    pow_exponent = np.zeros(count, dtype=np.int64)
    dist_metric = np.full(count, -1, dtype=np.int8)
    ids, values = payloads(Kind.VAR)
    var_index[ids] = values
    ids, values = payloads(Kind.ATOM)
    atom_op[ids] = [ATOM_OPS[op] for op in values]
    ids, values = payloads(Kind.POW)
    pow_exponent[ids] = values
    ids, values = payloads(Kind.DIST)
    dist_metric[ids] = [DIST_METRICS[metric] for metric in values]
    ids, values = payloads(Kind.GUARD)
    guard_values: Dict[int, object] = {
        node_id: np.asarray(value, dtype=float)
        if isinstance(value, np.ndarray)
        else float(value)
        for node_id, value in zip(ids.tolist(), values)
    }
    return FlatNetwork(
        kinds=kinds,
        child_offsets=offsets,
        child_indices=child_indices,
        var_index=var_index,
        atom_op=atom_op,
        pow_exponent=pow_exponent,
        dist_metric=dist_metric,
        guard_values=guard_values,
        iterations=iterations,
        loop_in_ids=loop_in_ids,
        init_ids=init_ids,
        next_ids=next_ids,
        loop_slot=loop_slot,
        loop_dependent=loop_dependent,
    )
