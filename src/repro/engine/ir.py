"""Flattened intermediate representation of event networks.

An :class:`~repro.network.nodes.EventNetwork` stores nodes as Python
records; every evaluator that walks them pays interpreter overhead per
node *per world*.  Flattening turns the network into a handful of NumPy
arrays — kind codes, a CSR operand table, and per-kind payload columns —
computed once and cached on the network, so bulk evaluators can sweep
the whole DAG in topological order with one vectorized operation per
node regardless of how many worlds are being evaluated.

Folded networks (:class:`~repro.network.folded.FoldedNetwork`) carry
loop-input slots whose meaning changes per iteration, so they have no
*static* flat form (:func:`flatten` raises
:class:`UnsupportedNetworkError` on them).  They flatten through
:func:`flatten_folded` instead, which produces a :class:`FoldedFlatIR`:
loop-input nodes become state columns, the loop-independent prefix is
scheduled once, and the loop-dependent layer is scheduled for one sweep
per iteration with slot state carried via the init/next node bindings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..network.folded import FoldedNetwork
from ..network.nodes import EventNetwork, Kind

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


class UnsupportedNetworkError(TypeError):
    """The network has no static flat form (e.g. folded loop inputs)."""


@dataclass
class FlatNetwork:
    """One event network flattened into dense arrays.

    Node ids are preserved: row ``i`` of every array describes node ``i``
    of the source network.  ``child_offsets``/``child_indices`` form a
    CSR adjacency (children of node ``i`` are
    ``child_indices[child_offsets[i]:child_offsets[i + 1]]``), already in
    topological order because the builder interns children before
    parents.
    """

    kinds: np.ndarray  # (N,) int16 — Kind codes
    child_offsets: np.ndarray  # (N + 1,) int64
    child_indices: np.ndarray  # (E,) int64
    var_index: np.ndarray  # (N,) int64 — pool index for VAR nodes, else -1
    atom_op: np.ndarray  # (N,) int8 — ATOM_OPS code for ATOM nodes, else -1
    pow_exponent: np.ndarray  # (N,) int64 — exponent for POW nodes, else 0
    dist_metric: np.ndarray  # (N,) int8 — DIST_METRICS code, else -1
    guard_values: Dict[int, object]  # node id -> constant (float or vector)
    targets: Dict[str, int]
    _schedules: Dict[Tuple[int, ...], np.ndarray] = field(default_factory=dict)
    _use_counts: Dict[bytes, np.ndarray] = field(default_factory=dict)
    _parents: "Tuple[np.ndarray, np.ndarray] | None" = None
    _var_cones: Dict[int, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.kinds)

    def children(self, node_id: int) -> np.ndarray:
        return self.child_indices[
            self.child_offsets[node_id] : self.child_offsets[node_id + 1]
        ]

    def schedule(self, roots: Sequence[int]) -> np.ndarray:
        """Node ids reachable from ``roots``, in evaluation order.

        Node ids are already topological (children precede parents), so
        the schedule is the sorted reachable set.  Cached per root set —
        repeated bulk runs over the same targets pay for reachability
        once.
        """
        key = tuple(sorted(set(int(r) for r in roots)))
        cached = self._schedules.get(key)
        if cached is not None:
            return cached
        seen = np.zeros(len(self.kinds), dtype=bool)
        stack = list(key)
        while stack:
            node_id = stack.pop()
            if seen[node_id]:
                continue
            seen[node_id] = True
            stack.extend(int(c) for c in self.children(node_id))
        order = np.flatnonzero(seen)
        self._schedules[key] = order
        return order

    def parents(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR parent adjacency ``(offsets, indices)`` (cached).

        Parents of node ``i`` are ``indices[offsets[i]:offsets[i + 1]]``.
        """
        if self._parents is None:
            self._parents = parents_csr(self.child_offsets, self.child_indices)
        return self._parents

    def var_cone(self, var_index: int) -> np.ndarray:
        """Node ids downstream of variable ``var_index``, in topo order.

        The *cone* is the set of nodes whose value can change when the
        variable is assigned — the VAR node(s) carrying the index plus
        everything reachable upwards through the parent adjacency.
        Cached per variable: the masked evaluator re-sweeps exactly this
        suffix of the topological order on every ``push``, and the
        cone-aware variable ordering scores each unassigned variable by
        intersecting this set with the unresolved part of the mask
        (:class:`repro.compile.ordering.ConeInfluenceOrder`).
        """
        cached = self._var_cones.get(var_index)
        if cached is not None:
            return cached
        cone = _upward_closure(self, var_index)
        self._var_cones[var_index] = cone
        return cone

    def use_counts(self, order: np.ndarray) -> np.ndarray:
        """How many scheduled parents consume each node (for freeing).

        Cached per schedule (evaluators decrement the counts in place,
        so a fresh copy is returned each call).
        """
        key = order.tobytes()
        counts = self._use_counts.get(key)
        if counts is None:
            counts = np.zeros(len(self.kinds), dtype=np.int64)
            for node_id in order:
                for child in self.children(int(node_id)):
                    counts[child] += 1
            self._use_counts[key] = counts
        return counts.copy()


@dataclass
class FoldedFlatIR:
    """A folded network flattened for iteration-swept bulk evaluation.

    ``flat`` holds the whole template as a :class:`FlatNetwork` (loop
    inputs included); the extra columns bind each loop-input node to its
    slot.  Evaluators run the loop-independent *prefix* once, then sweep
    the loop-dependent *layer* ``iterations`` times, feeding each slot's
    loop-input node the value its *next* node produced in the previous
    sweep (its *init* node's value for the first sweep) — the matrix form
    of the per-iteration mask ``M[t][v]`` of Section 4.2.
    """

    flat: FlatNetwork
    iterations: int
    slot_names: Tuple[str, ...]
    loop_in_ids: np.ndarray  # (S,) int64 — loop-input node per slot
    init_ids: np.ndarray  # (S,) int64 — initial-value node per slot
    next_ids: np.ndarray  # (S,) int64 — iteration-update node per slot
    loop_slot: np.ndarray  # (N,) int64 — slot index of LOOP_IN nodes, else -1
    loop_dependent: np.ndarray  # (N,) bool — value can change across iterations
    # True when some slot is initialised from a loop-dependent node (a
    # cross-slot init chain): the first iteration then needs the
    # demand-driven evaluation order of the scalar evaluator instead of
    # the plain topological layer sweep.
    has_loop_dependent_init: bool = False
    _splits: Dict[Tuple[int, ...], Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )
    _var_cones: Dict[int, np.ndarray] = field(default_factory=dict)

    def var_cone(self, var_index: int) -> np.ndarray:
        """Node ids affected by variable ``var_index``, in topo order.

        Like :meth:`FlatNetwork.var_cone`, but the closure also follows
        the implicit loop edges: when a slot's *init* or *next* node is
        in the cone, the slot's loop-input node (and hence its own
        parents) joins it too.
        """
        cached = self._var_cones.get(var_index)
        if cached is not None:
            return cached
        # Which loop inputs does each node feed (as an init/next node)?
        feeds = (
            np.concatenate([self.init_ids, self.next_ids]),
            np.concatenate([self.loop_in_ids, self.loop_in_ids]),
        )
        cone = _upward_closure(self.flat, var_index, extra_edges=feeds)
        self._var_cones[var_index] = cone
        return cone

    def split(self, roots: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """``(prefix, layer)`` schedules for evaluating ``roots``.

        Reachability follows the implicit loop edges (a loop input needs
        its slot's init and next nodes); both schedules are in node-id
        (topological) order.  Cached per root set.
        """
        key = tuple(sorted(set(int(r) for r in roots)))
        cached = self._splits.get(key)
        if cached is not None:
            return cached
        seen = np.zeros(len(self.flat), dtype=bool)
        stack = list(key)
        while stack:
            node_id = stack.pop()
            if seen[node_id]:
                continue
            seen[node_id] = True
            stack.extend(int(c) for c in self.flat.children(node_id))
            slot = int(self.loop_slot[node_id])
            if slot >= 0:
                stack.append(int(self.init_ids[slot]))
                stack.append(int(self.next_ids[slot]))
        reachable = np.flatnonzero(seen)
        dependent = self.loop_dependent[reachable]
        prefix_layer = (reachable[~dependent], reachable[dependent])
        self._splits[key] = prefix_layer
        return prefix_layer


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


def _upward_closure(
    flat: FlatNetwork,
    var_index: int,
    extra_edges: "Tuple[np.ndarray, np.ndarray] | None" = None,
) -> np.ndarray:
    """Nodes reachable upwards from a variable's VAR node(s), sorted.

    ``extra_edges`` adds implicit ``(source, successor)`` edges (the
    folded IR's init/next → loop-input edges) on top of the CSR parent
    adjacency.  The closure advances one frontier at a time, gathering
    the parents of a whole frontier with one fancy-indexed read.
    """
    offsets, indices = flat.parents()
    seen = np.zeros(len(flat.kinds), dtype=bool)
    frontier = np.flatnonzero(flat.var_index == var_index)
    while len(frontier):
        seen[frontier] = True
        starts = offsets[frontier]
        reached = indices[expand_ranges(starts, offsets[frontier + 1] - starts)]
        if extra_edges is not None:
            sources, successors = extra_edges
            reached = np.concatenate(
                [reached, successors[np.isin(sources, frontier)]]
            )
        fresh = np.zeros(len(seen), dtype=bool)  # dedupes the next frontier
        fresh[reached] = True
        fresh &= ~seen
        frontier = np.flatnonzero(fresh)
    return np.flatnonzero(seen)


def supports_bulk(network: EventNetwork) -> bool:
    """Can this network be flattened for bulk evaluation?

    ``ValueError`` covers incomplete folded networks (unbound slots),
    which are no more evaluable than networks without a flat form.
    """
    try:
        if isinstance(network, FoldedNetwork):
            flatten_folded(network)
        else:
            flatten(network)
    except (UnsupportedNetworkError, ValueError):
        return False
    return True


def flatten(network: EventNetwork) -> FlatNetwork:
    """Flatten ``network`` (cached: repeated calls reuse the arrays).

    The cache is invalidated when the network grows (builders append
    nodes through the same object).
    """
    cached = getattr(network, "_flat_ir", None)
    if cached is not None and cached[0] == len(network.nodes):
        return cached[1]
    flat = _flatten_uncached(network)
    try:
        network._flat_ir = (len(network.nodes), flat)
    except AttributeError:  # pragma: no cover - exotic network subclasses
        pass
    return flat


def flatten_folded(network: FoldedNetwork) -> FoldedFlatIR:
    """Flatten a folded network (cached like :func:`flatten`).

    Requires every slot to be bound (``check_complete``).  The cache is
    invalidated when the network grows *or* when a slot is rebound
    (``define_slot`` clears it).
    """
    cached = getattr(network, "_folded_flat_ir", None)
    if cached is not None and cached[0] == len(network.nodes):
        return cached[1]
    network.check_complete()
    flat = _flatten_uncached(network, allow_loop_inputs=True)

    slot_names = tuple(network.slots)
    loop_in_ids = np.empty(len(slot_names), dtype=np.int64)
    init_ids = np.empty(len(slot_names), dtype=np.int64)
    next_ids = np.empty(len(slot_names), dtype=np.int64)
    loop_slot = np.full(len(network.nodes), -1, dtype=np.int64)
    for slot, name in enumerate(slot_names):
        loop_in, init_node, next_node = network.slots[name]
        loop_in_ids[slot] = loop_in
        init_ids[slot] = init_node
        next_ids[slot] = next_node
        loop_slot[loop_in] = slot

    dependent_ids = network.loop_dependent()
    loop_dependent = np.zeros(len(network.nodes), dtype=bool)
    loop_dependent[sorted(dependent_ids)] = True

    ir = FoldedFlatIR(
        flat=flat,
        iterations=network.iterations,
        slot_names=slot_names,
        loop_in_ids=loop_in_ids,
        init_ids=init_ids,
        next_ids=next_ids,
        loop_slot=loop_slot,
        loop_dependent=loop_dependent,
        has_loop_dependent_init=bool(loop_dependent[init_ids].any()),
    )
    try:
        network._folded_flat_ir = (len(network.nodes), ir)
    except AttributeError:  # pragma: no cover - exotic network subclasses
        pass
    return ir


def _flatten_uncached(
    network: EventNetwork, *, allow_loop_inputs: bool = False
) -> FlatNetwork:
    count = len(network.nodes)
    kinds = np.empty(count, dtype=np.int16)
    var_index = np.full(count, -1, dtype=np.int64)
    atom_op = np.full(count, -1, dtype=np.int8)
    pow_exponent = np.zeros(count, dtype=np.int64)
    dist_metric = np.full(count, -1, dtype=np.int8)
    guard_values: Dict[int, object] = {}
    offsets = np.zeros(count + 1, dtype=np.int64)
    child_lists: List[Tuple[int, ...]] = []

    for node in network.nodes:
        kind = node.kind
        if kind is Kind.LOOP_IN and not allow_loop_inputs:
            raise UnsupportedNetworkError(
                "folded networks (loop-input nodes) have no static flat "
                "form; flatten_folded() builds their iteration-swept IR"
            )
        kinds[node.id] = int(kind)
        child_lists.append(node.children)
        offsets[node.id + 1] = offsets[node.id] + len(node.children)
        for child in node.children:
            if child >= node.id:
                raise UnsupportedNetworkError(
                    "network node order is not topological"
                )
        if kind is Kind.VAR:
            var_index[node.id] = node.payload
        elif kind is Kind.ATOM:
            atom_op[node.id] = ATOM_OPS[node.payload]
        elif kind is Kind.POW:
            pow_exponent[node.id] = node.payload
        elif kind is Kind.DIST:
            dist_metric[node.id] = DIST_METRICS[node.payload]
        elif kind is Kind.GUARD:
            value = node.payload
            if isinstance(value, np.ndarray):
                guard_values[node.id] = np.asarray(value, dtype=float)
            else:
                guard_values[node.id] = float(value)

    child_indices = np.fromiter(
        (c for children in child_lists for c in children),
        dtype=np.int64,
        count=int(offsets[-1]),
    )
    return FlatNetwork(
        kinds=kinds,
        child_offsets=offsets,
        child_indices=child_indices,
        var_index=var_index,
        atom_op=atom_op,
        pow_exponent=pow_exponent,
        dist_metric=dist_metric,
        guard_values=guard_values,
        targets=dict(network.targets),
    )
