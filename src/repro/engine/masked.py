"""Masked flat-IR evaluation: columnar three-valued partial evaluation.

The Shannon-expansion compiler (Algorithms 1-2) spends its life asking
one question: *given the current partial assignment, what is the
three-valued state of every target?*  The scalar evaluators
(:class:`repro.compile.partial.PartialEvaluator` and its folded twin)
answer it by recursive Python traversal with per-step dict memos — one
interpreter dispatch per node per DFS step.

This module answers it with columns over the flat IR instead:

* Boolean nodes live in one ``int8`` column of three-valued states
  (``B_FALSE`` / ``B_TRUE`` / ``B_UNKNOWN``);
* numeric nodes live in ``float64`` ``lo``/``hi`` interval columns plus
  ``may_u``/``may_def`` bit columns;
* a ``resolved`` bit column marks states that can no longer change
  under any extension of the assignment — the paper's mask ``M``.

Evaluation is *incremental*: the IR precomputes, per random variable,
the downstream **cone** — the topologically-ordered set of nodes whose
state the variable can influence (:meth:`FlatNetwork.var_cone`).  A
``push(var, value)`` walks only that suffix of the topological order,
and within it recomputes only the vertices whose inputs actually
changed (change-driven dirty propagation); a ``pop()`` restores the
trailed column entries.  Resolved nodes are never recomputed, so work
per DFS step shrinks as the mask tightens — exactly the access pattern
Algorithm 2 describes, minus the per-step dicts.

Folded networks are handled by *unrolling the mask, not the network*:
each loop-dependent node owns one column row per iteration (the matrix
``M[t][v]`` of Section 4.2), loop-input vertices copy from their slot's
init/next vertex of the neighbouring row, and the loop-independent
prefix is shared across rows.  A plain network is the case with no loop
layer, so one builder lowers both.  The unrolled program is cached on
the network, like the flat IR itself.

Vector-valued c-values (the feature vectors k-medoids and k-means
cluster) are a property of *program construction*, not a second
evaluation path: :func:`_lower_lanes` expands a vector vertex of width
``d`` into ``d`` scalar *lane* vertices over the same columns and splits
``POW(x, -n)`` into ``INV(POW(x, n))``.  Every tier (this module's
list-column sweep and the compiled sweeps of
:mod:`repro.engine.kernels`) runs that one scalar program; only the
node-granular readers (:meth:`MaskedEvaluator.node_state`, the
unresolved counts behind the variable orderings) know a node may own
several lanes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..compile.partial import (
    B_FALSE,
    B_TRUE,
    B_UNKNOWN,
    NumState,
    State,
)
from ..network.nodes import EventNetwork, Kind
from .ir import (
    BOOL_KIND_CODES,
    FlatNetwork,
    UnsupportedNetworkError,
    expand_ranges,
    flatten,
    parents_csr,
)

_K_TRUE = int(Kind.TRUE)
_K_FALSE = int(Kind.FALSE)
_K_VAR = int(Kind.VAR)
_K_NOT = int(Kind.NOT)
_K_AND = int(Kind.AND)
_K_OR = int(Kind.OR)
_K_ATOM = int(Kind.ATOM)
_K_GUARD = int(Kind.GUARD)
_K_COND = int(Kind.COND)
_K_SUM = int(Kind.SUM)
_K_PROD = int(Kind.PROD)
_K_INV = int(Kind.INV)
_K_POW = int(Kind.POW)
_K_DIST = int(Kind.DIST)
_K_LOOP_IN = int(Kind.LOOP_IN)

_BOOL_KIND_ARRAY = np.asarray(sorted(BOOL_KIND_CODES), dtype=np.int16)

# Trail entry tags: which columns an undo record restores.
_TAG_BOOL = 0
_TAG_NUM = 1

_NAN = math.nan
_INF = math.inf
# The certainly-undefined scalar state as a column tuple (lo, hi, mu, md).
_UNDEFINED = (_NAN, _NAN, True, False)


def _csr_rows(offsets: np.ndarray, indices: np.ndarray) -> List[Tuple[int, ...]]:
    """A CSR adjacency as one tuple per row (plain ints, for the hot loop).

    Rows share one ``int`` object per vertex id instead of holding a
    fresh one per edge (``tolist`` boxes every element separately):
    ~2 MiB on the 16 000-row k-medoids program, the difference between
    +2.9 % and +5.2 % ``peak_rss_mb`` on the ``whatif-walk`` benchmark.
    """
    bounds = offsets.tolist()
    ids = list(range(len(bounds) - 1))
    flat = list(map(ids.__getitem__, indices.tolist()))
    return [
        tuple(flat[bounds[row] : bounds[row + 1]])
        for row in range(len(bounds) - 1)
    ]


@dataclass
class MaskedProgram:
    """A network unrolled into the vertex space of the masked columns.

    Every vertex is Boolean- or *scalar*-valued.  A flat network of
    scalar c-values is the identity view of the
    :class:`~repro.engine.ir.FlatNetwork` arrays (one vertex per node).
    For folded networks, loop-independent nodes keep one vertex while
    loop-dependent nodes get one vertex per iteration; loop-input
    vertices carry a single operand — the init/next vertex they copy
    from — so one topological sweep of the vertex space evaluates the
    whole ``M[t][v]`` mask matrix.  On top of either, a vector-valued
    node of width ``d`` owns ``d`` consecutive *lane* vertices
    (:func:`_lower_lanes`): ``final_vertex`` names the first and
    ``node_width`` the extent.
    """

    kinds: np.ndarray  # (M,) int16 — Kind codes (LOOP_IN = copy)
    child_offsets: np.ndarray  # (M + 1,) int64
    child_indices: np.ndarray  # (E,) int64 — operand vertex ids
    var_index: np.ndarray  # (M,) int64 — pool index for VAR vertices
    atom_op: np.ndarray  # (M,) int8
    pow_exponent: np.ndarray  # (M,) int64 — never negative
    dist_metric: np.ndarray  # (M,) int8
    guard_value: np.ndarray  # (M,) float64 — constant of GUARD vertices
    is_bool: np.ndarray  # (M,) bool — Boolean-valued vertex
    final_vertex: np.ndarray  # (N,) int64 — node's first lane at the last iteration
    node_width: np.ndarray  # (N,) int64 — lanes of a vector node, 0 = scalar/Boolean
    cone_source: FlatNetwork  # owns the node-id cones
    # (first_row, loop_dependent, layer_size, iterations).  Before lane
    # expansion, node n owns row first_row[n], plus first_row[n] +
    # t * layer_size for t < iterations when loop-dependent.
    _unroll: Tuple[np.ndarray, np.ndarray, int, int]
    # Pre-expansion vertex w owns vertices [_lane_offsets[w],
    # _lane_offsets[w + 1]); None when no vertex was expanded.
    _lane_offsets: "np.ndarray | None" = None
    _cones: Dict[int, np.ndarray] = field(default_factory=dict)
    _final_cones: Dict[int, tuple] = field(default_factory=dict)

    # Hot-loop views (plain Python containers: per-element indexing of
    # NumPy arrays boxes a scalar per read, which dominates the sweep).
    _py_children: "List[Tuple[int, ...]] | None" = None
    _py_parents: "List[Tuple[int, ...]] | None" = None
    _parents_csr: "Tuple[np.ndarray, np.ndarray] | None" = None
    _var_vertices: Dict[int, List[int]] = field(default_factory=dict)
    _py_cones: Dict[int, List[int]] = field(default_factory=dict)
    # The bulk row sweep's schedules, per root set (repro.engine.bulk).
    _row_plans: Dict[Tuple[int, ...], list] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.kinds)

    def py_children(self) -> List[Tuple[int, ...]]:
        if self._py_children is None:
            self._py_children = _csr_rows(self.child_offsets, self.child_indices)
        return self._py_children

    def py_parents(self) -> List[Tuple[int, ...]]:
        if self._py_parents is None:
            self._py_parents = _csr_rows(*self.parents_csr())
        return self._py_parents

    def parents_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR parent adjacency over the vertex space (cached).

        Parents of vertex ``v`` are ``indices[offsets[v]:offsets[v + 1]]``.
        """
        if self._parents_csr is None:
            self._parents_csr = parents_csr(
                self.child_offsets, self.child_indices
            )
        return self._parents_csr

    def var_vertices(self, var_index: int) -> List[int]:
        """VAR vertices carrying ``var_index`` (sweep seeds)."""
        cached = self._var_vertices.get(var_index)
        if cached is None:
            cached = np.flatnonzero(self.var_index == var_index).tolist()
            self._var_vertices[var_index] = cached
        return cached

    def var_cone(self, var_index: int) -> np.ndarray:
        """Vertices to re-sweep when ``var_index`` is assigned (topo order)."""
        cached = self._cones.get(var_index)
        if cached is not None:
            return cached
        cone = self.cone_source.var_cone(var_index)
        first_row, dependent, layer_size, iterations = self._unroll
        if layer_size:  # else rows are node ids: share the node cone
            repeated = dependent[cone]
            tiled = first_row[cone[repeated], None] + layer_size * np.arange(iterations)
            cone = np.sort(np.concatenate([first_row[cone[~repeated]], tiled.ravel()]))
        if self._lane_offsets is not None:
            starts = self._lane_offsets[cone]
            cone = expand_ranges(starts, self._lane_offsets[cone + 1] - starts)
        self._cones[var_index] = cone
        return cone

    def py_var_cone(self, var_index: int) -> List[int]:
        """:meth:`var_cone` as a plain list (the sweep's iteration space)."""
        cached = self._py_cones.get(var_index)
        if cached is None:
            cached = self.var_cone(var_index).tolist()
            self._py_cones[var_index] = cached
        return cached

    def final_cone(self, var_index: int) -> tuple:
        """Final vertices of the *node-level* influence cone of a variable.

        ``(vertices, starts)``: the lanes of every original network node
        in the cone — its row at the last iteration when folded — so
        counting unresolved entries over them matches the node-granular
        resolution the ordering strategies and the scalar oracles reason
        about (:meth:`MaskedEvaluator.count_unresolved_in_cone`).
        ``starts`` marks where each node's lanes begin inside
        ``vertices`` and is ``None`` when every node in the cone has one
        lane.  Cached per variable, shared by every evaluator of the
        same network.
        """
        cached = self._final_cones.get(var_index)
        if cached is None:
            node_cone = self.cone_source.var_cone(var_index)
            heads = self.final_vertex[node_cone]
            lanes = np.maximum(self.node_width[node_cone], 1)
            if len(lanes) == int(lanes.sum()):
                cached = (heads, None)
            else:
                cached = (expand_ranges(heads, lanes), np.cumsum(lanes) - lanes)
            self._final_cones[var_index] = cached
        return cached


# Numeric kinds evaluated lane by lane: the width of a vector operand is
# the width of the result.  (GUARD is lane-wise too; its width comes from
# its constant.  DIST and ATOM reduce the lanes of their operands.)
_LANEWISE_ARRAY = np.asarray(
    (_K_SUM, _K_PROD, _K_COND, _K_POW, _K_LOOP_IN), dtype=np.int16
)


def _node_widths(flat: FlatNetwork) -> np.ndarray:
    """Per-node vector width (0 = Boolean or scalar), by propagation.

    A node is vector-valued when a vector guard constant can flow into
    it.  Widths spread upwards from the vector guards one frontier at a
    time, through the parent adjacency and through the loop edges — a
    slot's init/next node feeds its loop-input node — so only the vector
    part of the network is visited.
    """
    width = np.zeros(len(flat), dtype=np.int64)
    vectors = [
        (node_id, value)
        for node_id, value in flat.guard_values.items()
        if isinstance(value, np.ndarray)
    ]
    if not vectors:
        return width
    if any(value.ndim != 1 or value.size == 0 for _, value in vectors):
        raise UnsupportedNetworkError(
            "vector c-values must be non-empty 1-d arrays"
        )
    frontier = np.array([node_id for node_id, _ in vectors], dtype=np.int64)
    width[frontier] = [value.size for _, value in vectors]
    kinds = flat.kinds
    inverting = (kinds == _K_INV) | ((kinds == _K_POW) & (flat.pow_exponent < 0))
    lanewise = np.isin(kinds, _LANEWISE_ARRAY)
    offsets, parents = flat.parents()
    sources, loop_inputs = flat.loop_feeds()
    while len(frontier):
        starts = offsets[frontier]
        counts = offsets[frontier + 1] - starts
        reached = parents[expand_ranges(starts, counts)]
        if np.any(inverting[reached]):
            raise TypeError("invert is only defined for scalar c-values")
        keep = lanewise[reached]
        # A boolean mask, not np.isin/np.unique: those load numpy.ma.
        marked = np.zeros(len(width), dtype=bool)
        marked[frontier] = True
        fed = marked[sources]
        reached = np.concatenate([reached[keep], loop_inputs[fed]])
        lanes = np.concatenate(
            [np.repeat(width[frontier], counts)[keep], width[sources[fed]]]
        )
        before = width[reached]
        np.maximum.at(width, reached, lanes)
        marked[:] = False  # now dedupes the next frontier
        marked[reached[width[reached] > before]] = True
        frontier = np.flatnonzero(marked)
    return width


def _lower_lanes(
    *,
    kinds: np.ndarray,
    child_offsets: np.ndarray,
    child_indices: np.ndarray,
    var_index: np.ndarray,
    atom_op: np.ndarray,
    pow_exponent: np.ndarray,
    dist_metric: np.ndarray,
    guard_values: Dict[int, object],
    is_bool: np.ndarray,
    width: np.ndarray,
) -> Tuple[Dict[str, np.ndarray], "np.ndarray | None", np.ndarray]:
    """Lower a vertex program with vector c-values to scalar lanes.

    The one place vector-valuedness is handled.  A vertex of width ``d``
    becomes ``d`` consecutive lane vertices with the arity of the
    original: lane ``j`` reads lane ``j`` of every vector operand and
    the single vertex of every scalar (or width-1) operand, which is
    NumPy broadcasting spelled out.  ``DIST``/``ATOM`` vertices stay
    single but read all lanes of both operands, interleaved
    ``(left_0, right_0, left_1, right_1, ...)``, and reduce them left to
    right.  ``POW(x, -n)`` becomes ``INV(POW(x, n))`` exactly like
    :func:`repro.compile.partial.num_pow`, the ``INV`` standing for the
    node.

    Returns ``(columns, lane_offsets, head)``: the
    :class:`MaskedProgram` column arrays, the vertex range each input
    vertex expanded to (``None`` when nothing was expanded) and the
    vertex operands read for each input vertex (its first lane).
    """
    count = len(kinds)
    inverted = (kinds == _K_POW) & (pow_exponent < 0)
    lanes = np.maximum(width, 1)
    span = lanes + inverted
    total = int(span.sum())
    lane_offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(span, out=lane_offsets[1:])

    guard_value = np.zeros(total, dtype=np.float64)
    guard_ids = np.fromiter(guard_values, dtype=np.int64, count=len(guard_values))
    vector = width[guard_ids] > 0
    plain = guard_ids[~vector]
    guard_value[lane_offsets[plain]] = [guard_values[v] for v in plain.tolist()]
    for vid in guard_ids[vector].tolist():
        guard_value[lane_offsets[vid] : lane_offsets[vid + 1]] = guard_values[vid]

    head = lane_offsets[:-1] + inverted
    if total > count:
        source = np.repeat(np.arange(count, dtype=np.int64), span)

        # A vertex's operand block is read once per lane.  Lane-wise
        # kinds own one vertex per lane; DIST/ATOM stay single and read
        # the lanes of both operands back to back (l0, r0, l1, r1, ...);
        # POW(x, -n) reads x from its POW row (its INV row is rewired
        # below).  Either way: the block, repeated, in vertex order.
        arity = np.diff(child_offsets)
        fan = np.ones(count, dtype=np.int64)
        reducing = np.flatnonzero((kinds == _K_DIST) | (kinds == _K_ATOM))
        left = child_indices[child_offsets[reducing]]
        right = child_indices[child_offsets[reducing] + 1]
        fan[reducing] = np.maximum(lanes[left], lanes[right])
        # Operands are read lane for lane, or broadcast from one vertex.
        read, reader = lanes[child_indices], np.repeat(np.maximum(lanes, fan), arity)
        if np.any((read != 1) & (read != reader)):
            raise ValueError(
                "vector c-values of different widths in one operation"
            )
        repeats = np.maximum(span, fan)
        block = np.repeat(np.arange(count, dtype=np.int64), repeats)
        turn = expand_ranges(np.zeros(count, dtype=np.int64), repeats)
        operand = child_indices[expand_ranges(child_offsets[block], arity[block])]
        child_indices = head[operand] + np.minimum(
            np.repeat(turn, arity[block]), lanes[operand] - 1
        )
        child_offsets = np.zeros(total + 1, dtype=np.int64)
        np.cumsum((arity * fan)[source], out=child_offsets[1:])

        kinds, pow_exponent = kinds[source], pow_exponent[source]
        inverse = head[inverted]  # POW(x, -n): the POW row, then its INV
        pow_exponent[inverse - 1] *= -1
        kinds[inverse] = _K_INV
        pow_exponent[inverse] = 0
        child_indices[child_offsets[inverse]] = inverse - 1
        var_index, atom_op = var_index[source], atom_op[source]
        dist_metric, is_bool = dist_metric[source], is_bool[source]

    columns = dict(
        kinds=kinds,
        child_offsets=child_offsets,
        child_indices=child_indices,
        var_index=var_index,
        atom_op=atom_op,
        pow_exponent=pow_exponent,
        dist_metric=dist_metric,
        guard_value=guard_value,
        is_bool=is_bool,
    )
    return columns, lane_offsets if total > count else None, head


def _bool_flags(network: EventNetwork, kinds: np.ndarray) -> np.ndarray:
    """Boolean-valued nodes: the Boolean kinds and Boolean loop slots."""
    is_bool = np.isin(kinds, _BOOL_KIND_ARRAY)
    loop_ins = np.flatnonzero(kinds == _K_LOOP_IN)
    is_bool[loop_ins] = [
        bool(network.nodes[node_id].payload[1]) for node_id in loop_ins.tolist()
    ]
    return is_bool


def _layer_row_order(flat: FlatNetwork, layer_ids: np.ndarray) -> np.ndarray:
    """Topological order of the loop layer for the iteration-0 row.

    Within a row, a node depends on its loop-dependent children — except
    loop inputs, which at iteration 0 depend on their slot's *init* node
    (only an intra-row edge when the init is itself loop-dependent, i.e.
    a cross-slot init chain).  Children precede parents in id order, so
    ``layer_ids`` is already topological unless some loop-dependent init
    has a larger id than its loop input; only then does a depth-first
    search run.  Cycles mean the inits are mutually recursive at
    iteration 0, which no evaluator can order.
    """
    dependent = flat.loop_dependent
    if not np.any(dependent[flat.init_ids] & (flat.init_ids > flat.loop_in_ids)):
        return layer_ids
    is_dependent = dependent.tolist()
    loop_slot = flat.loop_slot.tolist()
    init_ids = flat.init_ids.tolist()
    offsets = flat.child_offsets.tolist()
    operands = flat.child_indices.tolist()
    order: List[int] = []
    status: Dict[int, int] = {}  # 0 = visiting, 1 = done

    def intra_row_deps(node_id: int) -> List[int]:
        slot = loop_slot[node_id]
        if slot >= 0:
            init_node = init_ids[slot]
            return [init_node] if is_dependent[init_node] else []
        return [
            child
            for child in operands[offsets[node_id] : offsets[node_id + 1]]
            if is_dependent[child]
        ]

    for root in layer_ids.tolist():
        if root in status:
            continue
        stack: List[Tuple[int, int]] = [(root, 0)]
        while stack:
            node_id, phase = stack.pop()
            if phase == 0:
                if node_id in status:
                    continue
                status[node_id] = 0
                stack.append((node_id, 1))
                for dep in intra_row_deps(node_id):
                    if status.get(dep) == 0:
                        raise UnsupportedNetworkError(
                            "cyclic slot initialisation in folded network"
                        )
                    if dep not in status:
                        stack.append((dep, 0))
            else:
                status[node_id] = 1
                order.append(node_id)
    return np.asarray(order, dtype=np.int64)


def _unrolled_program(network: EventNetwork, flat: FlatNetwork) -> MaskedProgram:
    """Unroll the iteration template by tiling, with whole-array operations.

    Rows are the loop-independent nodes once, in id order, then the loop
    layer once per iteration: node ``n`` owns row ``first_row[n]``, and
    when loop-dependent ``first_row[n] + t * layer_size`` at iteration
    ``t``.  An operand reads its child at the same iteration; a loop
    input reads its slot's *init* at iteration 0 and the previous
    iteration's *next* after that.  With no loop layer (every plain
    network) rows are node ids, and the record's columns are used as
    they are.
    """
    dependent = flat.loop_dependent
    iterations = flat.iterations
    row_order = _layer_row_order(flat, np.flatnonzero(dependent))
    layer_size = len(row_order)
    indep_count = len(flat) - layer_size
    total = indep_count + iterations * layer_size
    # Loop-independent nodes take the first rows, in id order.
    first_row = np.cumsum(~dependent, dtype=np.int64) - 1
    first_row[row_order] = indep_count + np.arange(layer_size)

    def row(
        iteration: "int | np.ndarray", node_id: "np.ndarray | slice"
    ) -> np.ndarray:
        return first_row[node_id] + iteration * layer_size * dependent[node_id]

    # Row r is node node_of[r]: a slice (views, no copies) when rows are ids.
    node_of: "np.ndarray | slice" = slice(None)
    if layer_size:
        indep_ids = np.flatnonzero(~dependent)
        node_of = np.concatenate([indep_ids, np.tile(row_order, iterations)])
    kinds = flat.kinds[node_of]
    guard_rows = np.flatnonzero(kinds == _K_GUARD)
    if not layer_size:
        offsets, child_indices = flat.child_offsets, flat.child_indices
        guard_nodes = guard_rows
    else:
        guard_nodes = node_of[guard_rows]
        # Operands: a row reads its node's children at its own iteration;
        # a loop-input row has one operand, its slot's init or previous next.
        iteration_of = np.concatenate(
            [
                np.zeros(indep_count, np.int64),
                np.repeat(np.arange(iterations), layer_size),
            ]
        )
        loop_rows = np.flatnonzero(kinds == _K_LOOP_IN)
        arity = np.diff(flat.child_offsets)[node_of]
        arity[loop_rows] = 1
        offsets = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(arity, out=offsets[1:])
        owner = np.repeat(np.arange(total, dtype=np.int64), arity)
        edge_iteration = iteration_of[owner]
        child = np.empty(len(owner), dtype=np.int64)
        plain = np.flatnonzero(kinds[owner] != _K_LOOP_IN)
        rows = owner[plain]
        child[plain] = flat.child_indices[
            flat.child_offsets[node_of[rows]] + plain - offsets[rows]
        ]
        slot = flat.loop_slot[node_of[loop_rows]]
        later = iteration_of[loop_rows] > 0
        loop_edges = offsets[loop_rows]
        child[loop_edges] = np.where(
            later, flat.next_ids[slot], flat.init_ids[slot]
        )
        edge_iteration[loop_edges] -= later
        child_indices = row(edge_iteration, child)

    guard_values = {
        vid: flat.guard_values[node_id]
        for vid, node_id in zip(guard_rows.tolist(), guard_nodes.tolist())
    }
    node_width = _node_widths(flat)
    columns, lane_offsets, head = _lower_lanes(
        kinds=kinds,
        child_offsets=offsets,
        child_indices=child_indices,
        var_index=flat.var_index[node_of],
        atom_op=flat.atom_op[node_of],
        pow_exponent=flat.pow_exponent[node_of],
        dist_metric=flat.dist_metric[node_of],
        guard_values=guard_values,
        is_bool=_bool_flags(network, flat.kinds)[node_of],
        width=node_width[node_of],
    )
    return MaskedProgram(
        **columns,
        final_vertex=head[row(iterations - 1, slice(None))],
        node_width=node_width,
        cone_source=flat,
        _unroll=(first_row, dependent, layer_size, iterations),
        _lane_offsets=lane_offsets,
    )


def masked_program(network: EventNetwork) -> MaskedProgram:
    """The network's masked vertex program (cached like the flat IR)."""
    flat = flatten(network)
    cached = getattr(network, "_masked_program", None)
    if cached is not None and cached[0] is flat:
        return cached[1]
    program = _unrolled_program(network, flat)
    try:
        network._masked_program = (flat, program)
    except AttributeError:  # pragma: no cover - exotic network subclasses
        pass
    return program


class MaskedEvaluator:
    """Columnar three-valued evaluation with incremental recomputation.

    Drop-in replacement for the scalar partial evaluators behind the
    ``make_evaluator`` seam: the same ``push``/``pop``/``depth``/
    ``assignment``/``evals`` protocol, the same ``target_states`` /
    ``node_state`` queries, the same three-valued semantics (validated
    state-for-state against the oracles by the property suite).  Flat
    and folded networks share one code path — the folded mask matrix is
    unrolled into the vertex space by :func:`masked_program`.

    ``push(var, value)`` walks the variable's precomputed cone in
    topological order, recomputing a vertex only when one of its inputs
    actually changed value (change-driven dirty propagation), and trails
    every accepted write; ``pop()`` restores the trailed column entries.
    The hot columns are kept as plain Python lists — reading a scalar
    out of a NumPy array boxes a fresh object per access, which would
    dominate the sweep; the ``bstate``/``lo``/``hi``/``may_u``/
    ``may_def``/``resolved_mask`` NumPy views are materialised on
    demand.

    **Trail semantics.**  Every ``push`` opens one trail frame and
    records which variable (if any) it assigned; ``pop`` closes the
    newest frame, restores its trailed writes, and retracts the
    recorded assignment.  Frames therefore need no caller bookkeeping:
    :meth:`rewind_to` pops frames down to an arbitrary *base depth*,
    which is how a persistent distributed worker backs out of one job
    prefix to the common ancestor of the next
    (:mod:`repro.compile.distributed`).

    >>> from repro.events.expressions import conj, var
    >>> from repro.network.build import build_targets
    >>> network = build_targets({"t": conj([var(0), var(1)])})
    >>> evaluator = MaskedEvaluator(network)
    >>> evaluator.push(0, True)
    >>> evaluator.push(1, True)
    >>> evaluator.target_states([network.targets["t"]])[network.targets["t"]]
    1
    >>> evaluator.rewind_to(0)
    >>> (evaluator.depth, evaluator.assignment)
    (0, {})

    **Cone invalidation.**  A ``push(var, value)`` can only change
    vertices downstream of ``var``, so the sweep is restricted to the
    variable's precomputed cone and stops early once no dirty vertex
    remains; resolved vertices are never recomputed, and a ``pop``
    un-resolves exactly the vertices its frame trailed.  The
    per-variable cones double as the ordering signal:
    :meth:`count_unresolved_in_cone` intersects a cone with the
    resolved column in one vectorized operation — the hook behind
    :class:`~repro.compile.ordering.ConeInfluenceOrder`.

    >>> evaluator.count_unresolved_in_cone(0)
    2
    >>> evaluator.push(0, False)  # resolves the AND and its target
    >>> evaluator.count_unresolved_in_cone(1)
    1
    >>> evaluator.rewind_to(0)
    """

    #: Which kernel tier drives the cone sweeps.  ``"python"`` here; the
    #: compiled subclasses (:mod:`repro.engine.kernels`) override it with
    #: the backend that actually ran (``"native"``).
    kernel = "python"

    def __init__(self, network: EventNetwork) -> None:
        program = self._bind(network)
        size = len(program)
        self._b: List[int] = [B_UNKNOWN] * size
        self._lo: List[float] = [_NAN] * size
        self._hi: List[float] = [_NAN] * size
        self._mu: List[bool] = [False] * size
        self._md: List[bool] = [False] * size
        self._resolved: List[bool] = [False] * size
        self._dirty: List[bool] = [False] * size
        self._kinds: List[int] = program.kinds.tolist()
        self._children = program.py_children()
        self._parents = program.py_parents()
        self._var: List[int] = program.var_index.tolist()
        self._atom_op: List[int] = program.atom_op.tolist()
        self._pow: List[int] = program.pow_exponent.tolist()
        self._metric: List[int] = program.dist_metric.tolist()
        self._guard: List[float] = program.guard_value.tolist()
        # Baseline sweep under the empty assignment; everything resolved
        # here stays resolved for the whole compilation.
        for vid in range(size):
            self._recompute(vid, None)

    def _bind(self, network: EventNetwork) -> MaskedProgram:
        """Tier-independent state: the program, the trail bookkeeping and
        the node → vertex maps behind the node-granular readers."""
        self.network = network
        program = masked_program(network)
        self._prog = program
        self.assignment: Dict[int, bool] = {}
        self._frames: List[List[tuple]] = []
        self._frame_vars: List[Optional[int]] = []
        self.evals = 0
        # Resolved-column cache for the vectorized ordering hook: the
        # column only changes inside push/pop, so those bump the version
        # and the NumPy materialisation is shared by every cone query at
        # one branching point.
        self._resolved_version = 0
        self._resolved_cache: Optional[np.ndarray] = None
        self._resolved_cache_version = -1
        self._is_bool: List[bool] = program.is_bool.tolist()
        self._final: List[int] = program.final_vertex.tolist()
        self._width: List[int] = program.node_width.tolist()
        return program

    # -- NumPy column views ---------------------------------------------

    @property
    def bstate(self) -> np.ndarray:
        """Three-valued Boolean state column (int8)."""
        return np.asarray(self._b, dtype=np.int8)

    @property
    def lo(self) -> np.ndarray:
        return np.asarray(self._lo, dtype=np.float64)

    @property
    def hi(self) -> np.ndarray:
        return np.asarray(self._hi, dtype=np.float64)

    @property
    def may_u(self) -> np.ndarray:
        return np.asarray(self._mu, dtype=bool)

    @property
    def may_def(self) -> np.ndarray:
        return np.asarray(self._md, dtype=bool)

    @property
    def resolved_mask(self) -> np.ndarray:
        """Which vertices are final for every extension of the assignment."""
        return np.asarray(self._resolved, dtype=bool)

    # -- trail management (same protocol as the scalar evaluators) -----

    def push(self, var_index: Optional[int] = None, value: bool = True) -> None:
        """Open a DFS frame, optionally assigning one more variable.

        Assigning a variable re-sweeps only its downstream cone, and
        within the cone only the vertices whose inputs actually changed;
        every accepted write is trailed so ``pop`` can restore it.  The
        frame records the assigned variable, so ``pop`` needs no
        argument to retract it.
        """
        self._frames.append([])
        self._frame_vars.append(var_index)
        self._resolved_version += 1
        if var_index is not None:
            self.assignment[var_index] = value
            self._sweep_cone(var_index)

    def pop(self, var_index: Optional[int] = None) -> None:
        """Close the current DFS frame, restoring the trailed entries.

        ``var_index`` is optional: the frame remembers which variable
        its ``push`` assigned.  Passing it anyway (the compiler does,
        for readability) asserts the caller's idea of the stack against
        the trail's.
        """
        recorded = self._frame_vars.pop()
        if var_index is not None and var_index != recorded:
            self._frame_vars.append(recorded)
            raise ValueError(
                f"pop({var_index}) does not match the frame's "
                f"variable {recorded!r}"
            )
        self._resolved_version += 1
        self._restore_frame(self._frames.pop())
        if recorded is not None:
            del self.assignment[recorded]

    def _restore_frame(self, frame) -> None:
        for entry in reversed(frame):
            tag = entry[0]
            vid = entry[1]
            if tag == _TAG_BOOL:
                self._b[vid] = entry[2]
            else:
                self._lo[vid] = entry[2]
                self._hi[vid] = entry[3]
                self._mu[vid] = entry[4]
                self._md[vid] = entry[5]
            self._resolved[vid] = False

    @property
    def depth(self) -> int:
        return len(self._frames)

    def rewind_to(self, depth: int) -> None:
        """Pop frames until the trail is ``depth`` frames deep.

        A persistent distributed worker backs out of the previous job's
        assignment prefix down to the common ancestor of the next one
        instead of replaying from the root.  Rewinding to ``0`` restores the
        baseline (empty-assignment) state exactly.
        """
        if depth < 0 or depth > len(self._frames):
            raise ValueError(
                f"cannot rewind to depth {depth} from depth {len(self._frames)}"
            )
        while len(self._frames) > depth:
            self.pop()

    # -- sweeping -------------------------------------------------------

    def _sweep_cone(self, var_index: int) -> None:
        prog = self._prog
        dirty = self._dirty
        resolved = self._resolved
        parents = self._parents
        frame = self._frames[-1] if self._frames else None
        pending = 0
        for vid in prog.var_vertices(var_index):
            if not dirty[vid]:
                dirty[vid] = True
                pending += 1
        for vid in prog.py_var_cone(var_index):
            if not dirty[vid]:
                continue
            dirty[vid] = False
            pending -= 1
            if not resolved[vid] and self._recompute(vid, frame):
                for parent in parents[vid]:
                    if not dirty[parent]:
                        dirty[parent] = True
                        pending += 1
            if pending == 0:
                break

    def _recompute(self, vid: int, frame: Optional[List[tuple]]) -> bool:
        """Re-evaluate one vertex; returns whether its *value* changed."""
        self.evals += 1
        kind = self._kinds[vid]
        if self._is_bool[vid]:
            new = self._compute_bool(kind, vid)
            old = self._b[vid]
            if new == old:
                if new != B_UNKNOWN and not self._resolved[vid]:
                    # Same value, newly stable: resolve without propagating.
                    if frame is not None:
                        frame.append((_TAG_BOOL, vid, old))
                    self._resolved[vid] = True
                return False
            if frame is not None:
                frame.append((_TAG_BOOL, vid, old))
            self._b[vid] = new
            if new != B_UNKNOWN:
                self._resolved[vid] = True
            return True
        return self._write_num_scalar(
            vid, self._compute_num_scalar(kind, vid), frame
        )

    # -- Boolean kernel -------------------------------------------------

    def _compute_bool(self, kind: int, vid: int) -> int:
        bstate = self._b
        children = self._children[vid]
        if kind == _K_VAR:
            assigned = self.assignment.get(self._var[vid])
            if assigned is None:
                return B_UNKNOWN
            return B_TRUE if assigned else B_FALSE
        if kind == _K_AND:
            saw_unknown = False
            for child in children:
                value = bstate[child]
                if value == B_FALSE:
                    return B_FALSE
                if value == B_UNKNOWN:
                    saw_unknown = True
            return B_UNKNOWN if saw_unknown else B_TRUE
        if kind == _K_OR:
            saw_unknown = False
            for child in children:
                value = bstate[child]
                if value == B_TRUE:
                    return B_TRUE
                if value == B_UNKNOWN:
                    saw_unknown = True
            return B_UNKNOWN if saw_unknown else B_FALSE
        if kind == _K_NOT:
            value = bstate[children[0]]
            if value == B_UNKNOWN:
                return B_UNKNOWN
            return B_TRUE if value == B_FALSE else B_FALSE
        if kind == _K_ATOM:
            return self._compute_atom(vid, children)
        if kind == _K_TRUE:
            return B_TRUE
        if kind == _K_FALSE:
            return B_FALSE
        if kind == _K_LOOP_IN:
            return bstate[children[0]]
        raise TypeError(f"cannot mask-evaluate node kind {Kind(kind)!r}")

    def _compute_atom(self, vid: int, children: Tuple[int, ...]) -> int:
        """Compare two c-values given as interleaved lane pairs.

        ``children`` is ``(left_0, right_0, left_1, right_1, ...)`` —
        one pair for scalars.  A vector comparison is certain when it is
        certain in every lane; ``==`` is certainly false when one side
        lies below the other in every lane.
        """
        lo, hi, mu, md = self._lo, self._hi, self._mu, self._md
        op = self._atom_op[vid]
        may_u = False
        always = never = never_above = True
        for pair in range(0, len(children), 2):
            left, right = children[pair], children[pair + 1]
            if not md[left] or not md[right]:
                return B_TRUE
            if mu[left] or mu[right]:
                may_u = True
            llo, lhi = lo[left], hi[left]
            rlo, rhi = lo[right], hi[right]
            if op == 0:  # <=
                always, never = always and lhi <= rlo, never and rhi < llo
            elif op == 1:  # <
                always, never = always and lhi < rlo, never and rhi <= llo
            elif op == 2:  # >=
                always, never = always and rhi <= llo, never and lhi < rlo
            elif op == 3:  # >
                always, never = always and rhi < llo, never and lhi <= rlo
            else:  # ==
                always = always and llo == lhi and rlo == rhi and llo == rlo
                never = never and lhi < rlo
                never_above = never_above and rhi < llo
        if op == 4:
            always = always and not may_u
            never = never or never_above
        if always:
            return B_TRUE
        if never and not may_u:
            return B_FALSE
        return B_UNKNOWN

    # -- numeric kernel -------------------------------------------------

    def _compute_num_scalar(
        self, kind: int, vid: int
    ) -> Tuple[float, float, bool, bool]:
        """Inline interval arithmetic on the scalar columns.

        Returns ``(lo, hi, may_u, may_def)`` — the undefined state is
        ``(nan, nan, True, False)``.  Mirrors the
        :mod:`repro.compile.partial` operators case by case.
        """
        children = self._children[vid]
        b, lo, hi, mu, md = self._b, self._lo, self._hi, self._mu, self._md
        if kind == _K_GUARD:
            event = b[children[0]]
            value = self._guard[vid]
            if event == B_TRUE:
                return (value, value, False, True)
            if event == B_FALSE:
                return _UNDEFINED
            return (value, value, True, True)
        if kind == _K_COND:
            event = b[children[0]]
            if event == B_FALSE:
                return _UNDEFINED
            child = children[1]
            if not md[child]:
                return _UNDEFINED
            if event == B_TRUE:
                return (lo[child], hi[child], mu[child], True)
            return (lo[child], hi[child], True, True)
        if kind == _K_SUM:
            # ``u`` is the identity: the accumulator starts undefined.
            # Faithful fold of :func:`repro.compile.partial.num_add`.
            a_lo = a_hi = _NAN
            a_mu, a_md = True, False
            for child in children:
                c_md = md[child]
                c_mu = mu[child]
                c_lo, c_hi = lo[child], hi[child]
                n_lo = n_hi = None
                n_md = False
                if a_md and c_md:
                    n_lo, n_hi = a_lo + c_lo, a_hi + c_hi
                    n_md = True
                if a_md and c_mu:
                    n_lo = a_lo if n_lo is None else min(n_lo, a_lo)
                    n_hi = a_hi if n_hi is None else max(n_hi, a_hi)
                    n_md = True
                if c_md and a_mu:
                    n_lo = c_lo if n_lo is None else min(n_lo, c_lo)
                    n_hi = c_hi if n_hi is None else max(n_hi, c_hi)
                    n_md = True
                a_mu = a_mu and c_mu
                if n_md:
                    a_lo, a_hi, a_md = n_lo, n_hi, True
                else:
                    a_lo, a_hi, a_md = _NAN, _NAN, False
                    a_mu = True  # fully undefined again
            if not a_md:
                return _UNDEFINED
            return (a_lo, a_hi, a_mu, True)
        if kind == _K_PROD:
            a_lo = a_hi = 1.0
            a_mu, a_md = False, True
            for child in children:
                a_mu = a_mu or mu[child]
                if not md[child]:
                    return _UNDEFINED  # u annihilates for good
                c_lo, c_hi = lo[child], hi[child]
                p1, p2, p3, p4 = (
                    a_lo * c_lo,
                    a_lo * c_hi,
                    a_hi * c_lo,
                    a_hi * c_hi,
                )
                a_lo = min(p1, p2, p3, p4)
                a_hi = max(p1, p2, p3, p4)
            return (a_lo, a_hi, a_mu, True)
        if kind == _K_INV:
            child = children[0]
            if not md[child]:
                return _UNDEFINED
            c_lo, c_hi = lo[child], hi[child]
            if c_lo > 0 or c_hi < 0:
                return (1.0 / c_hi, 1.0 / c_lo, mu[child], True)
            if c_lo == 0 and c_hi == 0:
                return _UNDEFINED
            if c_lo == 0:
                return (1.0 / c_hi, _INF, True, True)
            if c_hi == 0:
                return (-_INF, 1.0 / c_lo, True, True)
            return (-_INF, _INF, True, True)
        if kind == _K_POW:
            exponent = self._pow[vid]  # >= 0: negative lowered to INV
            child = children[0]
            if not md[child]:
                return _UNDEFINED
            c_lo, c_hi = lo[child], hi[child]
            if exponent % 2 == 1 or c_lo >= 0:
                return (c_lo**exponent, c_hi**exponent, mu[child], True)
            abs_lo, abs_hi = abs(c_lo), abs(c_hi)
            spans_zero = c_lo <= 0 <= c_hi
            n_lo = 0.0 if spans_zero else min(abs_lo, abs_hi) ** exponent
            return (n_lo, max(abs_lo, abs_hi) ** exponent, mu[child], True)
        if kind == _K_DIST:
            # Interleaved lane pairs, reduced left to right; one pair
            # (scalar operands) is the lane itself, bit for bit.
            metric = self._metric[vid]
            wide = len(children) > 2
            squared = metric == 1 or (wide and metric == 0)
            n_mu = False
            acc_lo = acc_hi = 0.0
            for pair in range(0, len(children), 2):
                left, right = children[pair], children[pair + 1]
                if mu[left] or mu[right]:
                    n_mu = True
                if not (md[left] and md[right]):
                    return _UNDEFINED
                diff_lo = lo[left] - hi[right]
                diff_hi = hi[left] - lo[right]
                spans_zero = diff_lo <= 0 <= diff_hi
                abs_lo = 0.0 if spans_zero else min(abs(diff_lo), abs(diff_hi))
                abs_hi = max(abs(diff_lo), abs(diff_hi))
                if squared:  # euclidean and manhattan coincide on scalars
                    abs_lo, abs_hi = abs_lo * abs_lo, abs_hi * abs_hi
                if wide:
                    acc_lo, acc_hi = acc_lo + abs_lo, acc_hi + abs_hi
                else:
                    acc_lo, acc_hi = abs_lo, abs_hi
            if wide and metric == 0:  # euclidean
                return (math.sqrt(acc_lo), math.sqrt(acc_hi), n_mu, True)
            return (acc_lo, acc_hi, n_mu, True)
        if kind == _K_LOOP_IN:
            child = children[0]
            return (lo[child], hi[child], mu[child], md[child])
        raise TypeError(f"cannot mask-evaluate node kind {Kind(kind)!r}")

    def _write_num_scalar(
        self,
        vid: int,
        state: Tuple[float, float, bool, bool],
        frame: Optional[List[tuple]],
    ) -> bool:
        new_lo, new_hi, new_mu, new_md = state
        old_md = self._md[vid]
        old_mu = self._mu[vid]
        old_lo = self._lo[vid]
        old_hi = self._hi[vid]
        resolved = (not new_md and new_mu) or (
            new_md and not new_mu and new_lo == new_hi
        )
        unchanged = (
            old_md == new_md
            and old_mu == new_mu
            and (not new_md or (old_lo == new_lo and old_hi == new_hi))
        )
        if unchanged:
            if resolved and not self._resolved[vid]:
                # Same value, newly stable: resolve without propagating.
                if frame is not None:
                    frame.append((_TAG_NUM, vid, old_lo, old_hi, old_mu, old_md))
                self._resolved[vid] = True
            return False
        if frame is not None:
            frame.append((_TAG_NUM, vid, old_lo, old_hi, old_mu, old_md))
        self._lo[vid] = new_lo
        self._hi[vid] = new_hi
        self._mu[vid] = new_mu
        self._md[vid] = new_md
        if resolved:
            self._resolved[vid] = True
        return True

    # -- compiler interface ---------------------------------------------

    def _state_of(self, node_id: int) -> State:
        vid = self._final[node_id]
        if self._is_bool[vid]:
            return int(self._b[vid])
        if not self._md[vid]:
            return NumState.undefined()
        may_u = bool(self._mu[vid])
        width = self._width[node_id]
        if width == 0:
            return NumState(float(self._lo[vid]), float(self._hi[vid]), may_u, True)
        # A vector node: reassemble the array-valued state from its lanes.
        lanes = slice(vid, vid + width)
        return NumState(
            np.asarray(self._lo[lanes], dtype=np.float64),
            np.asarray(self._hi[lanes], dtype=np.float64),
            may_u,
            True,
        )

    def target_states(self, target_ids: Sequence[int]) -> Dict[int, State]:
        """States of the targets (at the final iteration when folded)."""
        return {
            target_id: self._state_of(int(target_id))
            for target_id in target_ids
        }

    def node_state(self, node_id: int, memo: Optional[dict] = None) -> State:
        """State of an arbitrary node (uniform across evaluator kinds).

        The columns *are* the memo, so ``memo`` is accepted and ignored.
        """
        return self._state_of(int(node_id))

    def count_unresolved(self, node_ids: Sequence[int]) -> int:
        """How many of the nodes are still unresolved (ordering hook).

        A vector node is unresolved while any of its lanes is.
        """
        final = self._final
        width = self._width
        resolved = self._resolved
        count = 0
        for node_id in node_ids:
            vid = final[node_id]
            for lane in range(vid, vid + (width[node_id] or 1)):
                if not resolved[lane]:
                    count += 1
                    break
        return count

    def _resolved_column(self) -> np.ndarray:
        """The resolved column as a NumPy array, cached per push/pop."""
        if self._resolved_cache_version != self._resolved_version:
            self._resolved_cache = np.asarray(self._resolved, dtype=bool)
            self._resolved_cache_version = self._resolved_version
        return self._resolved_cache

    def count_unresolved_in_cone(self, var_index: int) -> int:
        """Unresolved nodes in the variable's influence cone (vectorized).

        Node-granular like :meth:`count_unresolved` — each network node
        counts once, read at its final-iteration vertex — but the count
        is one fancy-indexed NumPy reduction over the precomputed cone
        (:meth:`MaskedProgram.final_cone`) instead of a Python scan.
        This is the scoring hook behind
        :class:`~repro.compile.ordering.ConeInfluenceOrder`; the column
        materialisation is shared by all cone queries at one branching
        point (nothing resolves between two ``push``/``pop`` calls).
        """
        vertices, starts = self._prog.final_cone(var_index)
        resolved = self._resolved_column()[vertices]
        if starts is not None:  # a vector node resolves with its last lane
            resolved = np.minimum.reduceat(resolved, starts)
        return int(len(resolved) - np.count_nonzero(resolved))
