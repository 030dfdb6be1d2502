"""Vectorized bulk-world evaluation of event networks.

Where the scalar baselines evaluate the network once per valuation (one
recursive Python traversal per world), the bulk evaluator sweeps the
flattened network (:mod:`repro.engine.ir`) once, carrying *all* worlds
of a batch simultaneously: Boolean nodes become ``(W,)`` bool arrays,
numeric nodes become a ``(defined mask, value array)`` pair.  The
semantics mirror the scalar evaluators exactly on total valuations —
``u`` is the identity of addition, annihilates multiplication, makes
atoms true — so results match the oracles bit-for-bit up to summation
order.

Two entry points replace the hot loops of the baselines:

* :func:`bulk_naive_probabilities` — exact probabilities by enumerating
  all ``2^|X|`` worlds in chunks (the paper's naive per-world baseline);
* :func:`bulk_monte_carlo_probabilities` — the MCDB-style statistical
  comparator, sampling whole batches of worlds at once.
"""

from __future__ import annotations

import math
import time
from collections import ChainMap
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..compile.result import CompilationResult
from ..network.folded import FoldedNetwork
from ..network.nodes import EventNetwork, Kind
from ..worlds.variables import VariablePool
from .ir import (
    FlatNetwork,
    FoldedFlatIR,
    UnsupportedNetworkError,
    flatten,
    flatten_folded,
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

# Worlds processed per batch by the enumerating/sampling drivers; bounds
# peak memory at (live nodes) x chunk x dimension floats.
DEFAULT_CHUNK = 1 << 14


class _Num:
    """Per-batch numeric state: a defined mask plus the defined values.

    ``value`` rows where ``defined`` is false hold arbitrary *finite*
    numbers — every producer fills masked-out slots with a safe constant
    so downstream arithmetic never trips on inf/nan.
    """

    __slots__ = ("defined", "value")

    def __init__(self, defined: np.ndarray, value: np.ndarray) -> None:
        self.defined = defined
        self.value = value

    def mask(self) -> np.ndarray:
        """``defined`` broadcast to the shape of ``value``."""
        extra = self.value.ndim - 1
        if extra == 0:
            return self.defined
        return self.defined.reshape(self.defined.shape + (1,) * extra)


def _per_world(left: np.ndarray, right: np.ndarray):
    """Both operands at the same rank, so they broadcast world by world.

    A scalar c-value is a ``(W,)`` column and a vector one ``(W, d)``;
    NumPy aligns trailing axes, so the scalar side gains the missing
    axes before the two meet in a sum or product.
    """
    extra = left.ndim - right.ndim
    if extra > 0:
        right = right.reshape(right.shape + (1,) * extra)
    elif extra < 0:
        left = left.reshape(left.shape + (1,) * -extra)
    return left, right


def _compare(op_code: int, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    if op_code == 0:
        holds = left <= right
    elif op_code == 1:
        holds = left < right
    elif op_code == 2:
        holds = left >= right
    elif op_code == 3:
        holds = left > right
    else:
        holds = left == right
    if holds.ndim > 1:
        # Vector comparisons hold when every component does (matching the
        # point-interval semantics of the partial evaluator).
        holds = holds.reshape(holds.shape[0], -1).all(axis=1)
    return holds


class BulkEvaluator:
    """Evaluates network nodes over a whole batch of total valuations."""

    def __init__(self, network: EventNetwork) -> None:
        self.network = network
        self.flat: FlatNetwork = flatten(network)

    # ------------------------------------------------------------------

    def evaluate(
        self, assignments: np.ndarray, node_ids: Sequence[int]
    ) -> Dict[int, np.ndarray]:
        """Boolean outcomes of ``node_ids`` in every world of the batch.

        ``assignments`` is a ``(W, |X|)`` bool matrix: row ``w`` is the
        total valuation of world ``w``.  Returns ``{node_id: (W,) bool}``
        for the requested (Boolean) nodes.
        """
        flat = self.flat
        roots = [int(node_id) for node_id in node_ids]
        order = flat.schedule(roots)
        remaining = flat.use_counts(order)
        keep = set(roots)
        worlds = assignments.shape[0]
        values: Dict[int, object] = {}

        for raw_id in order:
            node_id = int(raw_id)
            kind = int(flat.kinds[node_id])
            children = flat.children(node_id)
            values[node_id] = self._compute(
                kind, node_id, children, values, assignments, worlds
            )
            for raw_child in children:
                child = int(raw_child)
                remaining[child] -= 1
                if remaining[child] == 0 and child not in keep:
                    del values[child]

        return {node_id: values[node_id] for node_id in roots}

    # ------------------------------------------------------------------

    def _compute(
        self,
        kind: int,
        node_id: int,
        children: np.ndarray,
        values: Dict[int, object],
        assignments: np.ndarray,
        worlds: int,
    ):
        flat = self.flat
        if kind == _K_VAR:
            return assignments[:, flat.var_index[node_id]]
        if kind == _K_TRUE:
            return np.ones(worlds, dtype=bool)
        if kind == _K_FALSE:
            return np.zeros(worlds, dtype=bool)
        if kind == _K_NOT:
            return ~values[int(children[0])]
        if kind == _K_AND:
            result = np.ones(worlds, dtype=bool)
            for child in children:
                result = result & values[int(child)]
            return result
        if kind == _K_OR:
            result = np.zeros(worlds, dtype=bool)
            for child in children:
                result = result | values[int(child)]
            return result
        if kind == _K_ATOM:
            left: _Num = values[int(children[0])]
            right: _Num = values[int(children[1])]
            holds = _compare(int(flat.atom_op[node_id]), left.value, right.value)
            # Atoms are true whenever either side is undefined.
            return holds | ~left.defined | ~right.defined
        if kind == _K_GUARD:
            event = values[int(children[0])]
            constant = np.asarray(flat.guard_values[node_id], dtype=float)
            value = np.broadcast_to(constant, (worlds,) + constant.shape)
            return _Num(event, value)
        if kind == _K_COND:
            event = values[int(children[0])]
            child: _Num = values[int(children[1])]
            return _Num(event & child.defined, child.value)
        if kind == _K_SUM:
            defined = np.zeros(worlds, dtype=bool)
            total = None
            for raw_child in children:
                term: _Num = values[int(raw_child)]
                defined = defined | term.defined
                contribution = np.where(term.mask(), term.value, 0.0)
                if total is None:
                    total = contribution
                else:
                    total, contribution = _per_world(total, contribution)
                    total = total + contribution
            if total is None:  # empty sum: undefined everywhere
                return _Num(defined, np.zeros(worlds))
            return _Num(defined, total)
        if kind == _K_PROD:
            defined = np.ones(worlds, dtype=bool)
            product = None
            for raw_child in children:
                factor: _Num = values[int(raw_child)]
                defined = defined & factor.defined
                if product is None:
                    product = factor.value
                else:
                    product, value = _per_world(product, factor.value)
                    product = product * value
            if product is None:  # empty product is 1
                return _Num(defined, np.ones(worlds))
            return _Num(defined, product)
        if kind == _K_INV:
            child = values[int(children[0])]
            if child.value.ndim > 1:
                raise TypeError("invert is only defined for scalar c-values")
            nonzero = child.value != 0.0
            defined = child.defined & nonzero
            value = np.divide(
                1.0,
                child.value,
                out=np.ones(worlds),
                where=nonzero,
            )
            return _Num(defined, value)
        if kind == _K_POW:
            child = values[int(children[0])]
            exponent = int(flat.pow_exponent[node_id])
            if exponent >= 0:
                return _Num(child.defined, child.value**exponent)
            if child.value.ndim > 1:
                raise TypeError("invert is only defined for scalar c-values")
            nonzero = child.value != 0.0
            powered = np.where(nonzero, child.value, 1.0) ** (-exponent)
            return _Num(child.defined & nonzero, 1.0 / powered)
        if kind == _K_DIST:
            left = values[int(children[0])]
            right = values[int(children[1])]
            diff = np.abs(left.value - right.value)
            metric = int(flat.dist_metric[node_id])
            if diff.ndim == 1:
                components = diff.reshape(worlds, 1)
            else:
                components = diff.reshape(worlds, -1)
            if metric == 0:  # euclidean
                value = np.sqrt(np.sum(components**2, axis=1))
            elif metric == 1:  # sqeuclidean
                value = np.sum(components**2, axis=1)
            else:  # manhattan
                value = np.sum(components, axis=1)
            return _Num(left.defined & right.defined, value)
        raise TypeError(f"cannot bulk-evaluate node kind {Kind(kind)!r}")


class FoldedBulkEvaluator(BulkEvaluator):
    """Bulk evaluation of folded networks: one layer sweep per iteration.

    The loop-independent prefix is evaluated once per batch; the
    loop-dependent layer is then swept ``iterations`` times as whole
    boolean/float matrices, with each slot's loop-input node fed the
    value its *next* node produced in the previous sweep (the *init*
    node's value for the first sweep).  Node values read at the end
    match the scalar :class:`repro.compile.folded_eval.FoldedEvaluator`
    at the final iteration.  Folded layers are small by construction
    (the whole point of the encoding), so no mid-sweep freeing is done.

    Only the slots reachable from the requested roots are carried:
    unreachable slots get no state column and are never read, so
    evaluating a subset of targets on a multi-slot network is safe.
    """

    def __init__(self, network: FoldedNetwork) -> None:
        self.network = network
        self.ir: FoldedFlatIR = flatten_folded(network)
        self.flat = self.ir.flat

    def evaluate(
        self, assignments: np.ndarray, node_ids: Sequence[int]
    ) -> Dict[int, np.ndarray]:
        ir = self.ir
        roots = [int(node_id) for node_id in node_ids]
        prefix, layer = ir.split(roots)
        worlds = assignments.shape[0]

        prefix_values: Dict[int, object] = {}
        for raw_id in prefix:
            node_id = int(raw_id)
            prefix_values[node_id] = self._compute(
                int(self.flat.kinds[node_id]),
                node_id,
                self.flat.children(node_id),
                prefix_values,
                assignments,
                worlds,
            )

        layer_ids = [int(raw_id) for raw_id in layer]
        layer_values: Dict[int, object] = {}
        values = ChainMap(layer_values, prefix_values)
        if ir.has_loop_dependent_init:
            # Cross-slot init chains: the first iteration needs the
            # demand-driven order of the scalar evaluator (a loop input
            # at iteration 0 is its slot's init *at iteration 0*).
            self._first_sweep_demand_driven(
                layer_ids, layer_values, values, assignments, worlds
            )
        else:
            # Every init is loop-independent, i.e. already in the prefix
            # (``.get``: slots unreachable from the roots have no value
            # and no reader).
            state = [prefix_values.get(int(i)) for i in ir.init_ids]
            self._sweep(layer_ids, state, layer_values, values, assignments, worlds)
        for _ in range(ir.iterations - 1):
            state = [values.get(int(n)) for n in ir.next_ids]
            self._sweep(layer_ids, state, layer_values, values, assignments, worlds)

        return {node_id: values[node_id] for node_id in roots}

    def _sweep(
        self,
        layer_ids: List[int],
        state: List[object],
        layer_values: Dict[int, object],
        values: "ChainMap",
        assignments: np.ndarray,
        worlds: int,
    ) -> None:
        """One iteration: recompute the loop layer from the slot state."""
        flat = self.flat
        loop_slot = self.ir.loop_slot
        layer_values.clear()
        for node_id in layer_ids:
            slot = int(loop_slot[node_id])
            if slot >= 0:
                layer_values[node_id] = state[slot]
                continue
            layer_values[node_id] = self._compute(
                int(flat.kinds[node_id]),
                node_id,
                flat.children(node_id),
                values,
                assignments,
                worlds,
            )

    def _first_sweep_demand_driven(
        self,
        layer_ids: List[int],
        layer_values: Dict[int, object],
        values: "ChainMap",
        assignments: np.ndarray,
        worlds: int,
    ) -> None:
        """Iteration 0 with loop inputs resolving through their inits.

        Demand order is kept with an explicit two-phase stack (visit
        children, then compute) — cross-slot init chains can be as deep
        as the slot count, so the recursion limit must not bound them.
        """
        flat = self.flat
        ir = self.ir
        in_progress: set = set()

        layer_values.clear()
        for root in layer_ids:
            stack: List[Tuple[int, int]] = [(int(root), 0)]
            while stack:
                node_id, phase = stack.pop()
                if phase == 0:
                    if values.get(node_id) is not None:
                        continue
                    if node_id in in_progress:
                        raise UnsupportedNetworkError(
                            "cyclic slot initialisation in folded network"
                        )
                    in_progress.add(node_id)
                    stack.append((node_id, 1))
                    slot = int(ir.loop_slot[node_id])
                    if slot >= 0:
                        stack.append((int(ir.init_ids[slot]), 0))
                    else:
                        for child in flat.children(node_id):
                            stack.append((int(child), 0))
                    continue
                slot = int(ir.loop_slot[node_id])
                if slot >= 0:
                    result = values[int(ir.init_ids[slot])]
                else:
                    result = self._compute(
                        int(flat.kinds[node_id]),
                        node_id,
                        flat.children(node_id),
                        values,
                        assignments,
                        worlds,
                    )
                in_progress.discard(node_id)
                layer_values[node_id] = result


def make_bulk_evaluator(
    network: EventNetwork,
    packed: Optional[bool] = None,
    kernel: Optional[str] = None,
) -> BulkEvaluator:
    """Evaluator matching the network flavour (flat or folded).

    ``packed`` selects the bit-packed Boolean world columns
    (:mod:`repro.engine.packed`): 64 worlds per ``uint64`` word, with
    pack/unpack only at the numeric boundary.  The default (``None``)
    enables packing — the packed evaluators are drop-in equal on
    Boolean outputs and share the numeric path bit-for-bit; pass
    ``packed=False`` to force the original one-bool-per-world columns.
    ``kernel`` names the segment-kernel tier for the flat packed
    evaluator (``"auto"``/``"native"``/``"python"``, see
    :mod:`repro.engine.kernels`).
    """
    if packed is None:
        packed = True
    if isinstance(network, FoldedNetwork):
        if packed:
            from .packed import PackedFoldedBulkEvaluator

            return PackedFoldedBulkEvaluator(network)
        return FoldedBulkEvaluator(network)
    if packed:
        from .packed import PackedBulkEvaluator

        return PackedBulkEvaluator(network, kernel=kernel)
    return BulkEvaluator(network)


# ----------------------------------------------------------------------
# World-batch construction
# ----------------------------------------------------------------------


def enumerate_worlds(
    variable_count: int, start: int, stop: int
) -> np.ndarray:
    """Assignment rows for world indices ``[start, stop)``.

    The enumeration order matches
    :meth:`repro.worlds.variables.VariablePool.iter_valuations`:
    world 0 assigns every variable true and the last variable flips
    fastest.

    World indices are arbitrary-precision Python integers — networks
    with 64+ variables index worlds far past the int64 range — so the
    bit extraction is chunked: within a run between two multiples of
    ``2**62`` the high bits are one constant Python int (broadcast per
    column) while the low 62 bits vary and are extracted vectorized.
    """
    start, stop = int(start), int(stop)
    count = max(stop - start, 0)
    if variable_count == 0:
        return np.zeros((count, 0), dtype=bool)
    low_bits = 62
    if stop <= (1 << low_bits):
        # Fast path: every index fits in int64.  Columns whose shift
        # would reach past the index range read bit 0, i.e. "true" —
        # shifting an int64 by >= 64 is undefined, not zero.
        indices = np.arange(start, stop, dtype=np.int64)
        effective = min(variable_count, low_bits)
        shifts = np.arange(effective - 1, -1, -1, dtype=np.int64)
        bits = (indices[:, None] >> shifts[None, :]) & 1
        if effective == variable_count:
            return bits == 0
        result = np.ones((count, variable_count), dtype=bool)
        result[:, variable_count - effective :] = bits == 0
        return result
    result = np.empty((count, variable_count), dtype=bool)
    low_mask = (1 << low_bits) - 1
    row = 0
    cursor = start
    while cursor < stop:
        high = cursor >> low_bits
        run_stop = min(stop, (high + 1) << low_bits)
        low = np.arange(
            cursor & low_mask,
            (cursor & low_mask) + (run_stop - cursor),
            dtype=np.int64,
        )
        block = result[row : row + len(low)]
        for column in range(variable_count):
            shift = variable_count - 1 - column
            if shift >= low_bits:
                block[:, column] = ((high >> (shift - low_bits)) & 1) == 0
            else:
                block[:, column] = ((low >> np.int64(shift)) & 1) == 0
        row += len(low)
        cursor = run_stop
    return result


def world_masses(assignments: np.ndarray, probabilities: np.ndarray) -> np.ndarray:
    """``Pr(nu)`` of each assignment row under variable independence."""
    worlds = assignments.shape[0]
    mass = np.ones(worlds)
    # Multiply variable by variable, mirroring the scalar product order so
    # the per-world rounding matches the oracle exactly.
    for index in range(assignments.shape[1]):
        p_true = probabilities[index]
        mass = mass * np.where(assignments[:, index], p_true, 1.0 - p_true)
    return mass


# ----------------------------------------------------------------------
# Scheme drivers
# ----------------------------------------------------------------------


def bulk_naive_probabilities(
    network: EventNetwork,
    pool: VariablePool,
    targets: Optional[Sequence[str]] = None,
    world_key_nodes: Optional[Sequence[int]] = None,
    timeout: Optional[float] = None,
    chunk_size: int = DEFAULT_CHUNK,
    packed: Optional[bool] = None,
    kernel: Optional[str] = None,
) -> CompilationResult:
    """Exact target probabilities by vectorized world enumeration.

    Drop-in replacement for the scalar
    :func:`repro.worlds.naive.naive_probabilities_scalar`: same bounds,
    counters, ``world_key_nodes`` world accounting, and timeout
    semantics (partial sums with ``extra['timed_out'] = 1``), but whole
    chunks of worlds are evaluated per network sweep.  ``packed`` /
    ``kernel`` select the column representation and kernel tier (see
    :func:`make_bulk_evaluator`).
    """
    names = list(targets) if targets is not None else list(network.targets)
    target_ids = [network.targets[name] for name in names]
    key_ids = list(world_key_nodes) if world_key_nodes is not None else []
    evaluator = make_bulk_evaluator(network, packed=packed, kernel=kernel)
    probabilities = np.asarray(pool.probabilities, dtype=float)
    variable_count = len(pool)
    world_count = 1 << variable_count

    totals = {name: 0.0 for name in names}
    signatures: set = set()
    worlds_evaluated = 0
    timed_out = False

    started = time.perf_counter()
    for chunk_start in range(0, world_count, chunk_size):
        if timeout is not None and time.perf_counter() - started > timeout:
            timed_out = True
            break
        chunk_stop = min(chunk_start + chunk_size, world_count)
        assignments = enumerate_worlds(variable_count, chunk_start, chunk_stop)
        mass = world_masses(assignments, probabilities)
        worlds_evaluated += int(np.count_nonzero(mass != 0.0))
        outcomes = evaluator.evaluate(assignments, target_ids + key_ids)
        for name, target_id in zip(names, target_ids):
            totals[name] += float(mass @ outcomes[target_id])
        if key_ids:
            live = mass != 0.0
            signature_matrix = np.column_stack(
                [outcomes[key_id] for key_id in key_ids]
            )[live]
            packed = np.packbits(signature_matrix, axis=1)
            signatures.update(row.tobytes() for row in packed)
    elapsed = time.perf_counter() - started

    bounds = {
        name: (totals[name], totals[name] if not timed_out else 1.0)
        for name in names
    }
    result = CompilationResult(
        bounds=bounds,
        scheme="naive",
        epsilon=0.0,
        seconds=elapsed,
        tree_nodes=worlds_evaluated,
    )
    result.extra["distinct_worlds"] = (
        float(len(signatures)) if signatures else float(worlds_evaluated)
    )
    result.extra["timed_out"] = 1.0 if timed_out else 0.0
    result.extra["vectorized"] = 1.0
    result.extra["packed"] = 1.0 if getattr(evaluator, "packed", False) else 0.0
    return result


def bulk_monte_carlo_probabilities(
    network: EventNetwork,
    pool: VariablePool,
    targets: Optional[Sequence[str]] = None,
    samples: int = 1000,
    seed: int = 0,
    confidence: float = 0.95,
    chunk_size: int = DEFAULT_CHUNK,
    packed: Optional[bool] = None,
    kernel: Optional[str] = None,
) -> CompilationResult:
    """Vectorized MCDB-style estimation: sample worlds in whole batches.

    Statistically equivalent to the scalar comparator (same Wald
    intervals, deterministic per seed) but draws its samples from a
    NumPy generator, so per-seed streams differ from the scalar path.
    """
    from ..compile.montecarlo import z_score

    if samples < 1:
        raise ValueError("need at least one sample")
    z = z_score(confidence)  # validates the confidence level
    names = list(targets) if targets is not None else list(network.targets)
    target_ids = [network.targets[name] for name in names]
    evaluator = make_bulk_evaluator(network, packed=packed, kernel=kernel)
    probabilities = np.asarray(pool.probabilities, dtype=float)
    rng = np.random.default_rng(seed)
    hits = {name: 0 for name in names}

    started = time.perf_counter()
    drawn = 0
    while drawn < samples:
        batch = min(chunk_size, samples - drawn)
        assignments = rng.random((batch, len(pool))) < probabilities
        outcomes = evaluator.evaluate(assignments, target_ids)
        for name, target_id in zip(names, target_ids):
            hits[name] += int(np.count_nonzero(outcomes[target_id]))
        drawn += batch
    elapsed = time.perf_counter() - started

    bounds: Dict[str, Tuple[float, float]] = {}
    for name in names:
        frequency = hits[name] / samples
        margin = z * math.sqrt(max(frequency * (1 - frequency), 1e-12) / samples)
        bounds[name] = (
            max(0.0, frequency - margin),
            min(1.0, frequency + margin),
        )
    result = CompilationResult(
        bounds=bounds,
        scheme="montecarlo",
        epsilon=0.0,
        seconds=elapsed,
        tree_nodes=samples,
    )
    result.extra["samples"] = float(samples)
    result.extra["confidence"] = confidence
    result.extra["vectorized"] = 1.0
    result.extra["packed"] = 1.0 if getattr(evaluator, "packed", False) else 0.0
    return result
