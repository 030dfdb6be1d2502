"""Vectorized bulk-world evaluation of event networks.

Where the scalar baselines evaluate the network once per valuation (one
recursive Python traversal per world), the bulk evaluator runs the
network's lowered program (:func:`repro.engine.masked.masked_program`:
vector c-values as scalar lanes, folded iterations unrolled into rows)
once per batch, carrying *all* worlds of the batch at once.  The
semantics mirror the scalar evaluators on total valuations — ``u`` is
the identity of addition, annihilates multiplication, makes atoms true.

:class:`BulkEvaluator` has two rungs over that one program: the
compiled world block (:func:`repro.engine.kernels._world_block`, 64
worlds per ``uint64`` word, one native call per batch) whenever a
kernel backend is live, and otherwise a NumPy sweep of the same rows
with one ``(W,)`` column per row.  The NumPy rung is also the oracle
the world block is validated against; both reduce lanes left to right,
so they agree world for world.  Two entry points replace the hot loops
of the baselines:

* :func:`bulk_naive_probabilities` — exact probabilities by enumerating
  all ``2^|X|`` worlds in chunks (the paper's naive per-world baseline);
* :func:`bulk_monte_carlo_probabilities` — the MCDB-style statistical
  comparator, sampling whole batches of worlds at once.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..compile.result import CompilationResult
from ..network.nodes import EventNetwork, Kind
from ..worlds.variables import VariablePool
from .masked import MaskedProgram, masked_program

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
# peak memory at (live rows) x chunk floats.
DEFAULT_CHUNK = 1 << 14

# ATOM comparison codes (repro.engine.ir.ATOM_OPS) as ufuncs.
_COMPARE = (np.less_equal, np.less, np.greater_equal, np.greater, np.equal)


def _row_plan(program: MaskedProgram, roots: Sequence[int]) -> List[tuple]:
    """The sweep over the rows ``roots`` read (cached per root set).

    One ``(row, kind, operands, payload, dead)`` step per live row, in
    order.  ``payload`` is the row's variable, comparison, exponent,
    metric or constant; ``dead`` lists the rows read for the last time
    at that step, so the sweep drops them (roots excepted).
    """
    key = tuple(sorted(set(roots)))
    plan = program._row_plans.get(key)
    if plan is not None:
        return plan
    operands = program.py_children()
    live = bytearray(len(program))
    for root in key:
        live[root] = 1
    for row in range(len(program) - 1, -1, -1):  # rows are topological
        if live[row]:
            for child in operands[row]:
                live[child] = 1
    rows = [row for row, flag in enumerate(live) if flag]
    last_read: Dict[int, int] = {}
    for step, row in enumerate(rows):
        for child in operands[row]:
            last_read[child] = step
    dead: List[List[int]] = [[] for _ in rows]
    for child, step in last_read.items():
        if child not in key:
            dead[step].append(child)
    payloads = {
        _K_VAR: program.var_index,
        _K_ATOM: program.atom_op,
        _K_POW: program.pow_exponent,
        _K_DIST: program.dist_metric,
        _K_GUARD: program.guard_value,
    }
    kinds = program.kinds.tolist()
    plan = []
    for step, row in enumerate(rows):
        column = payloads.get(kinds[row])
        payload = None if column is None else column[row].item()
        plan.append((row, kinds[row], operands[row], payload, tuple(dead[step])))
    program._row_plans[key] = plan
    return plan


def _sweep_rows(
    plan: List[tuple], columns: np.ndarray, worlds: int
) -> Dict[int, object]:
    """Run ``plan`` over ``(W,)`` columns: ``_world_block``'s row semantics.

    ``columns[x]`` holds variable ``x`` in every world.  A Boolean row is
    a bool array; a numeric row is a ``(defined, value)`` pair whose
    values where undefined are arbitrary.  ``COND`` and ``LOOP_IN`` alias
    their operand's arrays, and lanes reduce left to right.
    """
    values: Dict[int, object] = {}
    for row, kind, operands, payload, dead in plan:
        if kind == _K_VAR:
            value = columns[payload]
        elif kind == _K_AND:
            value = np.ones(worlds, dtype=bool)
            for child in operands:
                value &= values[child]
        elif kind == _K_OR:
            value = np.zeros(worlds, dtype=bool)
            for child in operands:
                value |= values[child]
        elif kind == _K_NOT:
            value = ~values[operands[0]]
        elif kind == _K_ATOM:
            # Interleaved lane pairs; true where a side is undefined.
            defined = np.ones(worlds, dtype=bool)
            holds = np.ones(worlds, dtype=bool)
            compare = _COMPARE[payload]
            for i in range(0, len(operands), 2):
                left, right = values[operands[i]], values[operands[i + 1]]
                defined &= left[0]
                defined &= right[0]
                holds &= compare(left[1], right[1])
            value = holds | ~defined
        elif kind == _K_GUARD:
            value = (values[operands[0]], np.broadcast_to(payload, (worlds,)))
        elif kind == _K_COND:
            event, (defined, number) = values[operands[0]], values[operands[1]]
            value = (event & defined, number)
        elif kind == _K_SUM:
            # ``u`` is the identity: undefined lanes add nothing.
            defined = np.zeros(worlds, dtype=bool)
            total = np.zeros(worlds)
            for child in operands:
                term_defined, term = values[child]
                defined |= term_defined
                total += np.where(term_defined, term, 0.0)
            value = (defined, total)
        elif kind == _K_PROD:
            defined = np.ones(worlds, dtype=bool)
            product = np.ones(worlds)
            for child in operands:
                factor_defined, factor = values[child]
                defined &= factor_defined
                product *= factor
            value = (defined, product)
        elif kind == _K_INV:
            defined, number = values[operands[0]]
            nonzero = number != 0.0  # 1/0 is undefined, never inf
            inverse = np.divide(1.0, number, out=np.ones(worlds), where=nonzero)
            value = (defined & nonzero, inverse)
        elif kind == _K_POW:
            defined, number = values[operands[0]]
            value = (defined, number**payload)  # >= 0: negative lowered to INV
        elif kind == _K_DIST:
            wide = len(operands) > 2
            squared = payload == 1 or (wide and payload == 0)
            defined = np.ones(worlds, dtype=bool)
            total = np.zeros(worlds)
            for i in range(0, len(operands), 2):
                left, right = values[operands[i]], values[operands[i + 1]]
                defined &= left[0]
                defined &= right[0]
                diff = left[1] - right[1]
                total += diff * diff if squared else np.abs(diff)
            if wide and payload == 0:
                total = np.sqrt(total)
            value = (defined, total)
        elif kind == _K_TRUE:
            value = np.ones(worlds, dtype=bool)
        elif kind == _K_FALSE:
            value = np.zeros(worlds, dtype=bool)
        else:  # LOOP_IN: the operand's value, Boolean or numeric
            value = values[operands[0]]
        values[row] = value
        for child in dead:
            del values[child]
    return values


class BulkEvaluator:
    """Evaluates Boolean network nodes over a whole batch of total valuations.

    Flat and folded networks alike run as one
    :class:`~repro.engine.masked.MaskedProgram`: through
    ``backend.run_block`` (the world block, 64 worlds per word) when a
    kernel backend is given, otherwise as the NumPy row sweep.
    ``kernel`` names the rung that runs.
    """

    def __init__(self, network: EventNetwork, backend=None) -> None:
        self.kernel = "python" if backend is None else backend.name
        self._backend = backend
        self._program = program = masked_program(network)
        self._variables = int(program.var_index.max(initial=-1)) + 1
        if backend is not None:
            from .kernels import _BITS, _kernel_program

            k = _kernel_program(program)
            self._arrays = (
                k["kinds"], k["var_index"], k["atom_op"], k["pow_exp"],
                k["metric"], k["child_off"], k["child_idx"], k["is_bool"],
                k["guard_val"], _BITS,
            )

    def evaluate(
        self, assignments: np.ndarray, node_ids: Sequence[int]
    ) -> Dict[int, np.ndarray]:
        """Boolean outcomes of ``node_ids`` in every world of the batch.

        ``assignments`` is a ``(W, |X|)`` bool matrix: row ``w`` is the
        total valuation of world ``w``.  Returns ``{node_id: (W,) bool}``.
        """
        program = self._program
        roots = program.final_vertex[np.asarray(node_ids, dtype=np.int64)]
        if not program.is_bool[roots].all():
            raise TypeError("bulk evaluation reads out Boolean nodes only")
        if assignments.shape[1] < self._variables:
            raise IndexError(
                f"the network reads {self._variables} variables, "
                f"the batch assigns {assignments.shape[1]}"
            )
        if self._backend is not None:
            outcomes = self._run_block(assignments, roots)
        else:
            rows = roots.tolist()
            columns = np.ascontiguousarray(np.transpose(assignments))
            with np.errstate(all="ignore"):  # undefined lanes hold anything
                values = _sweep_rows(
                    _row_plan(program, rows), columns, len(assignments)
                )
            outcomes = [values[row] for row in rows]
        return {int(node): outcomes[i] for i, node in enumerate(node_ids)}

    def _run_block(self, assignments: np.ndarray, roots: np.ndarray) -> np.ndarray:
        """One :func:`~repro.engine.kernels._world_block` call for the batch."""
        from .kernels import pack_bool_column, unpack_bool_column

        var_words = pack_bool_column(np.transpose(assignments))
        blocks = var_words.shape[1]
        out = np.empty(len(roots) * blocks, dtype=np.uint64)
        rows = len(self._program)
        self._backend.run_block(
            var_words, roots, out, *self._arrays,
            np.empty(rows, dtype=np.int64),  # sched
            np.zeros(rows, dtype=np.int64),  # strip_of
            np.empty(rows, dtype=np.uint64),  # word
            np.zeros(rows * 64),  # strips
        )
        return unpack_bool_column(out.reshape(len(roots), blocks), len(assignments))


def make_bulk_evaluator(
    network: EventNetwork, kernel: Optional[str] = None
) -> BulkEvaluator:
    """The bulk evaluator for ``network`` on the requested kernel tier.

    ``kernel=None`` defers to :func:`repro.engine.kernels.default_kernel`;
    the world block runs whenever that tier's backend is live, the NumPy
    rows otherwise (or for ``kernel="python"``).
    """
    from . import kernels

    name = kernel if kernel is not None else kernels.default_kernel()
    return BulkEvaluator(network, kernels.get_backend(name))  # rejects unknown


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
    kernel: Optional[str] = None,
) -> CompilationResult:
    """Exact target probabilities by vectorized world enumeration.

    Drop-in replacement for the scalar
    :func:`repro.worlds.naive.naive_probabilities_scalar`: same bounds,
    counters, ``world_key_nodes`` world accounting, and timeout
    semantics (partial sums with ``extra['timed_out'] = 1``), but whole
    chunks of worlds are evaluated per network sweep.  ``kernel``
    selects the tier (see :func:`make_bulk_evaluator`).
    """
    names = list(targets) if targets is not None else list(network.targets)
    target_ids = [network.targets[name] for name in names]
    key_ids = list(world_key_nodes) if world_key_nodes is not None else []
    evaluator = make_bulk_evaluator(network, kernel=kernel)
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
    return result


def bulk_monte_carlo_probabilities(
    network: EventNetwork,
    pool: VariablePool,
    targets: Optional[Sequence[str]] = None,
    samples: int = 1000,
    seed: int = 0,
    confidence: float = 0.95,
    chunk_size: int = DEFAULT_CHUNK,
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
    evaluator = make_bulk_evaluator(network, kernel=kernel)
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
    return result
