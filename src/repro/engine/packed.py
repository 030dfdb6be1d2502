"""Bit-packed Boolean world columns for the bulk engine.

The plain bulk evaluator (:mod:`repro.engine.bulk`) carries one byte
per world per Boolean node.  Here Boolean columns are ``uint64`` words
packing 64 worlds each (``bitorder="little"``: world ``w`` is bit
``w % 64`` of word ``w // 64``), so AND/OR/NOT over a batch touch 64x
less memory and run as word-wise machine ops.  Packing and unpacking
happen only at the numeric boundary: variables pack once per batch,
ATOM results pack after comparison, GUARD/COND unpack their event
column on demand, and probability reduction unpacks the root columns.

Invariant: bits at positions ``>= worlds`` in the last word are always
zero.  Producers that can set them (NOT, the empty AND) re-mask the
last word with :func:`tail_mask`, so consumers never need to.

Two evaluators share the format:

* :class:`PackedBulkEvaluator` (flat networks) compiles the schedule
  into a *plan*: runs of consecutive AND/OR/NOT nodes become segments
  dispatched as one call into the kernel tier of
  :mod:`repro.engine.kernels` (native when available, a
  vectorized NumPy loop otherwise) over a single ``(slots, words)``
  word matrix;
* :class:`PackedFoldedBulkEvaluator` (folded networks) keeps the base
  class's layer-sweep machinery and swaps only ``_compute``: Boolean
  values flow through the loop state as :class:`_PackedCol` handles.

Both are drop-in replacements behind
:func:`repro.engine.bulk.make_bulk_evaluator` — same ``evaluate``
contract, same dense bool outputs — and the property suite holds them
to exact Boolean equality with the unpacked evaluators.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..network.folded import FoldedNetwork
from ..network.nodes import EventNetwork, Kind
from .bulk import BulkEvaluator, FoldedBulkEvaluator, _compare, _Num

_K_TRUE = int(Kind.TRUE)
_K_FALSE = int(Kind.FALSE)
_K_VAR = int(Kind.VAR)
_K_NOT = int(Kind.NOT)
_K_AND = int(Kind.AND)
_K_OR = int(Kind.OR)
_K_ATOM = int(Kind.ATOM)
_K_GUARD = int(Kind.GUARD)
_K_COND = int(Kind.COND)

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

# Segment op codes (shared with the kernels' ``packed_eval``).
_OP_AND = 0
_OP_OR = 1
_OP_NOT = 2


def n_words(worlds: int) -> int:
    """Words needed for a ``worlds``-bit column."""
    return (int(worlds) + 63) // 64


def tail_mask(worlds: int) -> np.uint64:
    """Mask keeping only the valid bits of the last word."""
    rem = int(worlds) % 64
    if rem == 0:
        return _ALL_ONES
    return np.uint64((1 << rem) - 1)


def pack_bool_column(column: np.ndarray) -> np.ndarray:
    """Pack a ``(W,)`` bool column into ``ceil(W / 64)`` uint64 words."""
    column = np.ascontiguousarray(column, dtype=bool)
    packed = np.packbits(column, bitorder="little")
    width = n_words(column.shape[0]) * 8
    if packed.shape[0] != width:
        padded = np.zeros(width, dtype=np.uint8)
        padded[: packed.shape[0]] = packed
        packed = padded
    return packed.view(np.uint64)


def unpack_bool_column(words: np.ndarray, worlds: int) -> np.ndarray:
    """The inverse of :func:`pack_bool_column` (first ``worlds`` bits)."""
    bits = np.unpackbits(
        np.ascontiguousarray(words).view(np.uint8),
        count=int(worlds),
        bitorder="little",
    )
    return bits.view(np.bool_)


def _segments_numpy(ops, out, arg_off, arg_idx, matrix, tail) -> None:
    """Pure-NumPy segment dispatch (the no-compiler fallback tier)."""
    if matrix.shape[1] == 0:
        return
    for i in range(len(ops)):
        op = ops[i]
        o = out[i]
        srcs = arg_idx[arg_off[i] : arg_off[i + 1]]
        if op == _OP_NOT:
            np.bitwise_not(matrix[srcs[0]], out=matrix[o])
            matrix[o, -1] &= tail
        elif op == _OP_AND:
            if len(srcs) == 0:
                matrix[o] = _ALL_ONES
                matrix[o, -1] &= tail
            else:
                np.bitwise_and.reduce(matrix[srcs], axis=0, out=matrix[o])
        else:
            if len(srcs) == 0:
                matrix[o] = 0
            else:
                np.bitwise_or.reduce(matrix[srcs], axis=0, out=matrix[o])


class _Plan:
    """A compiled schedule for one set of roots.

    ``steps`` interleave, in dependency order:

    * ``("seg", ops, out, arg_off, arg_idx)`` — one batched run of
      packed AND/OR/NOT nodes (int64 arrays, kernel calling convention);
    * ``("var", slot, var_index)`` / ``("const", slot, bit)`` — source
      columns packed straight into the matrix;
    * ``("atom", node_id, slot)`` — numeric comparison packed into a
      slot;
    * ``("num", node_id)`` — any other node, delegated to the base
      class's ``_compute`` over the dense values dict.
    """

    __slots__ = ("steps", "slots", "order", "use_counts", "roots")

    def __init__(self, steps, slots, order, use_counts, roots):
        self.steps = steps
        self.slots = slots  # node_id -> matrix row for Boolean nodes
        self.order = order
        self.use_counts = use_counts
        self.roots = roots


class PackedBulkEvaluator(BulkEvaluator):
    """Flat bulk evaluation over bit-packed Boolean columns."""

    packed = True

    def __init__(
        self, network: EventNetwork, kernel: Optional[str] = None
    ) -> None:
        super().__init__(network)
        from . import kernels

        name = kernel if kernel is not None else kernels.default_kernel()
        if name not in kernels.KERNEL_NAMES:
            raise ValueError(
                f"unknown kernel {name!r}; expected one of "
                f"{kernels.KERNEL_NAMES}"
            )
        self._backend = None
        if name != "python":
            self._backend = kernels.get_backend(name)
        self.kernel = self._backend.name if self._backend else "numpy"
        self._plans: Dict[tuple, _Plan] = {}

    # ------------------------------------------------------------------

    def _plan(self, roots: List[int]) -> _Plan:
        key = tuple(roots)
        cached = self._plans.get(key)
        if cached is not None:
            return cached
        flat = self.flat
        schedule = flat.schedule(roots)
        order = [int(raw) for raw in schedule]
        use_counts = flat.use_counts(schedule)
        slots: Dict[int, int] = {}
        steps: List[tuple] = []
        seg_ops: List[int] = []
        seg_out: List[int] = []
        seg_args: List[List[int]] = []

        def flush() -> None:
            if not seg_ops:
                return
            arg_off = np.zeros(len(seg_args) + 1, dtype=np.int64)
            np.cumsum(
                [len(args) for args in seg_args], out=arg_off[1:]
            )
            steps.append(
                (
                    "seg",
                    np.asarray(seg_ops, dtype=np.int64),
                    np.asarray(seg_out, dtype=np.int64),
                    arg_off,
                    np.asarray(
                        [s for args in seg_args for s in args],
                        dtype=np.int64,
                    ),
                )
            )
            seg_ops.clear()
            seg_out.clear()
            seg_args.clear()

        for node_id in order:
            kind = int(flat.kinds[node_id])
            children = [int(child) for child in flat.children(node_id)]
            if kind in (_K_NOT, _K_AND, _K_OR):
                slot = len(slots)
                slots[node_id] = slot
                seg_ops.append(
                    _OP_NOT
                    if kind == _K_NOT
                    else (_OP_AND if kind == _K_AND else _OP_OR)
                )
                seg_out.append(slot)
                seg_args.append([slots[child] for child in children])
            elif kind == _K_VAR:
                slot = len(slots)
                slots[node_id] = slot
                flush()
                steps.append(("var", slot, int(flat.var_index[node_id])))
            elif kind in (_K_TRUE, _K_FALSE):
                slot = len(slots)
                slots[node_id] = slot
                flush()
                steps.append(("const", slot, 1 if kind == _K_TRUE else 0))
            elif kind == _K_ATOM:
                slot = len(slots)
                slots[node_id] = slot
                flush()
                steps.append(("atom", node_id, slot))
            else:
                flush()
                steps.append(("num", node_id))
        flush()
        plan = _Plan(steps, slots, order, use_counts, list(roots))
        self._plans[key] = plan
        return plan

    # ------------------------------------------------------------------

    def evaluate(
        self, assignments: np.ndarray, node_ids: Sequence[int]
    ) -> Dict[int, np.ndarray]:
        flat = self.flat
        roots = [int(node_id) for node_id in node_ids]
        plan = self._plan(roots)
        worlds = int(assignments.shape[0])
        words = n_words(worlds)
        tail = tail_mask(worlds)
        matrix = np.zeros((max(len(plan.slots), 1), words), dtype=np.uint64)
        values: Dict[int, object] = {}
        dense_cache: Dict[int, np.ndarray] = {}
        remaining = plan.use_counts.copy()
        keep = set(roots)
        slots = plan.slots
        backend = self._backend

        def dense(node_id: int) -> np.ndarray:
            column = dense_cache.get(node_id)
            if column is None:
                column = unpack_bool_column(matrix[slots[node_id]], worlds)
                dense_cache[node_id] = column
            return column

        for step in plan.steps:
            tag = step[0]
            if tag == "seg":
                _, ops, out, arg_off, arg_idx = step
                if backend is not None:
                    backend.run_packed(ops, out, arg_off, arg_idx, matrix, tail)
                else:
                    _segments_numpy(ops, out, arg_off, arg_idx, matrix, tail)
                continue
            if tag == "var":
                _, slot, var_index = step
                matrix[slot] = pack_bool_column(assignments[:, var_index])
                continue
            if tag == "const":
                _, slot, bit = step
                if bit:
                    matrix[slot] = _ALL_ONES
                    matrix[slot, -1:] &= tail
                continue
            if tag == "atom":
                _, node_id, slot = step
                children = flat.children(node_id)
                left: _Num = values[int(children[0])]
                right: _Num = values[int(children[1])]
                holds = _compare(
                    int(flat.atom_op[node_id]), left.value, right.value
                )
                matrix[slot] = pack_bool_column(
                    holds | ~left.defined | ~right.defined
                )
            else:  # "num"
                node_id = step[1]
                children = flat.children(node_id)
                kind = int(flat.kinds[node_id])
                if kind in (_K_GUARD, _K_COND):
                    # The event operand lives in the word matrix; the
                    # base numeric path wants it dense.
                    event = int(children[0])
                    if event not in values:
                        values[event] = dense(event)
                values[node_id] = self._compute(
                    kind, node_id, children, values, assignments, worlds
                )
            # Free numeric intermediates exactly like the base class;
            # packed columns live in the (already-bounded) matrix.
            for raw_child in flat.children(node_id):
                child = int(raw_child)
                remaining[child] -= 1
                if (
                    remaining[child] == 0
                    and child not in keep
                    and child not in slots
                ):
                    values.pop(child, None)

        results: Dict[int, np.ndarray] = {}
        for root in roots:
            if root in slots:
                results[root] = dense(root)
            else:
                results[root] = values[root]
        return results


class _PackedCol:
    """A packed Boolean column flowing through the folded layer sweep."""

    __slots__ = ("words", "worlds", "_dense")

    def __init__(self, words: np.ndarray, worlds: int, dense=None):
        self.words = words
        self.worlds = worlds
        self._dense = dense

    def dense(self) -> np.ndarray:
        if self._dense is None:
            self._dense = unpack_bool_column(self.words, self.worlds)
        return self._dense


class PackedFoldedBulkEvaluator(FoldedBulkEvaluator):
    """Folded bulk evaluation with packed Boolean loop state.

    Reuses every sweep/scheduling mechanism of the base class — only
    ``_compute`` changes, so loop state passes packed column handles
    between iterations instead of dense byte arrays.  Folded layers are
    small, so per-node NumPy word ops (no segment batching) already
    capture the packing win.
    """

    packed = True
    kernel = "numpy"

    def __init__(self, network: FoldedNetwork) -> None:
        super().__init__(network)
        self._pack_cache: Optional[Dict[int, _PackedCol]] = None

    def evaluate(
        self, assignments: np.ndarray, node_ids: Sequence[int]
    ) -> Dict[int, np.ndarray]:
        self._pack_cache = {}
        try:
            raw = super().evaluate(assignments, node_ids)
        finally:
            self._pack_cache = None
        return {
            node_id: (
                value.dense() if isinstance(value, _PackedCol) else value
            )
            for node_id, value in raw.items()
        }

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
            var_index = int(flat.var_index[node_id])
            cache = self._pack_cache
            cached = None if cache is None else cache.get(var_index)
            if cached is None:
                cached = _PackedCol(
                    pack_bool_column(assignments[:, var_index]), worlds
                )
                if cache is not None:
                    cache[var_index] = cached
            return cached
        if kind == _K_TRUE:
            column = np.full(n_words(worlds), _ALL_ONES, dtype=np.uint64)
            if column.shape[0]:
                column[-1] &= tail_mask(worlds)
            return _PackedCol(column, worlds)
        if kind == _K_FALSE:
            return _PackedCol(
                np.zeros(n_words(worlds), dtype=np.uint64), worlds
            )
        if kind == _K_NOT:
            child: _PackedCol = values[int(children[0])]
            column = ~child.words
            if column.shape[0]:
                column[-1] &= tail_mask(worlds)
            return _PackedCol(column, worlds)
        if kind == _K_AND:
            if len(children) == 0:
                return self._compute(
                    _K_TRUE, node_id, children, values, assignments, worlds
                )
            column = values[int(children[0])].words.copy()
            for raw_child in children[1:]:
                column &= values[int(raw_child)].words
            return _PackedCol(column, worlds)
        if kind == _K_OR:
            if len(children) == 0:
                return self._compute(
                    _K_FALSE, node_id, children, values, assignments, worlds
                )
            column = values[int(children[0])].words.copy()
            for raw_child in children[1:]:
                column |= values[int(raw_child)].words
            return _PackedCol(column, worlds)
        if kind == _K_ATOM:
            left: _Num = values[int(children[0])]
            right: _Num = values[int(children[1])]
            holds = _compare(
                int(flat.atom_op[node_id]), left.value, right.value
            )
            dense = holds | ~left.defined | ~right.defined
            return _PackedCol(pack_bool_column(dense), worlds, dense=dense)
        if kind == _K_GUARD:
            event: _PackedCol = values[int(children[0])]
            constant = np.asarray(flat.guard_values[node_id], dtype=float)
            value = np.broadcast_to(constant, (worlds,) + constant.shape)
            return _Num(event.dense(), value)
        if kind == _K_COND:
            event: _PackedCol = values[int(children[0])]
            child: _Num = values[int(children[1])]
            return _Num(event.dense() & child.defined, child.value)
        return super()._compute(
            kind, node_id, children, values, assignments, worlds
        )
