"""Partial evaluation of event networks under partial valuations.

This is the *masking* machinery of the paper (Algorithm 2), generalised:
given a partial assignment of the random variables, every Boolean node is
mapped to a three-valued state (true / false / unknown) and every numeric
node to an abstraction ``(lo, hi, may_undefined, may_defined)`` — an
interval of the values it can still take in worlds extending the
assignment, plus whether the undefined value ``u`` is still possible.

The abstraction is *sound*: the concrete value of a node in any extension
of the assignment is always contained in the abstract state.  It is also
*exact on total valuations*: with every variable assigned, states collapse
to single values, so Shannon expansion (Algorithm 1) driven by this
evaluator terminates with exact probabilities.

States that can no longer change — booleans resolved to true/false, numeric
point values, certainly-undefined values — are recorded in a *resolved*
map shared along the depth-first search with a trail for backtracking,
which mirrors the paper's incremental masking of the network.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..events.values import lane_sum
from ..network.nodes import EventNetwork, Kind

# Three-valued Boolean states.
B_FALSE = 0
B_TRUE = 1
B_UNKNOWN = 2

_INF = math.inf


def _vmin(left, right):
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return np.minimum(left, right)
    return left if left <= right else right


def _vmax(left, right):
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return np.maximum(left, right)
    return left if left >= right else right


def _all_leq(left, right) -> bool:
    """Is ``left <= right`` certain (componentwise for vectors)?"""
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return bool(np.all(np.asarray(left) <= np.asarray(right)))
    return left <= right


def _all_lt(left, right) -> bool:
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return bool(np.all(np.asarray(left) < np.asarray(right)))
    return left < right


def _points_equal(left, right) -> bool:
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return bool(np.array_equal(np.asarray(left), np.asarray(right)))
    return left == right


class NumState:
    """Abstract numeric state: interval plus undefined possibilities.

    ``may_def`` — the node can still be a defined value; when true,
    ``lo``/``hi`` bound the defined values (componentwise for vectors).
    ``may_u`` — the node can still be the undefined value ``u``.
    At least one of the two flags is always set.
    """

    __slots__ = ("lo", "hi", "may_u", "may_def")

    def __init__(self, lo, hi, may_u: bool, may_def: bool) -> None:
        self.lo = lo
        self.hi = hi
        self.may_u = may_u
        self.may_def = may_def

    @staticmethod
    def point(value) -> "NumState":
        return NumState(value, value, False, True)

    @staticmethod
    def undefined() -> "NumState":
        return NumState(None, None, True, False)

    @property
    def is_point(self) -> bool:
        return (
            self.may_def
            and not self.may_u
            and _points_equal(self.lo, self.hi)
        )

    @property
    def is_undefined(self) -> bool:
        return self.may_u and not self.may_def

    @property
    def is_resolved(self) -> bool:
        """Resolved states cannot change under further assignments."""
        return self.is_point or self.is_undefined

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_undefined:
            return "NumState(u)"
        suffix = "∪{u}" if self.may_u else ""
        return f"NumState([{self.lo}, {self.hi}]{suffix})"


State = Union[int, NumState]


def num_add(left: NumState, right: NumState) -> NumState:
    """Abstract addition; ``u`` is the identity element."""
    lo = hi = None
    may_def = False
    if left.may_def and right.may_def:
        lo, hi = left.lo + right.lo, left.hi + right.hi
        may_def = True
    if left.may_def and right.may_u:
        lo = left.lo if lo is None else _vmin(lo, left.lo)
        hi = left.hi if hi is None else _vmax(hi, left.hi)
        may_def = True
    if right.may_def and left.may_u:
        lo = right.lo if lo is None else _vmin(lo, right.lo)
        hi = right.hi if hi is None else _vmax(hi, right.hi)
        may_def = True
    may_u = left.may_u and right.may_u
    if not may_def:
        return NumState.undefined()
    return NumState(lo, hi, may_u, True)


def num_mul(left: NumState, right: NumState) -> NumState:
    """Abstract multiplication; ``u`` annihilates."""
    may_u = left.may_u or right.may_u
    if not (left.may_def and right.may_def):
        return NumState.undefined()
    products = (
        left.lo * right.lo,
        left.lo * right.hi,
        left.hi * right.lo,
        left.hi * right.hi,
    )
    lo = products[0]
    hi = products[0]
    for product in products[1:]:
        lo = _vmin(lo, product)
        hi = _vmax(hi, product)
    return NumState(lo, hi, may_u, True)


def num_inv(child: NumState) -> NumState:
    """Abstract inverse; an interval containing zero may produce ``u``."""
    if not child.may_def:
        return NumState.undefined()
    lo, hi = child.lo, child.hi
    may_u = child.may_u
    if isinstance(lo, np.ndarray):
        raise TypeError("invert is only defined for scalar c-values")
    if lo > 0 or hi < 0:
        return NumState(1.0 / hi, 1.0 / lo, may_u, True)
    # The interval contains zero: inversion may be undefined, and the
    # defined values are unbounded on the side(s) adjacent to zero.
    may_u = True
    if lo == 0 and hi == 0:
        return NumState.undefined()
    if lo == 0:
        return NumState(1.0 / hi, _INF, may_u, True)
    if hi == 0:
        return NumState(-_INF, 1.0 / lo, may_u, True)
    return NumState(-_INF, _INF, may_u, True)


def num_pow(child: NumState, exponent: int) -> NumState:
    """Abstract integer power."""
    if exponent < 0:
        return num_inv(num_pow(child, -exponent))
    if not child.may_def:
        return NumState.undefined()
    lo, hi = child.lo, child.hi
    if exponent % 2 == 1 or (not isinstance(lo, np.ndarray) and lo >= 0):
        return NumState(lo**exponent, hi**exponent, child.may_u, True)
    if isinstance(lo, np.ndarray):
        spans_zero = (lo <= 0) & (hi >= 0)
        abs_lo = np.abs(lo)
        abs_hi = np.abs(hi)
        new_lo = np.where(spans_zero, 0.0, np.minimum(abs_lo, abs_hi)) ** exponent
        new_hi = np.maximum(abs_lo, abs_hi) ** exponent
        return NumState(new_lo, new_hi, child.may_u, True)
    abs_lo, abs_hi = abs(lo), abs(hi)
    spans_zero = lo <= 0 <= hi
    new_lo = 0.0 if spans_zero else min(abs_lo, abs_hi) ** exponent
    new_hi = max(abs_lo, abs_hi) ** exponent
    return NumState(new_lo, new_hi, child.may_u, True)


def num_dist(left: NumState, right: NumState, metric: str) -> NumState:
    """Abstract distance; undefined when either side may be undefined."""
    may_u = left.may_u or right.may_u
    if not (left.may_def and right.may_def):
        return NumState.undefined()
    diff_lo = np.asarray(left.lo, dtype=float) - np.asarray(right.hi, dtype=float)
    diff_hi = np.asarray(left.hi, dtype=float) - np.asarray(right.lo, dtype=float)
    spans_zero = (diff_lo <= 0) & (diff_hi >= 0)
    abs_lo = np.where(spans_zero, 0.0, np.minimum(np.abs(diff_lo), np.abs(diff_hi)))
    abs_hi = np.maximum(np.abs(diff_lo), np.abs(diff_hi))
    if metric == "euclidean":
        lo = math.sqrt(lane_sum(abs_lo * abs_lo))
        hi = math.sqrt(lane_sum(abs_hi * abs_hi))
    elif metric == "sqeuclidean":
        lo = lane_sum(abs_lo * abs_lo)
        hi = lane_sum(abs_hi * abs_hi)
    elif metric == "manhattan":
        lo = lane_sum(abs_lo)
        hi = lane_sum(abs_hi)
    else:
        raise ValueError(f"unknown distance metric {metric!r}")
    return NumState(lo, hi, may_u, True)


def atom_state(op: str, left: NumState, right: NumState) -> int:
    """Three-valued comparison of two abstract numeric states.

    The atom is *true* in a world when either side is undefined or the
    comparison holds; *false* only when both sides are defined and the
    comparison fails (Section 3.2).
    """
    if not left.may_def or not right.may_def:
        return B_TRUE
    always, never = _interval_compare(op, left, right)
    if always and not left.may_u and not right.may_u:
        return B_TRUE
    if always:
        # The comparison holds whenever both sides are defined, and
        # undefined sides make the atom true as well.
        return B_TRUE
    if never and not left.may_u and not right.may_u:
        return B_FALSE
    return B_UNKNOWN


def _interval_compare(op: str, left: NumState, right: NumState) -> Tuple[bool, bool]:
    """``(always, never)`` for the comparison over the defined intervals."""
    if op == "<=":
        return _all_leq(left.hi, right.lo), _all_lt(right.hi, left.lo)
    if op == "<":
        return _all_lt(left.hi, right.lo), _all_leq(right.hi, left.lo)
    if op == ">=":
        return _all_leq(right.hi, left.lo), _all_lt(left.hi, right.lo)
    if op == ">":
        return _all_lt(right.hi, left.lo), _all_leq(left.hi, right.lo)
    if op == "==":
        point_equal = (
            left.is_point and right.is_point and _points_equal(left.lo, right.lo)
        )
        disjoint = _all_lt(left.hi, right.lo) or _all_lt(right.hi, left.lo)
        return point_equal, disjoint
    raise ValueError(f"unknown comparison operator {op!r}")


class PartialEvaluator:
    """Evaluates network nodes under the current partial assignment.

    The evaluator owns two caches:

    * ``resolved`` — node states that are final for every extension of
      the current assignment; shared down the DFS and undone via a trail
      (this is the paper's mask ``M``).
    * a per-step memo passed by the caller, for states that may still
      change (interval states, unknown booleans).
    """

    __slots__ = (
        "network",
        "resolved",
        "_trail",
        "_frame_vars",
        "assignment",
        "evals",
    )

    def __init__(self, network: EventNetwork) -> None:
        self.network = network
        self.resolved: Dict[int, State] = {}
        self._trail: List[List[int]] = []
        self._frame_vars: List[Optional[int]] = []
        self.assignment: Dict[int, bool] = {}
        self.evals = 0

    # -- trail management ------------------------------------------------

    def push(self, var_index: Optional[int] = None, value: bool = True) -> None:
        """Open a DFS frame, optionally assigning one more variable."""
        self._trail.append([])
        self._frame_vars.append(var_index)
        if var_index is not None:
            self.assignment[var_index] = value

    def pop(self, var_index: Optional[int] = None) -> None:
        """Close the current DFS frame, undoing its resolutions.

        The frame remembers its assigned variable; ``var_index`` is an
        optional cross-check (mirrors the masked engine's trail).
        """
        recorded = self._frame_vars.pop()
        if var_index is not None and var_index != recorded:
            self._frame_vars.append(recorded)
            raise ValueError(
                f"pop({var_index}) does not match the frame's "
                f"variable {recorded!r}"
            )
        for node_id in self._trail.pop():
            del self.resolved[node_id]
        if recorded is not None:
            del self.assignment[recorded]

    @property
    def depth(self) -> int:
        return len(self._trail)

    def rewind_to(self, depth: int) -> None:
        """Pop frames until the trail is ``depth`` frames deep."""
        if depth < 0 or depth > len(self._trail):
            raise ValueError(
                f"cannot rewind to depth {depth} from depth {len(self._trail)}"
            )
        while len(self._trail) > depth:
            self.pop()

    # -- evaluation -------------------------------------------------------

    def state(self, node_id: int, memo: Dict[int, State]) -> State:
        """Abstract state of a node under the current assignment."""
        cached = self.resolved.get(node_id)
        if cached is not None:
            return cached
        cached = memo.get(node_id)
        if cached is not None:
            return cached
        result = self._compute(node_id, memo)
        if self._is_stable(result):
            self.resolved[node_id] = result
            if self._trail:
                self._trail[-1].append(node_id)
        else:
            memo[node_id] = result
        return result

    @staticmethod
    def _is_stable(state: State) -> bool:
        if isinstance(state, NumState):
            return state.is_resolved
        return state != B_UNKNOWN

    def _compute(self, node_id: int, memo: Dict[int, State]) -> State:
        self.evals += 1
        node = self.network.nodes[node_id]
        kind = node.kind
        if kind is Kind.VAR:
            assigned = self.assignment.get(node.payload)
            if assigned is None:
                return B_UNKNOWN
            return B_TRUE if assigned else B_FALSE
        if kind is Kind.TRUE:
            return B_TRUE
        if kind is Kind.FALSE:
            return B_FALSE
        if kind is Kind.NOT:
            child = self.state(node.children[0], memo)
            if child == B_UNKNOWN:
                return B_UNKNOWN
            return B_TRUE if child == B_FALSE else B_FALSE
        if kind is Kind.AND:
            saw_unknown = False
            for child_id in node.children:
                child = self.state(child_id, memo)
                if child == B_FALSE:
                    return B_FALSE
                if child == B_UNKNOWN:
                    saw_unknown = True
            return B_UNKNOWN if saw_unknown else B_TRUE
        if kind is Kind.OR:
            saw_unknown = False
            for child_id in node.children:
                child = self.state(child_id, memo)
                if child == B_TRUE:
                    return B_TRUE
                if child == B_UNKNOWN:
                    saw_unknown = True
            return B_UNKNOWN if saw_unknown else B_FALSE
        if kind is Kind.ATOM:
            left = self.state(node.children[0], memo)
            right = self.state(node.children[1], memo)
            return atom_state(node.payload, left, right)
        if kind is Kind.GUARD:
            event = self.state(node.children[0], memo)
            if event == B_TRUE:
                return NumState.point(node.payload)
            if event == B_FALSE:
                return NumState.undefined()
            return NumState(node.payload, node.payload, True, True)
        if kind is Kind.COND:
            event = self.state(node.children[0], memo)
            if event == B_FALSE:
                return NumState.undefined()
            value = self.state(node.children[1], memo)
            if event == B_TRUE:
                return value
            if not value.may_def:
                return NumState.undefined()
            return NumState(value.lo, value.hi, True, True)
        if kind is Kind.SUM:
            total = NumState.undefined()
            for child_id in node.children:
                total = num_add(total, self.state(child_id, memo))
            return total
        if kind is Kind.PROD:
            product = NumState.point(1.0)
            for child_id in node.children:
                product = num_mul(product, self.state(child_id, memo))
            return product
        if kind is Kind.INV:
            return num_inv(self.state(node.children[0], memo))
        if kind is Kind.POW:
            return num_pow(self.state(node.children[0], memo), node.payload)
        if kind is Kind.DIST:
            left = self.state(node.children[0], memo)
            right = self.state(node.children[1], memo)
            return num_dist(left, right, node.payload)
        raise TypeError(f"cannot evaluate node kind {kind!r}")

    # -- convenience -------------------------------------------------------

    def target_states(
        self, target_ids: Sequence[int]
    ) -> Dict[int, State]:
        memo: Dict[int, State] = {}
        return {
            target_id: self.state(target_id, memo) for target_id in target_ids
        }

    def node_state(self, node_id: int, memo: Dict[int, State]) -> State:
        """State of an arbitrary node (uniform across evaluator kinds)."""
        return self.state(node_id, memo)

    def count_unresolved(self, node_ids: Sequence[int]) -> int:
        """How many of the nodes are still unresolved (ordering hook)."""
        resolved = self.resolved
        return sum(1 for node_id in node_ids if node_id not in resolved)
