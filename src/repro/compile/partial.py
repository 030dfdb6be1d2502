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
        return self.may_def and not self.may_u and _points_equal(self.lo, self.hi)

    @property
    def is_undefined(self) -> bool:
        return self.may_u and not self.may_def

    @property
    def is_resolved(self) -> bool:
        """Resolved states cannot change under further assignments."""
        return self.is_point or self.is_undefined


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
    lo = hi = left.lo * right.lo
    for product in (left.lo * right.hi, left.hi * right.lo, left.hi * right.hi):
        lo, hi = _vmin(lo, product), _vmax(hi, product)
    return NumState(lo, hi, may_u, True)


def num_inv(child: NumState) -> NumState:
    """Abstract inverse; an interval containing zero may produce ``u``."""
    if not child.may_def:
        return NumState.undefined()
    lo, hi = child.lo, child.hi
    if isinstance(lo, np.ndarray):
        raise TypeError("invert is only defined for scalar c-values")
    if lo > 0 or hi < 0:
        return NumState(1.0 / hi, 1.0 / lo, child.may_u, True)
    # The interval contains zero: inversion may be undefined, and the
    # defined values are unbounded on the side(s) adjacent to zero.
    if lo == 0 and hi == 0:
        return NumState.undefined()
    if lo == 0:
        return NumState(1.0 / hi, _INF, True, True)
    if hi == 0:
        return NumState(-_INF, 1.0 / lo, True, True)
    return NumState(-_INF, _INF, True, True)


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
        abs_lo, abs_hi = np.abs(lo), np.abs(hi)
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
        lo, hi = lane_sum(abs_lo * abs_lo), lane_sum(abs_hi * abs_hi)
    elif metric == "manhattan":
        lo, hi = lane_sum(abs_lo), lane_sum(abs_hi)
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

    * ``resolved`` — states that are final for every extension of the
      current assignment; shared down the DFS and undone via a trail
      (this is the paper's mask ``M``).
    * a per-step memo passed by the caller, for states that may still
      change (interval states, unknown booleans).

    A network with a loop is evaluated under the mask ``M[t][v]`` of
    Section 4.2: the state of a loop-dependent node ``v`` at iteration
    ``t`` is keyed by the integer ``t·N + v`` (``N`` the node count when
    the evaluator is made), and every other node by ``v``, evaluated
    once whatever the iteration.  A loop input at iteration ``t`` takes
    its slot's *next* node at ``t - 1`` (its *init* node at ``t = 0``).
    Nodes are read at the final iteration.  Without a loop every key is
    the node id.
    """

    __slots__ = (
        "network", "resolved", "_trail", "_frame_vars", "assignment", "evals",
        "_dependent", "_stride", "_final",
    )

    def __init__(self, network: EventNetwork) -> None:
        network.check_complete()
        self.network = network
        self.resolved: Dict[int, State] = {}
        self._trail: List[List[int]] = []
        self._frame_vars: List[Optional[int]] = []
        self.assignment: Dict[int, bool] = {}
        self.evals = 0
        self._dependent = network.loop_dependent()
        self._stride = len(network.nodes) if self._dependent else 0
        self._final = ((network.iterations or 1) - 1) * self._stride

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
        for key in self._trail.pop():
            del self.resolved[key]
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

    def state(self, key: int, memo: Dict[int, State]) -> State:
        """Abstract state of the node (and iteration) ``key`` names."""
        cached = self.resolved.get(key)
        if cached is not None:
            return cached
        cached = memo.get(key)
        if cached is not None:
            return cached
        result = self._compute(key, memo)
        if self._is_stable(result):
            self.resolved[key] = result
            if self._trail:
                self._trail[-1].append(key)
        else:
            memo[key] = result
        return result

    @staticmethod
    def _is_stable(state: State) -> bool:
        return state.is_resolved if isinstance(state, NumState) else state != B_UNKNOWN

    def _compute(self, key: int, memo: Dict[int, State]) -> State:
        self.evals += 1
        stride = self._stride
        if stride and key >= stride:  # a loop-dependent node at t >= 1
            node = self.network.nodes[key % stride]
            base = key - node.id
            dependent = self._dependent
            children = [c + base if c in dependent else c for c in node.children]
        else:
            node = self.network.nodes[key]
            base = 0
            children = node.children
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
            child = self.state(children[0], memo)
            if child == B_UNKNOWN:
                return B_UNKNOWN
            return B_TRUE if child == B_FALSE else B_FALSE
        if kind is Kind.AND:
            saw_unknown = False
            for child_id in children:
                child = self.state(child_id, memo)
                if child == B_FALSE:
                    return B_FALSE
                if child == B_UNKNOWN:
                    saw_unknown = True
            return B_UNKNOWN if saw_unknown else B_TRUE
        if kind is Kind.OR:
            saw_unknown = False
            for child_id in children:
                child = self.state(child_id, memo)
                if child == B_TRUE:
                    return B_TRUE
                if child == B_UNKNOWN:
                    saw_unknown = True
            return B_UNKNOWN if saw_unknown else B_FALSE
        if kind is Kind.ATOM:
            left = self.state(children[0], memo)
            right = self.state(children[1], memo)
            return atom_state(node.payload, left, right)
        if kind is Kind.GUARD:
            event = self.state(children[0], memo)
            if event == B_TRUE:
                return NumState.point(node.payload)
            if event == B_FALSE:
                return NumState.undefined()
            return NumState(node.payload, node.payload, True, True)
        if kind is Kind.COND:
            event = self.state(children[0], memo)
            if event == B_FALSE:
                return NumState.undefined()
            value = self.state(children[1], memo)
            if event == B_TRUE:
                return value
            if not value.may_def:
                return NumState.undefined()
            return NumState(value.lo, value.hi, True, True)
        if kind is Kind.SUM:
            total = NumState.undefined()
            for child_id in children:
                total = num_add(total, self.state(child_id, memo))
            return total
        if kind is Kind.PROD:
            product = NumState.point(1.0)
            for child_id in children:
                product = num_mul(product, self.state(child_id, memo))
            return product
        if kind is Kind.INV:
            return num_inv(self.state(children[0], memo))
        if kind is Kind.POW:
            return num_pow(self.state(children[0], memo), node.payload)
        if kind is Kind.DIST:
            left = self.state(children[0], memo)
            right = self.state(children[1], memo)
            return num_dist(left, right, node.payload)
        if kind is Kind.LOOP_IN:
            _, init_node, next_node = self.network.slots[node.payload[0]]
            if not base:
                return self.state(init_node, memo)
            return self.state(self._key(next_node, base - stride), memo)
        raise TypeError(f"cannot evaluate node kind {kind!r}")

    def _key(self, node_id: int, base: int) -> int:
        """Key of ``node_id`` at the iteration ``base = t·N`` names."""
        if node_id >= self._stride > 0:  # its key would read as another node's
            raise ValueError(f"node {node_id} was added after the evaluator was made")
        return node_id + base if node_id in self._dependent else node_id

    # -- readers at the final iteration ------------------------------------

    def target_states(self, target_ids: Sequence[int]) -> Dict[int, State]:
        memo: Dict[int, State] = {}
        return {
            target_id: self.state(self._key(target_id, self._final), memo)
            for target_id in target_ids
        }

    def node_state(self, node_id: int, memo: Dict[int, State]) -> State:
        """State of an arbitrary node (uniform across evaluator kinds)."""
        return self.state(self._key(node_id, self._final), memo)

    def count_unresolved(self, node_ids: Sequence[int]) -> int:
        """How many of the nodes are still unresolved (ordering hook)."""
        resolved, final = self.resolved, self._final
        if final:
            node_ids = [self._key(node_id, final) for node_id in node_ids]
        return sum(1 for key in node_ids if key not in resolved)

    def slot_trace(self, max_iterations: Optional[int] = None) -> Tuple[int, bool]:
        """Detect mask convergence across iterations (Section 4.1, end).

        Evaluates the slots' next nodes iteration by iteration under the
        *current* assignment and reports ``(iterations_run, converged)``:
        converged means two consecutive iterations produced identical
        resolved slot states, so further iterations cannot change the
        result (the paper's convergence check over masks).
        """
        limit = max_iterations or self.network.iterations or 1
        memo: Dict[int, State] = {}
        previous: Optional[List[State]] = None
        for iteration in range(limit):
            base = iteration * self._stride
            current = [
                self.state(self._key(next_node, base), memo)
                for _, _, next_node in self.network.slots.values()
            ]
            if previous is not None and _converged(previous, current):
                return iteration, True
            previous = current
        return limit, False


def _converged(left: Sequence[State], right: Sequence[State]) -> bool:
    """Are two slot-state lists equal and resolved, state for state?"""
    for a, b in zip(left, right):
        if isinstance(a, NumState):
            if not isinstance(b, NumState) or not (
                (a.is_undefined and b.is_undefined)
                or (a.is_point and b.is_point and _points_equal(a.lo, b.lo))
            ):
                return False
        elif a != b or a == B_UNKNOWN:
            return False
    return True
