"""The value domain of conditional values: scalars, vectors, and ``u``.

Section 3.2 of the paper extends the reals (and the feature space) with a
special *undefined* element ``u`` (``u̅`` for vectors) with the following
propagation rules:

* ``u + x = x``            (undefined is the identity of addition)
* ``u * x = u``            (undefined annihilates multiplication)
* ``0**-1 = u``            (inverting zero is undefined)
* ``dist(u, y) = u``
* ``[a cmp b]`` is *true* whenever either side is undefined.

We represent ``u`` with the singleton :data:`UNDEFINED`; defined values are
Python floats (scalars) or numpy arrays (feature vectors).
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np


class _Undefined:
    """Singleton sentinel for the undefined value ``u`` / ``u̅``."""

    _instance: "_Undefined" = None

    def __new__(cls) -> "_Undefined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "u"

    def __reduce__(self):
        return (_Undefined, ())


UNDEFINED = _Undefined()

Value = Union[float, np.ndarray, _Undefined]


def is_undefined(value: Value) -> bool:
    return value is UNDEFINED


def add(left: Value, right: Value) -> Value:
    """Addition with ``u`` acting as the identity element."""
    if left is UNDEFINED:
        return right
    if right is UNDEFINED:
        return left
    return left + right


def multiply(left: Value, right: Value) -> Value:
    """Multiplication with ``u`` acting as an annihilator."""
    if left is UNDEFINED or right is UNDEFINED:
        return UNDEFINED
    return left * right


def invert(value: Value) -> Value:
    """Multiplicative inverse; ``0**-1 = u`` and ``u**-1 = u``."""
    if value is UNDEFINED:
        return UNDEFINED
    if isinstance(value, np.ndarray):
        raise TypeError("invert is only defined for scalar values")
    if value == 0:
        return UNDEFINED
    return 1.0 / value


def power(value: Value, exponent: int) -> Value:
    """Integer exponentiation, propagating ``u``."""
    if value is UNDEFINED:
        return UNDEFINED
    if exponent < 0:
        return invert(power(value, -exponent))
    return value**exponent


def lane_sum(terms) -> float:
    """Sum of per-lane distance terms, left to right.

    The order both kernels accumulate a distance in.  ``np.sum`` adds
    pairwise from eight terms on, which rounds wide distances
    differently, so a scalar oracle would disagree with the engines it
    checks on an atom that compares equal distances.
    """
    total = 0.0
    for term in np.ravel(terms).tolist():
        total += term
    return total


def euclidean(left: np.ndarray, right: np.ndarray) -> float:
    return math.sqrt(squared_euclidean(left, right))


def squared_euclidean(left: np.ndarray, right: np.ndarray) -> float:
    diff = np.asarray(left, dtype=float) - np.asarray(right, dtype=float)
    return lane_sum(diff * diff)


def manhattan(left: np.ndarray, right: np.ndarray) -> float:
    diff = np.asarray(left, dtype=float) - np.asarray(right, dtype=float)
    return lane_sum(np.abs(diff))


DISTANCE_FUNCTIONS = {
    "euclidean": euclidean,
    "sqeuclidean": squared_euclidean,
    "manhattan": manhattan,
}


def distance(left: Value, right: Value, metric: str = "euclidean") -> Value:
    """Distance between two c-values; undefined if either side is ``u``."""
    if left is UNDEFINED or right is UNDEFINED:
        return UNDEFINED
    return DISTANCE_FUNCTIONS[metric](left, right)


def compare(op: str, left: Value, right: Value) -> bool:
    """Comparison semantics of atoms ``[CVAL op CVAL]``.

    Evaluates to *false* only when both sides are defined and the
    comparison does not hold; if at least one side is undefined the atom
    is *true* (Section 3.2, "ATOM, EVENT").
    """
    if left is UNDEFINED or right is UNDEFINED:
        return True
    lhs = _as_comparable(left)
    rhs = _as_comparable(right)
    if op == "<=":
        return lhs <= rhs
    if op == ">=":
        return lhs >= rhs
    if op == "<":
        return lhs < rhs
    if op == ">":
        return lhs > rhs
    if op == "==":
        return lhs == rhs
    raise ValueError(f"unknown comparison operator {op!r}")


def _as_comparable(value: Value) -> float:
    if isinstance(value, np.ndarray):
        raise TypeError("comparisons require scalar c-values")
    return float(value)


def values_equal(left: Value, right: Value, tolerance: float = 0.0) -> bool:
    """Structural equality of values (used by tests and convergence checks)."""
    if left is UNDEFINED or right is UNDEFINED:
        return left is right
    left_arr = np.asarray(left, dtype=float)
    right_arr = np.asarray(right, dtype=float)
    if left_arr.shape != right_arr.shape:
        return False
    if tolerance == 0.0:
        return bool(np.array_equal(left_arr, right_arr))
    return bool(np.allclose(left_arr, right_arr, atol=tolerance, rtol=0.0))


def is_scalar(value: Value) -> bool:
    return not isinstance(value, np.ndarray) and value is not UNDEFINED


def as_vector(value) -> np.ndarray:
    """Coerce a python sequence (or scalar) into a float feature vector."""
    array = np.asarray(value, dtype=float)
    if array.ndim == 0:
        array = array.reshape(1)
    return array


def _value_key_for_distribution(value: Value):
    """A hashable key identifying a value outcome (used to merge buckets)."""
    if value is UNDEFINED:
        return "u"
    if isinstance(value, np.ndarray):
        return ("vec", value.shape, value.tobytes())
    return ("scalar", float(value))


def format_value(value: Value, precision: int = 4) -> str:
    if value is UNDEFINED:
        return "u"
    if isinstance(value, np.ndarray):
        inner = ", ".join(f"{component:.{precision}g}" for component in value)
        return f"({inner})"
    if isinstance(value, float) and math.isfinite(value):
        return f"{value:.{precision}g}"
    return str(value)
