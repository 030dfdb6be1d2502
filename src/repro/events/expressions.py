"""Abstract syntax of the event language (paper, Section 3.1).

Two mutually recursive expression families:

* **Events** — propositional formulas over the constants ``⊤``/``⊥``, a set
  ``X`` of Boolean random variables, named event identifiers, and *atoms*
  ``[CVAL cmp CVAL]`` comparing two conditional values.
* **Conditional values (c-values)** — ``EVENT ⊗ VAL`` guards, sums,
  products, inverses, integer powers, distances, and ``EVENT ∧ CVAL``
  conditionals.

All nodes are immutable and hashable, with structural equality.  Event
networks share common subexpressions by interning nodes, not by hashing
expressions (see :mod:`repro.network.build`).
Convenience constructors (:func:`conj`, :func:`disj`, :func:`csum`, ...)
perform light simplification (constant folding, flattening) so that
builders can generate large programs without blowing up the structure.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Set, Tuple

import numpy as np

from .values import Value, format_value

COMPARISON_OPS = ("<=", ">=", "<", ">", "==")


class Expression:
    """Base class for events and c-values; immutable, hashable.

    Hashes are computed once and cached: children are hashed when they
    are constructed, so hashing a whole program is linear in its size.
    """

    __slots__ = ("_hash",)

    def _compute_hash(self) -> int:
        raise NotImplementedError

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            result = self._compute_hash()
            self._hash = result
            return result

    def children(self) -> Tuple["Expression", ...]:
        return ()

    def variables(self) -> Set[int]:
        """The set of random-variable indices appearing in the expression."""
        seen: Set[int] = set()
        stack: list[Expression] = [self]
        visited: Set[int] = set()
        while stack:
            node = stack.pop()
            if id(node) in visited:
                continue
            visited.add(id(node))
            if isinstance(node, Var):
                seen.add(node.index)
            stack.extend(node.children())
        return seen

    def references(self) -> Set[str]:
        """The set of event identifiers referenced by the expression.

        References are leaves and usually most of what a declaration's
        walk meets, so they skip the visited-set bookkeeping.
        """
        seen: Set[str] = set()
        stack: list[Expression] = [self]
        visited: Set[int] = set()
        while stack:
            node = stack.pop()
            if type(node) in _REFERENCE_TYPES:
                seen.add(node.name)
                continue
            key = id(node)
            if key in visited:
                continue
            visited.add(key)
            stack.extend(node.children())
        return seen


class Event(Expression):
    """Base class for Boolean event expressions."""

    __slots__ = ()

    def __and__(self, other: "Event") -> "Event":
        return conj([self, other])

    def __or__(self, other: "Event") -> "Event":
        return disj([self, other])

    def __invert__(self) -> "Event":
        return negate(self)


class CVal(Expression):
    """Base class for conditional-value expressions."""

    __slots__ = ()

    def __add__(self, other: "CVal") -> "CVal":
        return csum([self, other])

    def __mul__(self, other: "CVal") -> "CVal":
        return cprod([self, other])


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------


class _TrueEvent(Event):
    __slots__ = ()

    def __repr__(self) -> str:
        return "⊤"

    def _compute_hash(self) -> int:
        return hash("⊤")

    __hash__ = Expression.__hash__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _TrueEvent)


class _FalseEvent(Event):
    __slots__ = ()

    def __repr__(self) -> str:
        return "⊥"

    def _compute_hash(self) -> int:
        return hash("⊥")

    __hash__ = Expression.__hash__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _FalseEvent)


TRUE = _TrueEvent()
FALSE = _FalseEvent()


class Var(Event):
    """A Boolean random variable ``x_i`` from the pool."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __repr__(self) -> str:
        return f"x{self.index}"

    def _compute_hash(self) -> int:
        return hash(("var", self.index))

    __hash__ = Expression.__hash__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and other.index == self.index


class Ref(Event):
    """A reference to a named event declared earlier in the program."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name

    def _compute_hash(self) -> int:
        return hash(("ref", self.name))

    __hash__ = Expression.__hash__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ref) and other.name == self.name


class Not(Event):
    __slots__ = ("child",)

    def __init__(self, child: Event) -> None:
        self.child = child

    def children(self) -> Tuple[Expression, ...]:
        return (self.child,)

    def __repr__(self) -> str:
        return f"¬{self.child!r}"

    def _compute_hash(self) -> int:
        return hash(("not", self.child))

    __hash__ = Expression.__hash__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Not) and other.child == self.child


class And(Event):
    __slots__ = ("operands",)

    def __init__(self, operands: Sequence[Event]) -> None:
        self.operands = tuple(operands)

    def children(self) -> Tuple[Expression, ...]:
        return self.operands

    def __repr__(self) -> str:
        return "(" + " ∧ ".join(repr(op) for op in self.operands) + ")"

    def _compute_hash(self) -> int:
        return hash(("and", self.operands))

    __hash__ = Expression.__hash__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, And) and other.operands == self.operands


class Or(Event):
    __slots__ = ("operands",)

    def __init__(self, operands: Sequence[Event]) -> None:
        self.operands = tuple(operands)

    def children(self) -> Tuple[Expression, ...]:
        return self.operands

    def __repr__(self) -> str:
        return "(" + " ∨ ".join(repr(op) for op in self.operands) + ")"

    def _compute_hash(self) -> int:
        return hash(("or", self.operands))

    __hash__ = Expression.__hash__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Or) and other.operands == self.operands


class Atom(Event):
    """Comparison ``[CVAL op CVAL]`` between two conditional values."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: "CVal", right: "CVal") -> None:
        if op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"[{self.left!r} {self.op} {self.right!r}]"

    def _compute_hash(self) -> int:
        return hash(("atom", self.op, self.left, self.right))

    __hash__ = Expression.__hash__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Atom)
            and other.op == self.op
            and other.left == self.left
            and other.right == self.right
        )


# ----------------------------------------------------------------------
# Conditional values
# ----------------------------------------------------------------------


def _freeze_value(value) -> Value:
    """Normalise literal payloads: sequences become read-only float arrays."""
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    array = np.asarray(value, dtype=float)
    array.setflags(write=False)
    return array


def _value_key(value: Value):
    if isinstance(value, np.ndarray):
        return ("vec", value.tobytes(), value.shape)
    return ("scalar", value)


class Guard(CVal):
    """``EVENT ⊗ VAL`` — takes value ``VAL`` when the event holds, else ``u``."""

    __slots__ = ("event", "value")

    def __init__(self, event: Event, value) -> None:
        self.event = event
        self.value = _freeze_value(value)

    def children(self) -> Tuple[Expression, ...]:
        return (self.event,)

    def __repr__(self) -> str:
        return f"({self.event!r} ⊗ {format_value(self.value)})"

    def _compute_hash(self) -> int:
        return hash(("guard", self.event, _value_key(self.value)))

    __hash__ = Expression.__hash__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Guard)
            and other.event == self.event
            and _value_key(other.value) == _value_key(self.value)
        )


class Cond(CVal):
    """``EVENT ∧ CVAL`` — the c-value when the event holds, else ``u``."""

    __slots__ = ("event", "cval")

    def __init__(self, event: Event, cval: CVal) -> None:
        self.event = event
        self.cval = cval

    def children(self) -> Tuple[Expression, ...]:
        return (self.event, self.cval)

    def __repr__(self) -> str:
        return f"({self.event!r} ∧ {self.cval!r})"

    def _compute_hash(self) -> int:
        return hash(("cond", self.event, self.cval))

    __hash__ = Expression.__hash__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Cond)
            and other.event == self.event
            and other.cval == self.cval
        )


class CSum(CVal):
    __slots__ = ("terms",)

    def __init__(self, terms: Sequence[CVal]) -> None:
        self.terms = tuple(terms)

    def children(self) -> Tuple[Expression, ...]:
        return self.terms

    def __repr__(self) -> str:
        return "(" + " + ".join(repr(term) for term in self.terms) + ")"

    def _compute_hash(self) -> int:
        return hash(("csum", self.terms))

    __hash__ = Expression.__hash__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CSum) and other.terms == self.terms


class CProd(CVal):
    __slots__ = ("factors",)

    def __init__(self, factors: Sequence[CVal]) -> None:
        self.factors = tuple(factors)

    def children(self) -> Tuple[Expression, ...]:
        return self.factors

    def __repr__(self) -> str:
        return "(" + " · ".join(repr(factor) for factor in self.factors) + ")"

    def _compute_hash(self) -> int:
        return hash(("cprod", self.factors))

    __hash__ = Expression.__hash__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CProd) and other.factors == self.factors


class CInv(CVal):
    __slots__ = ("child",)

    def __init__(self, child: CVal) -> None:
        self.child = child

    def children(self) -> Tuple[Expression, ...]:
        return (self.child,)

    def __repr__(self) -> str:
        return f"{self.child!r}⁻¹"

    def _compute_hash(self) -> int:
        return hash(("cinv", self.child))

    __hash__ = Expression.__hash__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CInv) and other.child == self.child


class CPow(CVal):
    __slots__ = ("child", "exponent")

    def __init__(self, child: CVal, exponent: int) -> None:
        self.child = child
        self.exponent = int(exponent)

    def children(self) -> Tuple[Expression, ...]:
        return (self.child,)

    def __repr__(self) -> str:
        return f"{self.child!r}^{self.exponent}"

    def _compute_hash(self) -> int:
        return hash(("cpow", self.child, self.exponent))

    __hash__ = Expression.__hash__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CPow)
            and other.child == self.child
            and other.exponent == self.exponent
        )


class CDist(CVal):
    """Distance between two (vector-valued) c-values."""

    __slots__ = ("left", "right", "metric")

    def __init__(self, left: CVal, right: CVal, metric: str = "euclidean") -> None:
        self.left = left
        self.right = right
        self.metric = metric

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"dist({self.left!r}, {self.right!r})"

    def _compute_hash(self) -> int:
        return hash(("cdist", self.left, self.right, self.metric))

    __hash__ = Expression.__hash__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CDist)
            and other.left == self.left
            and other.right == self.right
            and other.metric == self.metric
        )


class CRef(CVal):
    """Reference to a named c-value declared earlier in the program."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name

    def _compute_hash(self) -> int:
        return hash(("cref", self.name))

    __hash__ = Expression.__hash__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CRef) and other.name == self.name


_REFERENCE_TYPES = (Ref, CRef)


# ----------------------------------------------------------------------
# Smart constructors with light simplification
# ----------------------------------------------------------------------


def var(index: int) -> Var:
    return Var(index)


def negate(event: Event) -> Event:
    if event is TRUE:
        return FALSE
    if event is FALSE:
        return TRUE
    if isinstance(event, Not):
        return event.child
    return Not(event)


def conj(operands: Iterable[Event]) -> Event:
    """N-ary conjunction with flattening and constant folding."""
    flat: list[Event] = []
    for operand in operands:
        if operand is FALSE:
            return FALSE
        if operand is TRUE:
            continue
        if isinstance(operand, And):
            flat.extend(operand.operands)
        else:
            flat.append(operand)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(flat)


def disj(operands: Iterable[Event]) -> Event:
    """N-ary disjunction with flattening and constant folding."""
    flat: list[Event] = []
    for operand in operands:
        if operand is TRUE:
            return TRUE
        if operand is FALSE:
            continue
        if isinstance(operand, Or):
            flat.extend(operand.operands)
        else:
            flat.append(operand)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(flat)


def atom(op: str, left: CVal, right: CVal) -> Atom:
    return Atom(op, left, right)


def guard(event: Event, value) -> Guard:
    return Guard(event, value)


def cond(event: Event, cval: CVal) -> CVal:
    if event is TRUE:
        return cval
    return Cond(event, cval)


def csum(terms: Iterable[CVal]) -> CVal:
    flat: list[CVal] = []
    for term in terms:
        if isinstance(term, CSum):
            flat.extend(term.terms)
        else:
            flat.append(term)
    if len(flat) == 1:
        return flat[0]
    return CSum(flat)


def cprod(factors: Iterable[CVal]) -> CVal:
    flat: list[CVal] = []
    for factor in factors:
        if isinstance(factor, CProd):
            flat.extend(factor.factors)
        else:
            flat.append(factor)
    if len(flat) == 1:
        return flat[0]
    return CProd(flat)


def cinv(child: CVal) -> CInv:
    return CInv(child)


def cpow(child: CVal, exponent: int) -> CPow:
    return CPow(child, exponent)


def cdist(left: CVal, right: CVal, metric: str = "euclidean") -> CDist:
    return CDist(left, right, metric)


def cref(name: str) -> CRef:
    return CRef(name)


def ref(name: str) -> Ref:
    return Ref(name)


def literal(value) -> Guard:
    """A certain c-value ``⊤ ⊗ value``."""
    return Guard(TRUE, value)
