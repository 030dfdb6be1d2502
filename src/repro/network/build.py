"""Building event networks from event programs.

Grounds an :class:`~repro.events.program.EventProgram` into a hash-consed
:class:`~repro.network.nodes.EventNetwork`: every named declaration is
built once and references resolve to the already-built node, so shared
subprograms are physically shared in the network (Section 4.1: "Expressions
common to several events are only represented once in such graphs").
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..events.expressions import (
    And,
    Atom,
    CDist,
    CInv,
    CPow,
    CProd,
    CRef,
    CSum,
    Cond,
    Event,
    Expression,
    Guard,
    Not,
    Or,
    Ref,
    Var,
    _FalseEvent,
    _TrueEvent,
)
from ..events.program import EventProgram
from .nodes import EventNetwork, Kind


def _payload_key(value) -> tuple:
    if isinstance(value, np.ndarray):
        return ("vec", value.shape, value.tobytes())
    return ("scalar", value)


#: How an expression of one type becomes a node: build its operands and
#: intern.  Each rule reads its operand fields directly, because
#: ``children()`` allocates a tuple per call and this runs once per
#: expression object of a program.
Rule = Callable[["NetworkBuilder", Expression], int]


def _true(builder: NetworkBuilder, expression: _TrueEvent) -> int:
    return builder.network._intern(Kind.TRUE, (), None, None)


def _false(builder: NetworkBuilder, expression: _FalseEvent) -> int:
    return builder.network._intern(Kind.FALSE, (), None, None)


def _var(builder: NetworkBuilder, expression: Var) -> int:
    index = expression.index
    return builder.network._intern(Kind.VAR, (), index, index)


def _ref(builder: NetworkBuilder, expression: Ref | CRef) -> int:
    names = builder.network.names
    if expression.name not in names:
        raise KeyError(f"reference to {expression.name!r} before its declaration")
    return names[expression.name]


def _not(builder: NetworkBuilder, expression: Not) -> int:
    child = builder.build(expression.child)
    return builder.network._intern(Kind.NOT, (child,), None, None)


def _and(builder: NetworkBuilder, expression: And) -> int:
    children = tuple(map(builder.build, expression.operands))
    return builder.network._intern(Kind.AND, children, None, None)


def _or(builder: NetworkBuilder, expression: Or) -> int:
    children = tuple(map(builder.build, expression.operands))
    return builder.network._intern(Kind.OR, children, None, None)


def _atom(builder: NetworkBuilder, expression: Atom) -> int:
    children = (builder.build(expression.left), builder.build(expression.right))
    op = expression.op
    return builder.network._intern(Kind.ATOM, children, op, op)


def _guard(builder: NetworkBuilder, expression: Guard) -> int:
    event, value = builder.build(expression.event), expression.value
    return builder.network._intern(Kind.GUARD, (event,), value, _payload_key(value))


def _cond(builder: NetworkBuilder, expression: Cond) -> int:
    children = (builder.build(expression.event), builder.build(expression.cval))
    return builder.network._intern(Kind.COND, children, None, None)


def _sum(builder: NetworkBuilder, expression: CSum) -> int:
    children = tuple(map(builder.build, expression.terms))
    return builder.network._intern(Kind.SUM, children, None, None)


def _prod(builder: NetworkBuilder, expression: CProd) -> int:
    children = tuple(map(builder.build, expression.factors))
    return builder.network._intern(Kind.PROD, children, None, None)


def _inv(builder: NetworkBuilder, expression: CInv) -> int:
    child = builder.build(expression.child)
    return builder.network._intern(Kind.INV, (child,), None, None)


def _pow(builder: NetworkBuilder, expression: CPow) -> int:
    child, exponent = builder.build(expression.child), expression.exponent
    return builder.network._intern(Kind.POW, (child,), exponent, exponent)


def _dist(builder: NetworkBuilder, expression: CDist) -> int:
    children = (builder.build(expression.left), builder.build(expression.right))
    metric = expression.metric
    return builder.network._intern(Kind.DIST, children, metric, metric)


class NetworkBuilder:
    """Translates expressions into interned network nodes.

    Sharing is decided in one place, :meth:`EventNetwork._intern`'s
    ``(kind, children, key)`` table: structurally equal expressions
    intern to one node however many objects spell them.  The memo here
    is only work-sharing for an object met twice (a subexpression reused
    by reference), so it is keyed on identity rather than on the
    expressions' structural hash.  Each entry keeps its expression alive,
    so an ``id()`` is never reused while it is a key.
    """

    RULES: Dict[type, Rule] = {
        _TrueEvent: _true,
        _FalseEvent: _false,
        Var: _var,
        Ref: _ref,
        CRef: _ref,
        Not: _not,
        And: _and,
        Or: _or,
        Atom: _atom,
        Guard: _guard,
        Cond: _cond,
        CSum: _sum,
        CProd: _prod,
        CInv: _inv,
        CPow: _pow,
        CDist: _dist,
    }

    def __init__(self, network: Optional[EventNetwork] = None) -> None:
        self.network = network if network is not None else EventNetwork()
        self._memo: Dict[int, int] = {}  # id(expression) -> node id
        self._keys: List[Expression] = []  # keeps every memoised id in use

    def build_program(self, program: EventProgram) -> EventNetwork:
        """Ground every declaration, bind names, and mark targets."""
        for name, expression in program.items():
            node_id = self.build(expression)
            self.network.bind_name(name, node_id)
        for target in program.targets:
            self.network.add_target(target, self.network.names[target])
        return self.network

    def build(self, expression: Expression) -> int:
        """Build (or reuse) the node for an expression; returns its id."""
        key = id(expression)
        node_id = self._memo.get(key)
        if node_id is None:
            rule = self.RULES.get(type(expression))
            if rule is None:
                raise TypeError(f"cannot build node for {type(expression)}")
            node_id = self._memo[key] = rule(self, expression)
            self._keys.append(expression)
        return node_id


def build_network(program: EventProgram) -> EventNetwork:
    """Convenience wrapper: ground an event program into a network."""
    return NetworkBuilder().build_program(program)


def build_targets(
    expressions: Dict[str, Event], extra: Optional[Iterable[Tuple[str, Event]]] = None
) -> EventNetwork:
    """Build a network directly from a mapping of target events.

    Handy for tests and for compiling ad-hoc events that are not part of
    a named program.
    """
    builder = NetworkBuilder()
    for name, expression in expressions.items():
        node_id = builder.build(expression)
        builder.network.bind_name(name, node_id)
        builder.network.add_target(name, node_id)
    if extra:
        for name, expression in extra:
            builder.network.bind_name(name, builder.build(expression))
    return builder.network
