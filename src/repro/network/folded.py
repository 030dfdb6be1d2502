"""Folded event networks for bounded-range loops (paper, Section 4.2).

ENFrame offers two encodings of loops: *unfolded* (every iteration's
events are distinct nodes — what :mod:`repro.network.build` produces for
a grounded program) and *folded*, "in which all iterations are captured
into a single set of nodes" and compilation loops over the same nodes
with a per-iteration mask ``M[t][v]``.

A :class:`FoldedNetwork` is an event network with *loop-input* nodes:
each names a slot whose value at iteration ``t`` is the value of the
slot's *next* node at iteration ``t-1`` (or of its *init* node for
``t = 0``).  Folded networks trade memory for bookkeeping: the network
is independent of the iteration count, matching the paper's observation
that unfolding "can lead to prohibitively large event networks".
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..events.expressions import CVal, Event, Expression
from .build import NetworkBuilder
from .nodes import EventNetwork, Kind


class LoopEvent(Event):
    """A Boolean loop-carried slot, used inside template expressions."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"⟲{self.name}"

    def _compute_hash(self) -> int:
        return hash(("loop-event", self.name))

    __hash__ = Expression.__hash__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LoopEvent) and other.name == self.name


class LoopCVal(CVal):
    """A numeric loop-carried slot, used inside template expressions."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"⟲{self.name}"

    def _compute_hash(self) -> int:
        return hash(("loop-cval", self.name))

    __hash__ = Expression.__hash__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LoopCVal) and other.name == self.name


class FoldedNetwork(EventNetwork):
    """An event network with loop-input slots and an iteration count."""

    def __init__(self, iterations: int) -> None:
        super().__init__()
        if iterations < 1:
            raise ValueError("folded networks need at least one iteration")
        self.iterations = iterations
        # slot name -> (loop_in node, init node, next node)
        self.slots: Dict[str, Tuple[int, Optional[int], Optional[int]]] = {}
        # (node count at computation time, dependent set) — keyed by size
        # so growing the network invalidates it.
        self._loop_dependent: Optional[Tuple[int, Set[int]]] = None

    def define_slot(self, name: str, init_node: int, next_node: int) -> None:
        """Bind a slot's initial value and its iteration update."""
        if name not in self.slots:
            raise KeyError(f"slot {name!r} was never referenced by the template")
        loop_in, _, _ = self.slots[name]
        self.slots[name] = (loop_in, init_node, next_node)
        self._loop_dependent = None
        # Rebinding changes the iteration semantics without growing the
        # network, so the size-keyed flat IR must be dropped too.
        self._flat_ir = None

    def check_complete(self) -> None:
        for name, (_, init_node, next_node) in self.slots.items():
            if init_node is None or next_node is None:
                raise ValueError(f"slot {name!r} has no init/next binding")

    def loop_dependent(self) -> Set[int]:
        """Node ids whose value can change across iterations.

        ``self.nodes`` is topologically ordered (children precede
        parents), so a single pass settles the fixpoint: by the time a
        node is visited, every child's dependence is already known.
        Cached per network size, so nodes appended after the first call
        (e.g. late targets) are classified too.
        """
        cached = self._loop_dependent
        if cached is not None and cached[0] == len(self.nodes):
            return cached[1]
        dependent: Set[int] = {
            loop_in for loop_in, _, _ in self.slots.values()
        }
        for node in self.nodes:
            if node.id not in dependent and any(
                child in dependent for child in node.children
            ):
                dependent.add(node.id)
        self._loop_dependent = (len(self.nodes), dependent)
        return dependent


class FoldedBuilder(NetworkBuilder):
    """Builds folded networks; template expressions may use loop slots."""

    def __init__(self, iterations: int) -> None:
        super().__init__(FoldedNetwork(iterations))

    @property
    def folded(self) -> FoldedNetwork:
        network = self.network
        assert isinstance(network, FoldedNetwork)
        return network

    def _loop_in(self, expression: LoopEvent | LoopCVal) -> int:
        """A loop slot's input node, registering the slot on first use."""
        is_boolean = isinstance(expression, LoopEvent)
        payload = (expression.name, is_boolean)
        node_id = self.network._intern(Kind.LOOP_IN, (), payload, payload)
        self.folded.slots.setdefault(expression.name, (node_id, None, None))
        return node_id

    RULES = {
        **NetworkBuilder.RULES,
        LoopEvent: _loop_in,
        LoopCVal: _loop_in,
    }

    def define_slot(
        self, name: str, init: Expression, next_value: Expression
    ) -> None:
        """Build the init/next expressions and bind them to a slot."""
        init_node = self.build(init)
        next_node = self.build(next_value)
        self.folded.define_slot(name, init_node, next_node)

    def add_target(self, name: str, expression: Expression) -> int:
        """Build a target expression (evaluated at the last iteration)."""
        node_id = self.build(expression)
        self.network.bind_name(name, node_id)
        self.network.add_target(name, node_id)
        return node_id
