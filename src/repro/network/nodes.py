"""Node representation of event networks (paper, Section 4.1).

An *event network* is the graph representation of an event program:
nodes are Boolean connectives, comparisons, aggregates and c-values;
edges point from operators to their operands.  Expressions common to
several events are represented once (hash-consing, done by the builder).

Nodes are plain records addressed by dense integer ids — the probability
computation algorithms traverse networks in tight loops, so we keep the
representation flat and primitive.

A network may carry a loop (Section 4.2, the *folded* encoding): its
*loop-input* nodes each name a slot whose value at iteration ``t`` is
the value of the slot's *next* node at ``t - 1`` (of its *init* node at
``t = 0``), and every iteration evaluates the same nodes.  A network
without a loop is the case with no slots.
"""

from __future__ import annotations

from collections import Counter
from enum import IntEnum
from itertools import chain
from typing import Dict, List, Optional, Sequence, Set, Tuple


class InvalidNetworkError(ValueError):
    """A network no evaluator can run, rejected where it is built or
    loaded: a loop slot without a loop, an unbound or cyclic slot
    initialisation, a vector c-value that is not a non-empty 1-d array."""


def check_vector(value) -> None:
    """A vector c-value (a NumPy array) must be a non-empty 1-d array."""
    if value.ndim != 1 or value.size == 0:
        raise InvalidNetworkError(
            f"vector c-values must be non-empty 1-d arrays, not shape {value.shape}"
        )


class Kind(IntEnum):
    """Node kinds; Boolean kinds first, numeric (c-value) kinds second."""

    TRUE = 0
    FALSE = 1
    VAR = 2
    NOT = 3
    AND = 4
    OR = 5
    ATOM = 6
    GUARD = 7  # EVENT ⊗ VAL
    COND = 8  # EVENT ∧ CVAL
    SUM = 9
    PROD = 10
    INV = 11
    POW = 12
    DIST = 13
    LOOP_IN = 14  # loop-carried input slot of a folded network


BOOLEAN_KINDS = frozenset(
    {Kind.TRUE, Kind.FALSE, Kind.VAR, Kind.NOT, Kind.AND, Kind.OR, Kind.ATOM}
)


class Node:
    """One node of an event network."""

    __slots__ = ("id", "kind", "children", "payload")

    def __init__(
        self, node_id: int, kind: Kind, children: Tuple[int, ...], payload
    ) -> None:
        self.id = node_id
        self.kind = kind
        self.children = children
        self.payload = payload

    @property
    def is_boolean(self) -> bool:
        return self.kind in BOOLEAN_KINDS or (
            self.kind is Kind.LOOP_IN and self.payload[1]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.id}, {self.kind.name}, children={self.children})"


class EventNetwork:
    """A hash-consed DAG of event-network nodes with named targets.

    ``iterations`` is the loop's iteration count, ``None`` for a network
    without a loop (which lowers as one iteration).  ``slots`` maps each
    slot name to ``(loop-input node, init node, next node)``.
    """

    def __init__(self, iterations: Optional[int] = None) -> None:
        if iterations is not None and iterations < 1:
            raise InvalidNetworkError("a loop needs at least one iteration")
        self.iterations = iterations
        self.slots: Dict[str, Tuple[int, Optional[int], Optional[int]]] = {}
        # (node count, dependent set): see loop_dependent.
        self._loop_dependent: Optional[Tuple[int, Set[int]]] = None
        self.nodes: List[Node] = []
        self.targets: Dict[str, int] = {}
        self.names: Dict[str, int] = {}
        self._interner: Dict[tuple, int] = {}
        self._parents: Optional[List[Tuple[int, ...]]] = None
        # (node count, variable -> parent count); see variable_frequencies.
        self._frequencies: Optional[Tuple[int, Dict[int, int]]] = None

    # ------------------------------------------------------------------
    # Construction (used by the builder; not part of the public API)
    # ------------------------------------------------------------------

    def _intern(self, kind: Kind, children: Tuple[int, ...], payload, key) -> int:
        full_key = (int(kind), children, key)
        existing = self._interner.get(full_key)
        if existing is not None:
            return existing
        node_id = len(self.nodes)
        self.nodes.append(Node(node_id, kind, children, payload))
        self._interner[full_key] = node_id
        self._parents = None
        return node_id

    def add_target(self, name: str, node_id: int) -> None:
        if not self.nodes[node_id].is_boolean:
            raise TypeError(f"target {name!r} must be a Boolean node")
        self.targets[name] = node_id

    def bind_name(self, name: str, node_id: int) -> None:
        self.names[name] = node_id

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
        """Raise :class:`InvalidNetworkError` unless every slot is bound
        and no slot's initial value depends on its own loop input.

        At ``t = 0`` a loop input reads its init node in the same
        iteration, so the init edges must not close a cycle; the walk
        follows them (and operands) through loop-dependent nodes only.
        """
        for name, (_, init_node, next_node) in self.slots.items():
            if init_node is None or next_node is None:
                raise InvalidNetworkError(f"slot {name!r} has no init/next binding")
        dependent = self.loop_dependent()
        init_of = {loop_in: init for loop_in, init, _ in self.slots.values()}
        done: Dict[int, bool] = {}  # False while on the walk's path
        for root in init_of:
            stack = [(root, False)]
            while stack:
                node_id, leaving = stack.pop()
                if leaving:
                    done[node_id] = True
                    continue
                if node_id in done:
                    continue
                done[node_id] = False
                stack.append((node_id, True))
                init = init_of.get(node_id)
                for dep in self.nodes[node_id].children if init is None else (init,):
                    if dep in dependent:
                        if done.get(dep) is False:
                            raise InvalidNetworkError("cyclic slot initialisation")
                        stack.append((dep, False))

    def loop_dependent(self) -> Set[int]:
        """Node ids whose value can change across iterations.

        ``self.nodes`` is topologically ordered (children precede
        parents), so a single pass settles the fixpoint.  Cached per
        network size, so nodes appended later are classified too.
        """
        cached = self._loop_dependent
        if cached is not None and cached[0] == len(self.nodes):
            return cached[1]
        dependent = {loop_in for loop_in, _, _ in self.slots.values()}
        if dependent:
            for node in self.nodes:
                if node.id not in dependent and any(
                    child in dependent for child in node.children
                ):
                    dependent.add(node.id)
        self._loop_dependent = (len(self.nodes), dependent)
        return dependent

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def variables(self) -> Set[int]:
        """Indices of the random variables appearing in the network."""
        return {
            node.payload for node in self.nodes if node.kind is Kind.VAR
        }

    def variable_frequencies(self) -> Dict[int, int]:
        """How many parents each random variable feeds (ordering heuristic).

        Counted in one pass over the operand lists, without building the
        parent adjacency, and cached until the network grows.
        """
        nodes, cached = self.nodes, self._frequencies
        if cached is None or cached[0] != len(nodes):
            fan_in = Counter(chain.from_iterable([node.children for node in nodes]))
            counts = {n.payload: fan_in[n.id] for n in nodes if n.kind is Kind.VAR}
            cached = self._frequencies = (len(nodes), counts)
        return dict(cached[1])

    def parents(self) -> List[Tuple[int, ...]]:
        """Parent adjacency (computed lazily and cached)."""
        if self._parents is None:
            lists: List[List[int]] = [[] for _ in self.nodes]
            for node in self.nodes:
                for child in node.children:
                    lists[child].append(node.id)
            self._parents = [tuple(parent_list) for parent_list in lists]
        return self._parents

    def reachable_from(self, roots: Sequence[int]) -> Set[int]:
        """All node ids reachable (downwards) from the given roots."""
        seen: Set[int] = set()
        stack = list(roots)
        while stack:
            node_id = stack.pop()
            if node_id in seen:
                continue
            seen.add(node_id)
            stack.extend(self.nodes[node_id].children)
        return seen

    def depth(self) -> int:
        """Longest root-to-leaf path length in the DAG."""
        depths = [0] * len(self.nodes)
        for node in self.nodes:  # children always precede parents
            if node.children:
                depths[node.id] = 1 + max(depths[c] for c in node.children)
        return max(depths, default=0)

    def stats(self) -> Dict[str, int]:
        """Counts per node kind plus global size measures."""
        counts: Dict[str, int] = {}
        for node in self.nodes:
            counts[node.kind.name] = counts.get(node.kind.name, 0) + 1
        counts["total"] = len(self.nodes)
        counts["targets"] = len(self.targets)
        counts["variables"] = len(self.variables())
        counts["depth"] = self.depth()
        return counts
