"""Node representation of event networks (paper, Section 4.1).

An *event network* is the graph representation of an event program:
nodes are Boolean connectives, comparisons, aggregates and c-values;
edges point from operators to their operands.  Expressions common to
several events are represented once (hash-consing, done by the builder).

Nodes are plain records addressed by dense integer ids — the probability
computation algorithms traverse networks in tight loops, so we keep the
representation flat and primitive.
"""

from __future__ import annotations

from collections import Counter
from enum import IntEnum
from itertools import chain
from typing import Dict, List, Optional, Sequence, Set, Tuple




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
    """A hash-consed DAG of event-network nodes with named targets."""

    def __init__(self) -> None:
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
