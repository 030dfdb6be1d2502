"""Variable-ordering strategies for the Shannon-expansion DFS.

The paper's compiler "chooses a next variable x' such that it influences
as many events as possible" (Section 4.1).  We provide:

* :class:`FrequencyOrder` — static order by how many network nodes a
  variable feeds (the default; a cheap proxy for influence);
* :class:`GivenOrder` — a caller-supplied order (used by tests and by
  the distributed scheduler so that all workers agree);
* :class:`DynamicInfluenceOrder` — the *reference* dynamic order: at
  every branching point, score each unassigned variable by how many
  still-unresolved nodes lie in its influence cone, computed by a
  Python walk over the network adjacency;
* :class:`ConeInfluenceOrder` — the same scores computed from the flat
  IR's precomputed per-variable cones intersected with the masked
  engine's resolved column (``order="dynamic"``, the default dynamic
  order used by :class:`~repro.compile.compiler.ShannonCompiler`).

The *influence cone* of a variable is the set of nodes whose value the
variable can still change: its VAR node(s) plus everything reachable
upwards through the parent edges (and, on folded networks, through the
implicit init/next → loop-input edges).  Scoring by unresolved cone
size is the paper's criterion applied to the not-yet-masked part of the
network; both dynamic strategies break ties towards the smallest
variable index, so they are interchangeable pick-for-pick (enforced by
the property suite).

Example — on ``var(0) AND var(1)``, assigning one variable leaves the
other as the only choice:

>>> from repro.compile.partial import PartialEvaluator
>>> from repro.events.expressions import conj, var
>>> from repro.network.build import build_targets
>>> network = build_targets({"t": conj([var(0), var(1)])})
>>> evaluator = PartialEvaluator(network)
>>> evaluator.push(0, True)
>>> make_order(network, "dynamic").next_variable(evaluator)
1
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Sequence, Set

from ..network.nodes import EventNetwork, Kind


class VariableOrder(Protocol):
    """Strategy interface: supply the next variable to branch on."""

    def next_variable(self, evaluator) -> Optional[int]:
        """Index of the next unassigned variable, or ``None`` if spent."""


class GivenOrder:
    """Branch on variables in a fixed, caller-supplied order.

    >>> order = GivenOrder([2, 0, 1])
    >>> class Evaluator:
    ...     assignment = {2: True}
    >>> order.next_variable(Evaluator())
    0
    """

    def __init__(self, order: Sequence[int]) -> None:
        self._order = list(order)

    def next_variable(self, evaluator) -> Optional[int]:
        assignment = evaluator.assignment
        for index in self._order:
            if index not in assignment:
                return index
        return None


class FrequencyOrder(GivenOrder):
    """Static order: most referenced variables first."""

    def __init__(self, network: EventNetwork) -> None:
        frequencies = network.variable_frequencies()
        order = sorted(frequencies, key=lambda index: (-frequencies[index], index))
        super().__init__(order)


class DynamicInfluenceOrder:
    """Reference dynamic order: largest unresolved influence cone first.

    At each branching point, every unassigned variable is scored by
    ``evaluator.count_unresolved(cone)`` where ``cone`` is the
    variable's influence cone — the upward closure of its VAR node(s)
    through the parent adjacency (plus the init/next → loop-input edges
    of folded networks).  Ties break towards the smallest variable
    index.  The parent adjacency is resolved once in ``__init__`` (it
    used to be re-fetched at every branching point) and cones are cached
    per variable, but the scoring itself is still a Python loop per
    cone node per choice; :class:`ConeInfluenceOrder` computes identical
    scores from the flat IR's vectorized resolved column.

    This strategy works with every evaluator kind — it only needs the
    ``assignment`` mapping and the ``count_unresolved`` hook.
    """

    def __init__(self, network: EventNetwork) -> None:
        self._network = network
        self._parents = network.parents()
        self._var_nodes: Dict[int, List[int]] = {}
        for node in network.nodes:
            if node.kind is Kind.VAR:
                self._var_nodes.setdefault(node.payload, []).append(node.id)
        self._indices = sorted(self._var_nodes)
        # Folded networks: a slot's init/next nodes feed its loop input,
        # so cones must follow those implicit edges too (mirrors
        # FlatNetwork.var_cone).
        self._loop_edges: Dict[int, List[int]] = {}
        for loop_in, init_node, next_node in getattr(network, "slots", {}).values():
            if init_node is not None:
                self._loop_edges.setdefault(init_node, []).append(loop_in)
            if next_node is not None:
                self._loop_edges.setdefault(next_node, []).append(loop_in)
        self._cones: Dict[int, List[int]] = {}

    def influence_cone(self, index: int) -> List[int]:
        """Node ids the variable can influence (cached upward closure)."""
        cone = self._cones.get(index)
        if cone is None:
            seen: Set[int] = set()
            stack = list(self._var_nodes.get(index, ()))
            while stack:
                node_id = stack.pop()
                if node_id in seen:
                    continue
                seen.add(node_id)
                stack.extend(self._parents[node_id])
                stack.extend(self._loop_edges.get(node_id, ()))
            cone = sorted(seen)
            self._cones[index] = cone
        return cone

    def next_variable(self, evaluator) -> Optional[int]:
        assignment = evaluator.assignment
        best_index: Optional[int] = None
        best_score = -1
        for index in self._indices:
            if index in assignment:
                continue
            score = evaluator.count_unresolved(self.influence_cone(index))
            if score > best_score:
                best_index = index
                best_score = score
        return best_index


class ConeInfluenceOrder:
    """Cone-aware dynamic order: precomputed cones ∩ the resolved mask.

    Scores are the same as :class:`DynamicInfluenceOrder` — unresolved
    node count in each unassigned variable's influence cone, smallest
    index on ties — but computed through the evaluator's vectorized
    ``count_unresolved_in_cone`` hook
    (:meth:`repro.engine.masked.MaskedEvaluator.count_unresolved_in_cone`):
    the flat IR's per-variable cone is intersected with the masked
    engine's resolved column in one NumPy operation instead of a Python
    scan over the network adjacency per choice.  Evaluators without the
    hook (the scalar oracles) fall back to a shared reference
    :class:`DynamicInfluenceOrder`, so the pick is identical either way.
    """

    def __init__(self, network: EventNetwork) -> None:
        self._network = network
        self._indices = sorted(network.variables())
        self._reference: Optional[DynamicInfluenceOrder] = None

    def next_variable(self, evaluator) -> Optional[int]:
        hook = getattr(evaluator, "count_unresolved_in_cone", None)
        if hook is None:
            if self._reference is None:
                self._reference = DynamicInfluenceOrder(self._network)
            return self._reference.next_variable(evaluator)
        assignment = evaluator.assignment
        best_index: Optional[int] = None
        best_score = -1
        for index in self._indices:
            if index in assignment:
                continue
            score = hook(index)
            if score > best_score:
                best_index = index
                best_score = score
        return best_index


ORDER_NAMES = ("frequency", "dynamic", "index")


def make_order(
    network: EventNetwork, order: "str | Sequence[int]" = "frequency"
) -> VariableOrder:
    """Resolve an ordering spec (name or explicit sequence) to a strategy.

    ``"frequency"`` is the static default; ``"dynamic"`` is the
    cone-aware dynamic order; ``"index"`` plain ascending variable
    indices.  Any explicit sequence of variable indices is wrapped in a
    :class:`GivenOrder`.  (:class:`DynamicInfluenceOrder`, the reference
    scan the property suite checks ``"dynamic"`` against pick for pick,
    has no name here: construct it directly.)

    >>> make_order(EventNetwork(), "alphabetical")
    Traceback (most recent call last):
        ...
    ValueError: unknown variable order 'alphabetical'; expected one of \
('frequency', 'dynamic', 'index') or a sequence
    """
    if isinstance(order, str):
        if order == "frequency":
            return FrequencyOrder(network)
        if order == "dynamic":
            return ConeInfluenceOrder(network)
        if order == "index":
            return GivenOrder(sorted(network.variables()))
        raise ValueError(
            f"unknown variable order {order!r}; "
            f"expected one of {ORDER_NAMES} or a sequence"
        )
    return GivenOrder(order)
