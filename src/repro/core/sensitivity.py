"""Sensitivity analysis and explanations over event networks.

The paper notes that "besides probability computation, events can be
used for sensitivity analysis and explanation of the program result"
(Section 1).  Because the platform computes conditional probabilities
cheaply — compile under a forced partial assignment — both analyses fall
out of the existing machinery:

* **Influence** of a variable ``x`` on a target ``t``: by the law of
  total probability ``P(t) = p_x · P(t | x) + (1 - p_x) · P(t | ¬x)``,
  so ``∂P(t)/∂p_x = P(t | x) − P(t | ¬x)``.  Variables with large
  absolute influence are the ones whose marginal-probability estimates
  matter most — the classic sensitivity question for probabilistic
  databases.
* **Explanation**: the influence ranking doubles as an explanation of
  the result ("the medoid election of o₃ hinges on sensor variable x₇"),
  and :func:`sufficient_assignments` enumerates minimal variable
  assignments that force a target true — counterfactual-style evidence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..compile.compiler import ShannonCompiler
from ..network.nodes import EventNetwork
from ..worlds.variables import VariablePool


@dataclass(frozen=True)
class Influence:
    """Sensitivity of one target to one variable."""

    variable: int
    probability_given_true: float
    probability_given_false: float

    @property
    def derivative(self) -> float:
        """``∂P(target)/∂p_x`` — positive when x supports the target."""
        return self.probability_given_true - self.probability_given_false

    @property
    def magnitude(self) -> float:
        return abs(self.derivative)


def conditioned_probability(
    network: EventNetwork,
    pool: VariablePool,
    target: str,
    assignment: Dict[int, bool],
) -> float:
    """``P(target | assignment)`` by compiling under forced variables.

    Forcing is implemented by compiling against a private copy of the
    pool whose forced variables have marginals 0/1, which makes the
    compiler prune the contradicting branches at zero cost.  The
    caller's pool is only read, so a thread sharing it never sees the
    pinned marginals.
    """
    marginals = list(pool.probabilities)
    for index, value in assignment.items():
        marginals[index] = 1.0 if value else 0.0
    forced = VariablePool()
    for index, probability in enumerate(marginals):
        forced.add(probability, pool.name(index))
    result = ShannonCompiler(network, forced, targets=[target]).run()
    return result.bounds[target][0]


def variable_influences(
    network: EventNetwork,
    pool: VariablePool,
    target: str,
    variables: Optional[Sequence[int]] = None,
) -> List[Influence]:
    """Influence of every (relevant) variable on a target, ranked.

    Only variables actually appearing in the target's cone can have
    nonzero influence; others are skipped.
    """
    relevant = network.reachable_from([network.targets[target]])
    candidates = (
        variables
        if variables is not None
        else sorted(
            node.payload
            for node in network.nodes
            if node.id in relevant and node.kind.name == "VAR"
        )
    )
    influences = []
    for index in candidates:
        given_true = conditioned_probability(network, pool, target, {index: True})
        given_false = conditioned_probability(network, pool, target, {index: False})
        influences.append(Influence(index, given_true, given_false))
    influences.sort(key=lambda influence: -influence.magnitude)
    return influences


def sufficient_assignments(
    network: EventNetwork,
    pool: VariablePool,
    target: str,
    max_size: int = 3,
    limit: int = 10,
) -> List[Dict[int, bool]]:
    """Minimal variable assignments that force the target *true*.

    Enumerates assignments by increasing size over the variables in the
    target's cone, keeping only those none of whose proper sub-
    assignments already suffices.  These are prime-implicant-style
    explanations: "whenever x₂ holds and x₅ fails, o₃ is a medoid."
    """
    target_id = network.targets[target]
    relevant = network.reachable_from([target_id])
    variables = sorted(
        node.payload
        for node in network.nodes
        if node.id in relevant and node.kind.name == "VAR"
    )
    found: List[Dict[int, bool]] = []

    def forces_true(assignment: Dict[int, bool]) -> bool:
        # Exact semantic check: the target holds in *every* world
        # extending the assignment.  (A purely symbolic mask check would
        # be cheaper but incomplete — sound abstraction can leave a
        # semantically forced target unknown.)
        return (
            conditioned_probability(network, pool, target, assignment)
            >= 1.0 - 1e-12
        )

    for size in range(1, max_size + 1):
        for chosen in itertools.combinations(variables, size):
            for values in itertools.product((True, False), repeat=size):
                assignment = dict(zip(chosen, values))
                if any(
                    all(assignment.get(k) == v for k, v in smaller.items())
                    for smaller in found
                ):
                    continue  # a subset already suffices
                if forces_true(assignment):
                    found.append(assignment)
                    if len(found) >= limit:
                        return found
    return found


def explain(
    network: EventNetwork,
    pool: VariablePool,
    target: str,
    top: int = 5,
) -> str:
    """A human-readable sensitivity report for one target."""
    base = conditioned_probability(network, pool, target, {})
    lines = [f"P[{target}] = {base:.4f}"]
    for influence in variable_influences(network, pool, target)[:top]:
        name = pool.name(influence.variable)
        lines.append(
            f"  {name}: P|true={influence.probability_given_true:.4f} "
            f"P|false={influence.probability_given_false:.4f} "
            f"influence={influence.derivative:+.4f}"
        )
    witnesses = sufficient_assignments(network, pool, target, max_size=2, limit=3)
    for witness in witnesses:
        rendered = " ∧ ".join(
            (pool.name(k) if v else f"¬{pool.name(k)}")
            for k, v in sorted(witness.items())
        )
        lines.append(f"  sufficient: {rendered}")
    return "\n".join(lines)
