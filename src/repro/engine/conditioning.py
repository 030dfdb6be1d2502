"""Conditioning as registered schemes: ``exact-cond`` / ``lazy-cond``.

Conditioning a probabilistic database on evidence ``C`` (Koch &
Olteanu) reduces, for bounds, to two marginals: ``P(t | C) =
P(t ∧ C) / P(C)``.  The runners here build a *derived* network — a
structural copy of the queried one whose targets are replaced by their
conjunction with the evidence constraint, plus one extra target for the
constraint itself — run the base scheme (``exact`` or ``lazy``) over
it in **one** engine pass, and renormalise the returned bounds by
interval division:

* ``lower = joint_lower / constraint_upper``
* ``upper = min(1, joint_upper / constraint_lower)`` (``1.0`` when the
  constraint's lower bound is ``0`` — division by a vanishing evidence
  probability cannot tighten anything)

which is exactly the historical ``db/conditioning.py`` arithmetic, now
reachable from every entry point through the registry.  An evidence
probability with upper bound ``0`` raises
:class:`~repro.engine.registry.ImpossibleEvidenceError` (a
``ZeroDivisionError``): conditioning on an almost-surely-false event is
undefined.

The derived network is a *copy* because the original may be shared (the
service layer caches materialised networks); growing it in place would
leak conditioning nodes into unconditioned queries.  Node ids are
preserved by re-interning in id order — ``EventNetwork.nodes`` is
topologically ordered, children before parents, so every child id is
already allocated when its parent is re-interned.

This module is deliberately *not* an entry point: it is reached only
through the registry (``repro.engine.schemes`` registers the runners)
and delegates back through :func:`repro.engine.registry.run_scheme`,
so distributed execution, cluster transport, and kernel tiers all
compose with conditioning for free.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Tuple

from ..compile.result import CompilationResult
from ..network.build import _payload_key
from ..network.folded import FoldedNetwork
from ..network.nodes import EventNetwork, Kind, Node
from ..worlds.variables import VariablePool
from .registry import ImpossibleEvidenceError, SchemeOptions, run_scheme

#: The derived network's target name for the evidence constraint.
EVIDENCE_TARGET = "__evidence__"


def _intern_key(node: Node):
    """Reconstruct the builder's intern key for an existing node."""
    if node.kind is Kind.GUARD:
        return _payload_key(node.payload)
    return node.payload


def copy_network(network: EventNetwork) -> EventNetwork:
    """A structural copy that may grow without touching the original.

    Preserves node ids (the copy re-interns in id order over the
    topologically sorted node list), names, targets, and — for folded
    networks — the iteration count and slot bindings.
    """
    if isinstance(network, FoldedNetwork):
        copied: EventNetwork = FoldedNetwork(network.iterations)
    else:
        copied = EventNetwork()
    for node in network.nodes:
        node_id = copied._intern(
            node.kind, node.children, node.payload, _intern_key(node)
        )
        if node_id != node.id:
            raise RuntimeError(
                f"node {node.id} re-interned as {node_id}; the network was "
                "not built through the interning builder"
            )
    copied.targets = dict(network.targets)
    copied.names = dict(network.names)
    if isinstance(network, FoldedNetwork):
        assert isinstance(copied, FoldedNetwork)
        copied.slots = dict(network.slots)
    return copied


def _evidence_node(network: EventNetwork, entry: tuple) -> int:
    """Intern one canonical evidence entry as a Boolean node."""
    if entry[0] == "var":
        _, index, value = entry
        node_id = network._intern(Kind.VAR, (), index, index)
        if not value:
            node_id = network._intern(Kind.NOT, (node_id,), None, None)
        return node_id
    _, name = entry
    node_id = network.names.get(name)
    if node_id is None:
        raise ValueError(
            f"unknown evidence event {name!r}; evidence events must be "
            "names bound on the network"
        )
    if not network.nodes[node_id].is_boolean:
        raise ValueError(f"evidence event {name!r} is not a Boolean event")
    return node_id


def conditioned_network(
    network: EventNetwork,
    evidence: Sequence[tuple],
    target_names: Sequence[str],
) -> Tuple[EventNetwork, str]:
    """Derive the one-pass conditioning network.

    Returns ``(derived, constraint_name)``: the derived network carries
    every requested target replaced by ``target ∧ C`` under its
    original name, plus the constraint ``C`` itself as an extra target,
    so a single base-scheme pass yields every joint bound *and* the
    evidence bound against one shared Shannon tree.
    """
    if not evidence:
        raise ValueError("conditioning requires at least one evidence entry")
    derived = copy_network(network)
    literals: List[int] = [_evidence_node(derived, entry) for entry in evidence]
    if len(literals) == 1:
        constraint = literals[0]
    else:
        constraint = derived._intern(Kind.AND, tuple(literals), None, None)
    taken = set(target_names) | set(derived.targets) | set(derived.names)
    constraint_name = EVIDENCE_TARGET
    while constraint_name in taken:
        constraint_name = "_" + constraint_name
    for name in target_names:
        joint = derived._intern(
            Kind.AND, (network.targets[name], constraint), None, None
        )
        derived.targets[name] = joint
    derived.add_target(constraint_name, constraint)
    return derived, constraint_name


def run_conditioned(
    label: str,
    base: str,
    network: EventNetwork,
    pool: VariablePool,
    targets,
    options: SchemeOptions,
) -> CompilationResult:
    """The shared runner behind ``exact-cond`` and ``lazy-cond``."""
    names = list(targets) if targets is not None else list(network.targets)
    if not names:
        raise ValueError("network has no compilation targets")
    # `lazy` rejects a zero budget; an epsilon-free lazy-cond request is
    # just an exact conditional, so delegate there.
    if base != "exact" and options.epsilon <= 0.0:
        base = "exact"
    evidence = options.evidence
    base_options = replace(options, evidence=())
    if not evidence:
        result = run_scheme(base, network, pool, targets=names, options=base_options)
        result.scheme = label
        return result
    derived, constraint_name = conditioned_network(network, evidence, names)
    raw = run_scheme(
        base,
        derived,
        pool,
        targets=names + [constraint_name],
        options=base_options,
    )
    constraint_lower, constraint_upper = raw.bounds[constraint_name]
    if constraint_upper <= 0.0:
        raise ImpossibleEvidenceError(
            "cannot condition on an event with zero probability"
        )
    bounds = {}
    for name in names:
        joint_lower, joint_upper = raw.bounds[name]
        lower = joint_lower / constraint_upper
        upper = (
            1.0
            if constraint_lower <= 0.0
            else min(1.0, joint_upper / constraint_lower)
        )
        bounds[name] = (lower, upper)
    result = CompilationResult(
        bounds=bounds,
        scheme=label,
        epsilon=raw.epsilon,
        seconds=raw.seconds,
        tree_nodes=raw.tree_nodes,
        evals=raw.evals,
        max_depth=raw.max_depth,
        jobs=raw.jobs,
        workers=raw.workers,
        makespan=raw.makespan,
        extra=dict(raw.extra),
    )
    result.extra["evidence_terms"] = float(len(evidence))
    result.extra["evidence_lower"] = constraint_lower
    result.extra["evidence_upper"] = constraint_upper
    return result
