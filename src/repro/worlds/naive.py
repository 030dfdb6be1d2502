"""The naive baseline: evaluate the program in every possible world.

The paper's baseline "computes an equivalent clustering by explicitly
iterating over all possible worlds" (Section 5, "Algorithms").  All
networks — flat and folded alike — route through the vectorized bulk
engine (:mod:`repro.engine.bulk`), which evaluates whole chunks of
worlds per sweep of the lowered program: 64 per word in the native
world block, or one NumPy column per row without a compiler.  The
original per-world evaluator survives as
:func:`naive_probabilities_scalar`, kept purely as the cross-validation
oracle for the bulk engine.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..compile.partial import B_TRUE
from ..compile.result import CompilationResult
from ..network.nodes import EventNetwork
from .variables import VariablePool


def naive_probabilities(
    network: EventNetwork,
    pool: VariablePool,
    targets: Optional[Sequence[str]] = None,
    world_key_nodes: Optional[Sequence[int]] = None,
    timeout: Optional[float] = None,
    kernel: Optional[str] = None,
) -> CompilationResult:
    """Exact target probabilities by brute-force world enumeration.

    Evaluates all worlds at once through the bulk engine, one sweep per
    chunk for flat and folded networks alike; there is no scalar
    fallback.  ``world_key_nodes`` optionally names Boolean nodes
    (typically the input-object lineage events) whose joint outcome
    identifies a world; ``extra['distinct_worlds']`` then counts
    distinct signatures.  ``timeout`` (seconds) aborts the run; the
    result then carries partial sums and ``extra['timed_out'] = 1``.
    """
    from ..engine.bulk import bulk_naive_probabilities

    return bulk_naive_probabilities(
        network,
        pool,
        targets=targets,
        world_key_nodes=world_key_nodes,
        timeout=timeout,
        kernel=kernel,
    )


def naive_probabilities_scalar(
    network: EventNetwork,
    pool: VariablePool,
    targets: Optional[Sequence[str]] = None,
    world_key_nodes: Optional[Sequence[int]] = None,
    timeout: Optional[float] = None,
) -> CompilationResult:
    """The original recursive baseline: one network traversal per world.

    Valuations mapping to an already-seen ``world_key_nodes`` signature
    reuse the cached per-world result, mirroring how a naive
    implementation would cluster once per distinct world.  Kept as the
    cross-validation oracle for the bulk engine (networks with a loop
    included: the scalar oracle evaluates them too).
    """
    # Imported here: the compiler package imports the network package,
    # which would close an import cycle at module-load time.
    from ..compile.compiler import make_evaluator

    names = list(targets) if targets is not None else list(network.targets)
    target_ids = [network.targets[name] for name in names]
    totals = {name: 0.0 for name in names}
    cache: Dict[Tuple[bool, ...], Tuple[bool, ...]] = {}
    # The scalar oracle deliberately drives the original recursive
    # evaluators (it resets their resolved maps per world by hand).
    evaluator = make_evaluator(network, engine="scalar")
    worlds = 0
    timed_out = False

    started = time.perf_counter()
    for valuation, mass in pool.iter_valuations():
        if timeout is not None and time.perf_counter() - started > timeout:
            timed_out = True
            break
        if mass == 0.0:
            continue
        worlds += 1
        evaluator.assignment = valuation
        memo: Dict[int, object] = {}
        signature: Optional[Tuple[bool, ...]] = None
        if world_key_nodes is not None:
            signature = tuple(
                evaluator.node_state(node_id, memo) == B_TRUE
                for node_id in world_key_nodes
            )
            cached = cache.get(signature)
            if cached is not None:
                for name, satisfied in zip(names, cached):
                    if satisfied:
                        totals[name] += mass
                evaluator.resolved = {}
                continue
        outcomes = tuple(
            evaluator.node_state(target_id, memo) == B_TRUE
            for target_id in target_ids
        )
        # The evaluator records fully-resolved states in its persistent map;
        # distinct valuations must not share them.
        evaluator.resolved = {}
        if signature is not None:
            cache[signature] = outcomes
        for name, satisfied in zip(names, outcomes):
            if satisfied:
                totals[name] += mass
    elapsed = time.perf_counter() - started

    bounds = {
        name: (totals[name], totals[name] if not timed_out else 1.0)
        for name in names
    }
    result = CompilationResult(
        bounds=bounds,
        scheme="naive",
        epsilon=0.0,
        seconds=elapsed,
        tree_nodes=worlds,
    )
    result.extra["distinct_worlds"] = float(len(cache)) if cache else float(worlds)
    result.extra["timed_out"] = 1.0 if timed_out else 0.0
    return result


def lineage_nodes(network: EventNetwork, names: Iterable[str]) -> List[int]:
    """Node ids of named lineage events (for world signatures)."""
    return [network.names[name] for name in names]
