"""Monte Carlo probability estimation (the MCDB/SimSQL-style comparator).

The paper's related work (Section 6) contrasts ENFrame with the
MCDB/SimSQL line, "where approximate query results are computed by Monte
Carlo simulations … not designed for exact and approximate computation
with error guarantees".  This module implements that comparator: sample
total valuations from the induced distribution, evaluate the event
network concretely per sample, and report frequency estimates with
normal-approximation confidence intervals.

All networks — flat and folded alike — batch the sampling through the
vectorized bulk engine (:mod:`repro.engine.bulk`); the original
per-sample recursive evaluator survives as
:func:`monte_carlo_probabilities_scalar`, kept purely as the
cross-validation oracle.

Unlike the Shannon-expansion schemes, the returned intervals are
*statistical* (they hold with the requested confidence, not with
certainty), and the cost per sample is a full network evaluation —
useful as a baseline and for very large variable counts where the
decision tree is intractable.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from typing import Dict, Optional, Sequence

from ..network.nodes import EventNetwork
from ..worlds.variables import VariablePool
from .compiler import make_evaluator
from .partial import B_TRUE
from .result import CompilationResult

_STANDARD_NORMAL = statistics.NormalDist()


def z_score(confidence: float) -> float:
    """Two-sided z-score for a confidence level, via the exact inverse
    normal CDF (``z = Phi^-1((1 + confidence) / 2)``)."""
    if not 0.5 < confidence < 1.0:
        raise ValueError("confidence must be in (0.5, 1)")
    return _STANDARD_NORMAL.inv_cdf(0.5 * (1.0 + confidence))


# Backwards-compatible private alias (pre-registry code imported this).
_z_score = z_score


def monte_carlo_probabilities(
    network: EventNetwork,
    pool: VariablePool,
    targets: Optional[Sequence[str]] = None,
    samples: int = 1000,
    seed: int = 0,
    confidence: float = 0.95,
    kernel: Optional[str] = None,
) -> CompilationResult:
    """Estimate target probabilities from ``samples`` sampled worlds.

    Returns a :class:`CompilationResult` whose bounds are the
    ``confidence``-level Wald intervals around the sample frequencies
    (clipped to [0, 1]).  ``result.extra['samples']`` records the sample
    count; bounds are *not* certified — they can exclude the true
    probability with probability ``1 - confidence`` per target.

    Sampling is always vectorized through the bulk engine, flat and
    folded networks alike; there is no scalar fallback.  Deterministic per seed, but the scalar oracle
    draws from a different generator, so per-seed estimates differ
    between the two.
    """
    from ..engine.bulk import bulk_monte_carlo_probabilities

    return bulk_monte_carlo_probabilities(
        network,
        pool,
        targets=targets,
        samples=samples,
        seed=seed,
        confidence=confidence,
        kernel=kernel,
    )


def monte_carlo_probabilities_scalar(
    network: EventNetwork,
    pool: VariablePool,
    targets: Optional[Sequence[str]] = None,
    samples: int = 1000,
    seed: int = 0,
    confidence: float = 0.95,
) -> CompilationResult:
    """The original per-sample estimator: one network traversal per draw.

    Kept as the cross-validation oracle for the bulk engine (networks
    with a loop included: the scalar oracle evaluates them too).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    z = z_score(confidence)
    names = list(targets) if targets is not None else list(network.targets)
    target_ids = [network.targets[name] for name in names]
    # The scalar oracle deliberately drives the original recursive
    # evaluators (it swaps whole assignments in without push bookkeeping).
    evaluator = make_evaluator(network, engine="scalar")
    rng = random.Random(seed)
    hits = {name: 0 for name in names}

    started = time.perf_counter()
    for _ in range(samples):
        evaluator.push()
        evaluator.assignment = pool.sample_valuation(rng)
        states = evaluator.target_states(target_ids)
        for name, target_id in zip(names, target_ids):
            if states[target_id] == B_TRUE:
                hits[name] += 1
        evaluator.assignment = {}
        evaluator.pop()
    elapsed = time.perf_counter() - started

    bounds: Dict[str, tuple] = {}
    for name in names:
        frequency = hits[name] / samples
        margin = z * math.sqrt(max(frequency * (1 - frequency), 1e-12) / samples)
        bounds[name] = (max(0.0, frequency - margin), min(1.0, frequency + margin))
    result = CompilationResult(
        bounds=bounds,
        scheme="montecarlo",
        epsilon=0.0,
        seconds=elapsed,
        tree_nodes=samples,
    )
    result.extra["samples"] = float(samples)
    result.extra["confidence"] = confidence
    return result


def samples_for_error(epsilon: float, confidence: float = 0.95) -> int:
    """Samples needed for a +-epsilon Wald interval in the worst case.

    Solves ``z * sqrt(0.25 / n) <= epsilon`` — the classic comparison
    point against the certified ε of the Shannon schemes: matching
    ε = 0.1 at 95% confidence already needs ~97 samples *per run*, and
    the guarantee is still only statistical.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    z = z_score(confidence)
    return math.ceil(z * z * 0.25 / (epsilon * epsilon))
