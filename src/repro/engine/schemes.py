"""Built-in scheme registrations.

:func:`register_builtins` (called lazily by the registry on first
lookup, and again by :func:`repro.engine.registry.reset_registry`)
registers the paper's six schemes plus the two scalar cross-validation
oracles:

* ``exact`` / ``lazy`` / ``eager`` / ``hybrid`` — Shannon expansion
  (Algorithm 1), distributed-capable via ``workers=``;
* ``naive`` — bulk-vectorized world enumeration (flat and folded
  networks alike);
* ``montecarlo`` — bulk-vectorized MCDB-style sampling (flat and folded
  networks alike);
* ``naive-scalar`` / ``montecarlo-scalar`` — the original per-world
  recursive evaluators, kept as oracles for cross-validation;
* ``exact-cond`` / ``lazy-cond`` — conditioned queries: one base-scheme
  pass over the derived ``Φ ∧ C`` network plus interval renormalisation
  (:mod:`repro.engine.conditioning`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..compile.result import CompilationResult
from ..network.nodes import EventNetwork
from ..worlds.variables import VariablePool
from .registry import (
    CAP_BULK,
    CAP_DISTRIBUTED,
    CAP_EPSILON,
    CAP_EVIDENCE,
    CAP_EXACT,
    CAP_KERNEL,
    CAP_STATISTICAL,
    CAP_TIMEOUT,
    SchemeOptions,
    register_scheme,
)


def _run_shannon(
    scheme: str,
    network: EventNetwork,
    pool: VariablePool,
    targets: Optional[Sequence[str]],
    options: SchemeOptions,
) -> CompilationResult:
    if options.workers is not None:
        from ..compile.distributed import DistributedCompiler

        coordinator = DistributedCompiler(
            network,
            pool,
            targets=targets,
            order=options.order,
            workers=options.workers,
            job_size=options.job_size,
            kernel=options.kernel,
            listen=options.listen,
        )
        try:
            return coordinator.run(
                scheme=scheme,
                epsilon=options.epsilon,
                execution=options.execution,
                timeout=options.timeout,
            )
        finally:
            # Process-mode pools are persistent per coordinator; the
            # registry path builds one coordinator per call, so tear
            # the workers down with it (no-op for in-memory modes).
            coordinator.close()
    from ..compile.compiler import compile_network

    return compile_network(
        network,
        pool,
        scheme=scheme,
        epsilon=options.epsilon,
        targets=targets,
        order=options.order,
        kernel=options.kernel,
    )


def _make_shannon_runner(scheme: str):
    def runner(network, pool, targets, options):
        return _run_shannon(scheme, network, pool, targets, options)

    runner.__name__ = f"run_{scheme}"
    return runner


def _run_naive(network, pool, targets, options):
    from ..worlds.naive import naive_probabilities

    return naive_probabilities(
        network,
        pool,
        targets=targets,
        timeout=options.timeout,
        kernel=options.kernel,
    )


def _run_naive_scalar(network, pool, targets, options):
    from ..worlds.naive import naive_probabilities_scalar

    result = naive_probabilities_scalar(
        network, pool, targets=targets, timeout=options.timeout
    )
    result.scheme = "naive-scalar"
    return result


def _run_montecarlo(network, pool, targets, options):
    from ..compile.montecarlo import monte_carlo_probabilities

    return monte_carlo_probabilities(
        network,
        pool,
        targets=targets,
        samples=options.samples,
        seed=options.seed,
        confidence=options.confidence,
        kernel=options.kernel,
    )


def _run_montecarlo_scalar(network, pool, targets, options):
    from ..compile.montecarlo import monte_carlo_probabilities_scalar

    result = monte_carlo_probabilities_scalar(
        network,
        pool,
        targets=targets,
        samples=options.samples,
        seed=options.seed,
        confidence=options.confidence,
    )
    result.scheme = "montecarlo-scalar"
    return result


def _make_conditioned_runner(label: str, base: str):
    def runner(network, pool, targets, options):
        from .conditioning import run_conditioned

        return run_conditioned(label, base, network, pool, targets, options)

    runner.__name__ = f"run_{label.replace('-', '_')}"
    return runner


def register_builtins() -> None:
    """(Re-)register every built-in scheme; idempotent by construction."""
    register_scheme(
        "exact",
        _make_shannon_runner("exact"),
        capabilities={CAP_EXACT, CAP_DISTRIBUTED, CAP_KERNEL},
        description=(
            "Shannon expansion until every target is resolved on every branch"
        ),
        replace=True,
    )
    for scheme, description in (
        ("lazy", "exact exploration, stop tightening targets within 2eps"),
        ("eager", "spend the error budget as early as possible"),
        ("hybrid", "split the budget per branch, pass residuals rightwards"),
    ):
        register_scheme(
            scheme,
            _make_shannon_runner(scheme),
            capabilities={CAP_EPSILON, CAP_DISTRIBUTED, CAP_KERNEL},
            description=description,
            replace=True,
        )
    register_scheme(
        "naive",
        _run_naive,
        capabilities={CAP_EXACT, CAP_TIMEOUT, CAP_BULK, CAP_KERNEL},
        description="vectorized brute-force enumeration of all possible worlds",
        replace=True,
    )
    register_scheme(
        "naive-scalar",
        _run_naive_scalar,
        capabilities={CAP_EXACT, CAP_TIMEOUT},
        description="per-world recursive enumeration (cross-validation oracle)",
        replace=True,
    )
    register_scheme(
        "montecarlo",
        _run_montecarlo,
        capabilities={CAP_STATISTICAL, CAP_BULK, CAP_KERNEL},
        description="vectorized MCDB-style Monte Carlo estimation",
        replace=True,
    )
    register_scheme(
        "montecarlo-scalar",
        _run_montecarlo_scalar,
        capabilities={CAP_STATISTICAL},
        description="per-sample Monte Carlo estimation (cross-validation oracle)",
        replace=True,
    )
    register_scheme(
        "exact-cond",
        _make_conditioned_runner("exact-cond", "exact"),
        capabilities={
            CAP_EXACT,
            CAP_EVIDENCE,
            CAP_DISTRIBUTED,
            CAP_KERNEL,
        },
        description="exact conditional probabilities P(target | evidence)",
        replace=True,
    )
    register_scheme(
        "lazy-cond",
        _make_conditioned_runner("lazy-cond", "lazy"),
        capabilities={
            CAP_EPSILON,
            CAP_EVIDENCE,
            CAP_DISTRIBUTED,
            CAP_KERNEL,
        },
        description=(
            "conditional probabilities with a lazy 2eps budget on the "
            "underlying joint pass"
        ),
        replace=True,
    )
