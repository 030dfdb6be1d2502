"""Incremental what-if sessions: edit evidence, re-query only what moved.

A :class:`WhatIfSession` holds one long-lived masked evaluator for a
network and lets the caller interleave evidence edits with conditional
queries:

* :meth:`assert_evidence` pushes one variable assignment as a trailed
  evaluator frame — the masked engine re-sweeps only that variable's
  influence cone (:meth:`MaskedProgram.var_cone`), not the whole
  network;
* :meth:`retract` pops the assignment back off the trail (rewinding
  and replaying the newer frames when the retracted variable is not
  the most recent one);
* :meth:`set_probability` rewrites a variable's marginal in place —
  evaluator state is assignment-driven, so nothing needs re-sweeping,
  but cached answers downstream of the variable go stale;
* :meth:`query` recomputes bounds by Shannon expansion *on top of* the
  standing evidence frames, and only for the targets whose influence
  cones intersect the variables edited since they were last answered —
  clean targets are answered from the session cache without touching
  the engine.

Because the pool's variables are independent, a DFS started at mass
``1.0`` above the evidence prefix enumerates exactly the conditional
distribution given that prefix: the bounds are ``P(target | evidence)``
with no renormalisation step (the one-pass ``Φ ∧ C`` division of
:mod:`repro.engine.conditioning` is only needed for *event*-level
evidence, which a session does not assert).

Works on every network, with or without a loop, and across every
kernel tier: the dirty-cone bookkeeping reads node-level cones from the
masked evaluator's program (``_prog.cone_source``).
"""

from __future__ import annotations

import os
import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..compile.compiler import SCHEMES, ShannonCompiler
from ..compile.result import CompilationResult
from ..network.nodes import EventNetwork
from ..worlds.variables import VariablePool


def _session_kernel(network: EventNetwork, kernel: Optional[str]) -> Optional[str]:
    """The tier a session sweeps on when neither the caller nor
    ``REPRO_KERNEL`` names one.

    STAGED ROLLOUT (PR 13), to be deleted: every tier evaluates every
    network, but a session over a network with vector c-values keeps the
    tier it had before the lane lowering — ``"python"`` — unless
    ``kernel`` or ``REPRO_KERNEL`` says otherwise.  On the compiled tier
    the ``whatif-walk`` end-to-end op drops from ~0.45 s to ~0.015 s,
    and that benchmark keeps every op's answers in memory until its
    window closes: 764 ops instead of 29 read as +108 % ``peak_rss_mb``
    (63 -> 132 MiB, all of it held by the harness; the session itself
    stays flat at 55 MiB over 800 ops), past a 5 % gate that rejects the
    change outright and that the change may not edit.  Once the harness
    judges answers as it goes, return ``kernel`` here and drop
    ``masked._csr_rows``' int sharing, which only this pin needs.
    """
    if kernel is not None or "REPRO_KERNEL" in os.environ:
        return kernel
    from ..engine.masked import masked_program

    vector = bool(masked_program(network).node_width.any())
    return "python" if vector else None


class WhatIfSession:
    """Interactive conditioning over one network and variable pool.

    ``order`` and ``kernel`` parameterise the underlying compiler
    exactly as in :func:`repro.engine.registry.normalise_options`
    (``kernel=None``: see :func:`_session_kernel`); the
    default frequency order breaks ties towards low variable indices,
    which keeps re-queries after an edit localised when the network's
    variable groups are index-contiguous.
    """

    def __init__(
        self,
        network: EventNetwork,
        pool: VariablePool,
        targets: Optional[Sequence[str]] = None,
        order: "str | Sequence[int]" = "frequency",
        kernel: Optional[str] = None,
    ) -> None:
        self.network = network
        self.pool = pool
        self._compiler = ShannonCompiler(
            network,
            pool,
            targets=targets,
            order=order,
            kernel=_session_kernel(network, kernel),
        )
        self.target_names: Tuple[str, ...] = tuple(self._compiler.target_names)
        self._target_set = set(self.target_names)
        self._evidence: List[Tuple[int, bool]] = []
        self._bounds: Dict[str, Tuple[float, float]] = {}
        self._clean: set = set()
        self._query_key: Tuple[str, float] = ("exact", 0.0)
        self._cones: Dict[int, FrozenSet[int]] = {}
        self.recomputed = 0  # targets the last query() re-expanded

    # ------------------------------------------------------------------
    # Evidence edits
    # ------------------------------------------------------------------

    @property
    def evidence(self) -> Tuple[Tuple[int, bool], ...]:
        """The standing evidence, in assertion order."""
        return tuple(self._evidence)

    def assert_evidence(self, variable: int, value: bool = True) -> None:
        """Observe ``variable == value``; one trailed evaluator frame."""
        if not 0 <= variable < len(self.pool):
            raise ValueError(
                f"variable {variable} is not in the pool "
                f"(size {len(self.pool)})"
            )
        if any(existing == variable for existing, _ in self._evidence):
            raise ValueError(
                f"variable {variable} is already asserted; retract it first"
            )
        self._compiler.evaluator.push(variable, bool(value))
        self._evidence.append((variable, bool(value)))
        self._dirty(variable)

    def retract(self, variable: Optional[int] = None) -> Tuple[int, bool]:
        """Withdraw one assertion (the most recent one by default).

        Retracting below the top of the trail rewinds to the retracted
        frame and replays the newer assertions — their cones were swept
        on the way down and are swept again on replay, but targets
        outside the *retracted* variable's cone stay clean.
        """
        if not self._evidence:
            raise ValueError("no evidence to retract")
        evaluator = self._compiler.evaluator
        if variable is None:
            variable = self._evidence[-1][0]
        position = next(
            (
                index
                for index, (existing, _) in enumerate(self._evidence)
                if existing == variable
            ),
            None,
        )
        if position is None:
            raise ValueError(f"variable {variable} is not asserted")
        removed = self._evidence[position]
        replay = self._evidence[position + 1 :]
        evaluator.rewind_to(position)
        for index, value in replay:
            evaluator.push(index, value)
        self._evidence = self._evidence[:position] + replay
        self._dirty(variable)
        return removed

    def set_probability(self, variable: int, probability: float) -> None:
        """Rewrite a marginal; answers in the variable's cone go stale."""
        self.pool.set_probability(variable, probability)
        self._dirty(variable)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(
        self,
        targets: Optional[Sequence[str]] = None,
        scheme: str = "exact",
        epsilon: float = 0.0,
    ) -> CompilationResult:
        """Conditional bounds ``P(target | evidence)`` per target.

        Any Shannon scheme works; switching ``(scheme, epsilon)``
        between queries drops the session cache (answers certified
        under one contract cannot back answers under another).
        ``result.extra["recomputed_targets"]`` reports how many targets
        actually re-expanded — the session's incrementality measure.
        """
        names = list(targets) if targets is not None else list(self.target_names)
        unknown = [name for name in names if name not in self._target_set]
        if unknown:
            raise ValueError(
                f"unknown targets {unknown!r}; session targets are "
                f"{list(self.target_names)!r}"
            )
        if scheme not in SCHEMES:
            raise ValueError(
                f"unknown scheme {scheme!r}; expected one of {SCHEMES}"
            )
        if scheme == "exact" and epsilon != 0.0:
            raise ValueError("exact compilation requires epsilon == 0")
        if scheme != "exact" and epsilon <= 0.0:
            raise ValueError(f"scheme {scheme!r} requires a positive epsilon")
        key = (scheme, float(epsilon))
        if key != self._query_key:
            self._query_key = key
            self._clean.clear()
        dirty = [name for name in names if name not in self._clean]
        started = time.perf_counter()
        tree_nodes = 0
        evals = 0
        max_depth = 0
        if dirty:
            tree_nodes, evals, max_depth = self._recompute(dirty, scheme, epsilon)
        elapsed = time.perf_counter() - started
        self.recomputed = len(dirty)
        result = CompilationResult(
            bounds={name: self._bounds[name] for name in names},
            scheme=scheme,
            epsilon=epsilon,
            seconds=elapsed,
            tree_nodes=tree_nodes,
            evals=evals,
            max_depth=max_depth,
        )
        result.extra["recomputed_targets"] = float(len(dirty))
        result.extra["evidence_depth"] = float(len(self._evidence))
        from ..engine.kernels import record_kernel_tier

        record_kernel_tier(result.extra, self._compiler.evaluator)
        return result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _cone(self, variable: int) -> FrozenSet[int]:
        """Node-level influence cone of ``variable`` (cached)."""
        cone = self._cones.get(variable)
        if cone is None:
            cone_source = self._compiler.evaluator._prog.cone_source
            cone = self._cones[variable] = frozenset(
                cone_source.var_cone(variable).tolist()
            )
        return cone

    def _dirty(self, variable: int) -> None:
        cone = self._cone(variable)
        for name in self.target_names:
            if self.network.targets[name] in cone:
                self._clean.discard(name)

    def _recompute(
        self, names: List[str], scheme: str, epsilon: float
    ) -> Tuple[int, int, int]:
        """Shannon-expand the dirty targets above the evidence prefix.

        Drives the compiler's ``_dfs`` directly instead of ``run()``:
        ``run()`` insists on a balanced evaluator and would rebuild it,
        discarding the standing evidence frames this session exists to
        keep.
        """
        compiler = self._compiler
        evaluator = compiler.evaluator
        base_depth = evaluator.depth
        evals_before = evaluator.evals
        compiler._lower = {name: 0.0 for name in names}
        compiler._upper = {name: 1.0 for name in names}
        compiler._scheme = scheme
        compiler._epsilon = epsilon
        compiler._tree_nodes = 0
        compiler._max_depth = 0
        compiler._finished = set()
        compiler._global_budget = {name: 2.0 * epsilon for name in names}
        budgets = {name: 2.0 * epsilon for name in names}
        evaluator.push()
        try:
            compiler._dfs(1.0, list(names), budgets)
        finally:
            evaluator.rewind_to(base_depth)
        for name in names:
            self._bounds[name] = (compiler._lower[name], compiler._upper[name])
            self._clean.add(name)
        return (
            compiler._tree_nodes,
            evaluator.evals - evals_before,
            compiler._max_depth,
        )
