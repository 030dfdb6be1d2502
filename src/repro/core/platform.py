"""The ENFrame platform facade.

One object ties the pipeline together: load probabilistic data (static,
synthetic, or from a pc-table query), register a user program (source
text) or one of the built-in mining algorithms, choose compilation
targets, and compute their probabilities with any of the paper's
algorithms — naive per-world, sequential exact, eager/lazy/hybrid
ε-approximation, or distributed.

Typical use::

    from repro import ENFrame, KMedoidsSpec

    platform = ENFrame.from_sensor_data(40, scheme="mutex", seed=7)
    platform.kmedoids(KMedoidsSpec(k=2, iterations=3))
    result = platform.run(scheme="hybrid", epsilon=0.1)
    print(result.summary())
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..data.datasets import ProbabilisticDataset, certain_dataset, sensor_dataset
from ..engine.registry import SchemeOptions, run_scheme
from ..events.expressions import Event
from ..events.program import EventProgram
from ..mining import targets as target_factories
from ..mining.kmedoids import (
    KMedoidsSpec,
    build_kmedoids_folded,
    build_kmedoids_program,
)
from ..network.build import build_network
from ..network.nodes import EventNetwork
from ..worlds.variables import VariablePool
from .result import ProbabilisticResult

if TYPE_CHECKING:
    from ..lang.translate import Translator
    from ..mining.kmeans import KMeansSpec


class ENFrame:
    """A configured platform instance bound to one probabilistic dataset."""

    def __init__(self, dataset: ProbabilisticDataset) -> None:
        self.dataset = dataset
        self.program: Optional[EventProgram] = None
        self.network: Optional[EventNetwork] = None
        self.translator: Optional[Translator] = None
        self._target_names: List[str] = []
        self._spec: Optional[object] = None

    # ------------------------------------------------------------------
    # Data loading
    # ------------------------------------------------------------------

    @classmethod
    def from_points(
        cls, points: np.ndarray, events: Sequence[Event], pool: VariablePool
    ) -> "ENFrame":
        """Uncertain objects given explicitly (points + lineage + pool)."""
        return cls(ProbabilisticDataset(np.asarray(points, float), list(events), pool))

    @classmethod
    def from_certain_points(cls, points: np.ndarray) -> "ENFrame":
        """Deterministic input: the platform degrades to ordinary mining."""
        return cls(certain_dataset(points))

    @classmethod
    def from_sensor_data(cls, count: int, **options) -> "ENFrame":
        """Synthetic energy-network sensor data (see ``repro.data``)."""
        return cls(sensor_dataset(count, **options))

    @classmethod
    def from_query(cls, query, feature_attributes: Sequence[str], pool) -> "ENFrame":
        """Uncertain objects imported from a pc-table query (``loadData()``
        via the SPROUT-style substrate of ``repro.db``)."""
        return cls(query.to_dataset(feature_attributes, pool))

    @classmethod
    def from_network(
        cls,
        network: EventNetwork,
        pool: VariablePool,
        targets: Optional[Sequence[str]] = None,
    ) -> "ENFrame":
        """A platform bound to an already-compiled event network.

        The entry point for pre-built artifacts: networks persisted with
        :func:`repro.network.serialize.save_network` or fetched from a
        ``repro serve`` deployment can be re-run locally without the
        source dataset or program.  ``targets`` defaults to every
        compilation target the network carries.
        """
        unknown = [
            name for name in (targets or ()) if name not in network.targets
        ]
        if unknown:
            raise ValueError(f"unknown targets {unknown!r}")
        platform = cls(
            ProbabilisticDataset(np.zeros((0, 1), dtype=float), [], pool)
        )
        platform.network = network
        platform._target_names = (
            list(targets) if targets is not None else list(network.targets)
        )
        return platform

    # ------------------------------------------------------------------
    # Program registration
    # ------------------------------------------------------------------

    def kmedoids(
        self,
        spec: KMedoidsSpec,
        targets: str = "medoids",
        target_objects: Optional[Sequence[int]] = None,
        folded: bool = False,
    ) -> "ENFrame":
        """Register k-medoids clustering (Figure 1).

        ``targets`` selects the compilation targets: ``"medoids"``
        (medoid-election events, the paper's default), ``"assignments"``
        (object–cluster assignment), or ``"is_medoid"`` (object is a
        medoid of any cluster).
        """
        self._spec = spec
        n = len(self.dataset)
        last = spec.iterations - 1
        if folded:
            if targets != "medoids":
                raise ValueError("folded networks currently target medoids only")
            self.network = build_kmedoids_folded(self.dataset, spec)
            self.program = None
            self._target_names = list(self.network.targets)
            return self
        program = build_kmedoids_program(self.dataset, spec)
        if targets == "medoids":
            names = target_factories.medoid_targets(
                program, spec.k, n, last, objects=target_objects
            )
        elif targets == "assignments":
            names = target_factories.assignment_targets(
                program, spec.k, n, last, objects=target_objects
            )
        elif targets == "is_medoid":
            names = target_factories.is_medoid_targets(
                program, spec.k, last, target_objects or range(n)
            )
        else:
            raise ValueError(f"unknown target kind {targets!r}")
        self.program = program
        self.network = build_network(program)
        self._target_names = names
        return self

    def kmeans(
        self,
        spec: KMeansSpec,
        target_objects: Optional[Sequence[int]] = None,
    ) -> "ENFrame":
        """Register k-means clustering (Figure 2); targets are the final
        object–cluster assignment events."""
        from ..mining.kmeans import build_kmeans_program, kmeans_assignment_targets

        self._spec = spec
        program = build_kmeans_program(self.dataset, spec)
        names = kmeans_assignment_targets(
            program, spec.k, len(self.dataset), spec.iterations - 1, target_objects
        )
        self.program = program
        self.network = build_network(program)
        self._target_names = names
        return self

    def cooccurrence(self, pairs: Iterable[Tuple[int, int]]) -> "ENFrame":
        """Add co-occurrence targets ("are o_l and o_p in the same
        cluster?") to a registered k-medoids/k-means program."""
        if self.program is None or self._spec is None:
            raise RuntimeError("register a clustering program first")
        spec = self._spec
        names = target_factories.cooccurrence_targets(
            self.program, spec.k, spec.iterations - 1, pairs
        )
        self._target_names.extend(names)
        self.network = build_network(self.program)
        return self

    def user_program(
        self,
        source: str,
        params: Tuple[Any, ...],
        init_indices: Sequence[int],
        targets: Sequence[Tuple[str, Tuple[int, ...]]],
    ) -> "ENFrame":
        """Register an arbitrary user-language program.

        ``params`` feeds ``loadParams()``, ``init_indices`` the initial
        medoid/centroid choice, and ``targets`` names program variables
        (with concrete indices) whose final values become compilation
        targets, e.g. ``[("Centre", (0, 3))]``.
        """
        from ..lang.translate import dataset_externals, translate_source

        externals = dataset_externals(self.dataset, params, init_indices)
        program, translator = translate_source(source, externals)
        names = [
            translator.target(variable, *indices) for variable, indices in targets
        ]
        self.program = program
        self.translator = translator
        self.network = build_network(program)
        self._target_names = names
        return self

    # ------------------------------------------------------------------
    # Probability computation
    # ------------------------------------------------------------------

    @property
    def target_names(self) -> Tuple[str, ...]:
        return tuple(self._target_names)

    def run(
        self,
        scheme: str = "exact",
        epsilon: float = 0.0,
        order: "str | Sequence[int]" = "frequency",
        ordering: "str | Sequence[int] | None" = None,
        workers: Optional[int] = None,
        job_size: int = 3,
        execution: str = "simulate",
        timeout: Optional[float] = None,
        samples: int = 1000,
        seed: int = 0,
        confidence: float = 0.95,
        kernel: Optional[str] = None,
        listen: Optional[str] = None,
        evidence=None,
        options: Optional[SchemeOptions] = None,
    ) -> ProbabilisticResult:
        """Compute target probabilities.

        ``scheme`` names any scheme registered with
        :mod:`repro.engine.registry` — the paper's ``naive``, ``exact``,
        ``lazy``, ``eager``, ``hybrid``, and ``montecarlo`` (the
        MCDB-style statistical baseline) are built in, alongside the
        ``naive-scalar``/``montecarlo-scalar`` oracles.  Passing
        ``workers`` switches distributed-capable schemes to the
        distributed compiler (``hybrid-d`` & friends, Section 4.4),
        where ``execution`` picks the mode (``"simulate"`` or
        ``"process"`` — true multi-process workers; with
        ``listen="host:port"`` the run waits for remote
        ``repro cluster --connect`` workers instead of spawning local
        ones) and ``job_size`` is the fork depth (an ``int`` >= 1);
        options irrelevant to the chosen scheme are ignored, though a
        value of the wrong type or range raises ``ValueError`` (see
        :func:`repro.engine.registry.normalise_options`).
        ``order``/``ordering`` (the
        latter wins when both are given) select the Shannon schemes'
        variable-ordering strategy
        (:func:`repro.compile.ordering.make_order`).  ``kernel`` picks
        the evaluator tier for kernel-capable schemes
        (:data:`repro.engine.kernels.KERNEL_NAMES`; ``None`` = process
        default).

        ``evidence`` conditions evidence-capable schemes
        (``exact-cond``/``lazy-cond``) — any form accepted by
        :func:`repro.engine.registry.normalise_evidence`; it is dropped
        for schemes without the capability.  Alternatively pass a fully
        formed :class:`repro.engine.registry.SchemeOptions` via
        ``options=`` *instead of* the individual keywords (both at once
        raise ``TypeError`` downstream); either spelling goes through
        the same ``normalise_options`` seam.
        """
        if self.network is None:
            raise RuntimeError("no program registered; call kmedoids()/kmeans()/...")
        if options is not None:
            raw = run_scheme(
                scheme,
                self.network,
                self.dataset.pool,
                targets=self._target_names,
                options=options,
            )
        else:
            raw = run_scheme(
                scheme,
                self.network,
                self.dataset.pool,
                targets=self._target_names,
                epsilon=epsilon,
                order=order if ordering is None else ordering,
                workers=workers,
                job_size=job_size,
                execution=execution,
                timeout=timeout,
                samples=samples,
                seed=seed,
                confidence=confidence,
                kernel=kernel,
                listen=listen,
                evidence=evidence,
            )
        return ProbabilisticResult(raw, list(self._target_names))

    def whatif(
        self,
        targets: Optional[Sequence[str]] = None,
        order: "str | Sequence[int]" = "frequency",
        kernel: Optional[str] = None,
    ):
        """Open an incremental :class:`repro.session.WhatIfSession`.

        The session holds a persistent evaluator over the registered
        network: ``assert_evidence``/``retract``/``set_probability``
        edits re-sweep only the touched variable's influence cone, and
        ``query`` re-expands only the targets that edit made stale.
        """
        if self.network is None:
            raise RuntimeError("no program registered; call kmedoids()/kmeans()/...")
        from ..session import WhatIfSession

        return WhatIfSession(
            self.network,
            self.dataset.pool,
            targets=targets if targets is not None else self._target_names,
            order=order,
            kernel=kernel,
        )
