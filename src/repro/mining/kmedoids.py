"""K-medoids clustering: event-program builder and reference semantics.

Implements Figure 1 of the paper: the assignment phase picks, for every
object, the cluster with the nearest medoid (ties broken towards the
first cluster); the update phase sums, per candidate object, the
distances to all members of each cluster and elects the object
minimising that sum (ties broken towards the first object) as the new
medoid.

Two implementations are provided:

* :func:`build_kmedoids_program` — the symbolic *event program* of the
  right-hand side of Figure 1, defined over a probabilistic dataset.
* :func:`kmedoids_in_world` — a direct interpreter of the same semantics
  for one concrete world (a subset of present objects), including the
  undefined-value propagation rules.  This is the "golden standard" the
  paper compares against: clustering executed in every possible world.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.datasets import ProbabilisticDataset
from ..events import values as V
from ..events.expressions import atom, cdist, cond, conj, csum, guard
from ..events.program import EventProgram, eid
from .distance import pairwise_distances
from .ties import break_ties_1, break_ties_2, tie_break_events


@dataclass(frozen=True)
class KMedoidsSpec:
    """Parameters of a k-medoids run (``loadParams()`` + ``init()``)."""

    k: int
    iterations: int = 3
    metric: str = "euclidean"
    init: Optional[Tuple[int, ...]] = None

    def initial_medoids(self, count: int) -> Tuple[int, ...]:
        """Initial medoid indices π(0..k-1); defaults to the first k."""
        if self.init is not None:
            if len(self.init) != self.k:
                raise ValueError("init must name exactly k objects")
            return self.init
        if self.k > count:
            raise ValueError("k exceeds the number of objects")
        return tuple(range(self.k))


def build_kmedoids_program(
    dataset: ProbabilisticDataset, spec: KMedoidsSpec
) -> EventProgram:
    """Ground the k-medoids event program (Figure 1, right) for a dataset.

    Declared names (``it`` is the iteration, ``i`` the cluster, ``l``/``p``
    objects):

    - ``Phi[l]`` — lineage event of object ``l``;
    - ``O[l] ≡ Phi[l] ⊗ o_l`` — the guarded input objects;
    - ``PD[l][p] ≡ dist(O[l], O[p])`` — pairwise object distances;
    - ``Minit[i]`` / ``M[it][i]`` — medoid c-values per iteration;
    - ``D[it][l][i] ≡ dist(O[l], M[it-1][i])`` — object-medoid distances;
    - ``InClRaw``/``InCl`` — assignment events before/after ``breakTies2``;
    - ``DistSum[it][i][l]`` — sums of member distances (update phase);
    - ``CentreRaw``/``Centre`` — medoid-election events before/after
      ``breakTies1`` (conjoined with object existence).
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot cluster an empty dataset")
    k = spec.k
    program = EventProgram()
    init = spec.initial_medoids(n)

    phi = [program.declare_event(eid("Phi", l), dataset.events[l]) for l in range(n)]
    objects = [
        program.declare_cval(eid("O", l), guard(phi[l], dataset.points[l]))
        for l in range(n)
    ]
    # Pairwise distances between guarded objects are iteration-invariant.
    pairwise = [
        [
            program.declare_cval(
                eid("PD", l, p), cdist(objects[l], objects[p], spec.metric)
            )
            for p in range(n)
        ]
        for l in range(n)
    ]

    medoids = [
        program.declare_cval(
            eid("Minit", i), guard(phi[init[i]], dataset.points[init[i]])
        )
        for i in range(k)
    ]

    for it in range(spec.iterations):
        # Assignment phase: distances to the current medoids ...
        dist_to = [
            [
                program.declare_cval(
                    eid("D", it, l, i), cdist(objects[l], medoids[i], spec.metric)
                )
                for i in range(k)
            ]
            for l in range(n)
        ]
        # ... nearest-medoid events, ties broken towards the first cluster.
        raw_incl = [
            [
                program.declare_event(
                    eid("InClRaw", it, i, l),
                    conj(
                        atom("<=", dist_to[l][i], dist_to[l][j])
                        for j in range(k)
                        if j != i
                    ),
                )
                for l in range(n)
            ]
            for i in range(k)
        ]
        incl = [[None] * n for _ in range(k)]
        for l in range(n):
            broken = tie_break_events(
                [raw_incl[i][l] for i in range(k)], [phi[l]] * k
            )
            for i in range(k):
                incl[i][l] = program.declare_event(eid("InCl", it, i, l), broken[i])

        # Update phase: per-candidate sums of distances to cluster members.
        dist_sum = [
            [
                program.declare_cval(
                    eid("DistSum", it, i, l),
                    csum(cond(incl[i][p], pairwise[l][p]) for p in range(n)),
                )
                for l in range(n)
            ]
            for i in range(k)
        ]
        raw_centre = [
            [
                program.declare_event(
                    eid("CentreRaw", it, i, l),
                    conj(
                        atom("<=", dist_sum[i][l], dist_sum[i][p])
                        for p in range(n)
                        if p != l
                    ),
                )
                for l in range(n)
            ]
            for i in range(k)
        ]
        centre = [[None] * n for _ in range(k)]
        for i in range(k):
            broken = tie_break_events(raw_centre[i], [phi[l] for l in range(n)])
            for l in range(n):
                centre[i][l] = program.declare_event(eid("Centre", it, i, l), broken[l])

        medoids = [
            program.declare_cval(
                eid("M", it, i),
                csum(cond(centre[i][l], objects[l]) for l in range(n)),
            )
            for i in range(k)
        ]

    return program


def build_kmedoids_folded(dataset: ProbabilisticDataset, spec: KMedoidsSpec):
    """Folded k-medoids network (Section 4.2): one iteration template.

    The medoid c-values are loop-carried slots; the network size is
    independent of the iteration count, and compilation evaluates the
    template once per iteration with per-iteration masks.  Targets are
    the ``Centre`` election events at the final iteration, named
    identically to the unfolded builder's final-iteration targets.
    """
    from ..events.expressions import LoopCVal
    from ..network.build import NetworkBuilder
    from ..network.nodes import EventNetwork

    n = len(dataset)
    if n == 0:
        raise ValueError("cannot cluster an empty dataset")
    k = spec.k
    init = spec.initial_medoids(n)
    builder = NetworkBuilder(EventNetwork(iterations=spec.iterations))

    phi = list(dataset.events)
    objects = [guard(phi[l], dataset.points[l]) for l in range(n)]
    pairwise = [
        [cdist(objects[l], objects[p], spec.metric) for p in range(n)]
        for l in range(n)
    ]
    previous = [LoopCVal(eid("M", i)) for i in range(k)]

    dist_to = [
        [cdist(objects[l], previous[i], spec.metric) for i in range(k)]
        for l in range(n)
    ]
    raw_incl = [
        [
            conj(
                atom("<=", dist_to[l][i], dist_to[l][j])
                for j in range(k)
                if j != i
            )
            for l in range(n)
        ]
        for i in range(k)
    ]
    incl = [[None] * n for _ in range(k)]
    for l in range(n):
        broken = tie_break_events([raw_incl[i][l] for i in range(k)], [phi[l]] * k)
        for i in range(k):
            incl[i][l] = broken[i]
    dist_sum = [
        [
            csum(cond(incl[i][p], pairwise[l][p]) for p in range(n))
            for l in range(n)
        ]
        for i in range(k)
    ]
    raw_centre = [
        [
            conj(
                atom("<=", dist_sum[i][l], dist_sum[i][p])
                for p in range(n)
                if p != l
            )
            for l in range(n)
        ]
        for i in range(k)
    ]
    centre = [
        tie_break_events(raw_centre[i], [phi[l] for l in range(n)])
        for i in range(k)
    ]
    new_medoids = [
        csum(cond(centre[i][l], objects[l]) for l in range(n)) for i in range(k)
    ]

    for i in range(k):
        builder.define_slot(
            eid("M", i),
            init=guard(phi[init[i]], dataset.points[init[i]]),
            next_value=new_medoids[i],
        )
    last = spec.iterations - 1
    for i in range(k):
        for l in range(n):
            builder.add_target(eid("Centre", last, i, l), centre[i][l])
    builder.network.check_complete()
    return builder.network


# ----------------------------------------------------------------------
# Reference semantics: k-medoids in one concrete world
# ----------------------------------------------------------------------


def kmedoids_in_world(
    points: np.ndarray,
    present: Sequence[bool],
    spec: KMedoidsSpec,
) -> Dict[str, object]:
    """Run k-medoids in one world under the undefined-value semantics.

    ``present[l]`` says whether object ``l`` exists in the world.  The
    result mirrors the user program of Figure 1 executed with the event
    semantics of Section 3.2 — absent objects contribute undefined
    values, comparisons against undefined are true, and tie-breaking is
    restricted to present objects.  Returns the final ``incl`` and
    ``centre`` Boolean matrices and the medoid values (vectors or ``u``).
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    k = spec.k
    init = spec.initial_medoids(n)
    present = [bool(flag) for flag in present]
    distances = pairwise_distances(points, spec.metric)

    def obj_value(l: int):
        return points[l] if present[l] else V.UNDEFINED

    medoids: List[object] = [obj_value(init[i]) for i in range(k)]
    incl: List[List[bool]] = [[False] * n for _ in range(k)]
    centre: List[List[bool]] = [[False] * n for _ in range(k)]

    for _ in range(spec.iterations):
        # Assignment phase.
        dist_to = [
            [V.distance(obj_value(l), medoids[i], spec.metric) for i in range(k)]
            for l in range(n)
        ]
        raw = [
            [
                all(
                    V.compare("<=", dist_to[l][i], dist_to[l][j])
                    for j in range(k)
                    if j != i
                )
                for l in range(n)
            ]
            for i in range(k)
        ]
        # breakTies2 with existence eligibility.
        eligible = [[raw[i][l] and present[l] for l in range(n)] for i in range(k)]
        incl = break_ties_2(eligible)

        # Update phase.
        dist_sum = [
            [
                _world_sum(
                    V.distance(obj_value(l), obj_value(p), spec.metric)
                    for p in range(n)
                    if incl[i][p]
                )
                for l in range(n)
            ]
            for i in range(k)
        ]
        raw_centre = [
            [
                all(
                    V.compare("<=", dist_sum[i][l], dist_sum[i][p])
                    for p in range(n)
                    if p != l
                )
                for l in range(n)
            ]
            for i in range(k)
        ]
        eligible_centre = [
            [raw_centre[i][l] and present[l] for l in range(n)] for i in range(k)
        ]
        centre = break_ties_1(eligible_centre)
        medoids = [
            _world_sum(obj_value(l) for l in range(n) if centre[i][l])
            for i in range(k)
        ]

    return {"incl": incl, "centre": centre, "medoids": medoids}


def _world_sum(values) -> object:
    total = V.UNDEFINED
    for value in values:
        total = V.add(total, value)
    return total


def kmedoids_deterministic(
    points: np.ndarray, spec: KMedoidsSpec
) -> Dict[str, object]:
    """Plain k-medoids on certain data (every object present)."""
    return kmedoids_in_world(points, [True] * len(points), spec)
