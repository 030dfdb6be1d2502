"""Correctness from an independent interpreter.

Reference answers come from the scalar per-world evaluator — the one
behind the registered ``naive-scalar`` scheme (``PartialEvaluator`` /
``FoldedEvaluator`` over the event semantics).  It shares no code with
the engines the workloads time (``engine.masked``, ``engine.kernels``,
``engine.packed``, ``engine.bulk``).

What is stored is the *truth table*: for every target, in which of the
``2^n`` worlds it holds.  Truth does not depend on the marginals, so
one table answers every question a workload asks of its network —
another seed's marginals, a what-if edit, evidence — as a sum of world
masses, in the parent, without ``repro``.  Tables are cached by the
digest of the network's structure: ``expected/`` holds the committed
ones, ``results/tables/`` the ones built at run time.

:func:`build_table` and :func:`structure_digest` run in a child (they
need ``repro``); everything else is pure.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")
RUNTIME_DIR = os.path.join(HERE, "results", "tables")


# ----------------------------------------------------------------------
# Child side: digest and table of a network
# ----------------------------------------------------------------------


def structure_digest(network, variables: int, names: Sequence[str]) -> str:
    """sha256 over everything truth depends on: node kinds, operands and
    payloads, loop slots, the target bindings and the variable count."""
    digest = hashlib.sha256()
    for node in network.nodes:
        payload = node.payload
        if hasattr(payload, "tolist"):
            payload = payload.tolist()
        digest.update(
            f"{int(node.kind)}|{node.children}|{payload!r}\n".encode()
        )
    digest.update(repr(sorted(getattr(network, "slots", {}).items())).encode())
    digest.update(repr(getattr(network, "iterations", None)).encode())
    digest.update(repr([(name, network.targets[name]) for name in names]).encode())
    digest.update(repr(variables).encode())
    return digest.hexdigest()[:32]


def build_table(network, variables: int, names: Sequence[str]) -> Dict[str, int]:
    """World bitmask per target; bit ``w`` is world ``w``, whose bit ``i``
    is the value of variable ``i``.  One scalar traversal per world —
    the loop of ``naive_probabilities_scalar`` without the masses."""
    from repro.compile.compiler import make_evaluator
    from repro.compile.partial import B_TRUE

    evaluator = make_evaluator(network, engine="scalar")
    ids = [network.targets[name] for name in names]
    masks = [0] * len(names)
    for world in range(1 << variables):
        evaluator.assignment = {
            index: bool(world >> index & 1) for index in range(variables)
        }
        memo: dict = {}
        for position, node_id in enumerate(ids):
            if evaluator.node_state(node_id, memo) == B_TRUE:
                masks[position] |= 1 << world
        evaluator.resolved = {}
    return dict(zip(names, masks))


def table_path(digest: str) -> Optional[str]:
    for directory in (EXPECTED_DIR, RUNTIME_DIR):
        path = os.path.join(directory, f"{digest}.json")
        if os.path.exists(path):
            return path
    return None


def ensure_table(network, variables: int, names: Sequence[str], label: str) -> str:
    """Path of the network's table, building it on a cache miss."""
    digest = structure_digest(network, variables, names)
    path = table_path(digest)
    if path is None:
        masks = build_table(network, variables, names)
        os.makedirs(RUNTIME_DIR, exist_ok=True)
        path = os.path.join(RUNTIME_DIR, f"{digest}.json")
        document = {
            "digest": digest,
            "label": label,
            "variables": variables,
            "oracle": "scalar per-world evaluator (naive-scalar)",
            "targets": {name: format(mask, "x") for name, mask in masks.items()},
        }
        temporary = f"{path}.{os.getpid()}.tmp"
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=0, sort_keys=True)
            handle.write("\n")
        os.replace(temporary, path)
    return path


# ----------------------------------------------------------------------
# Parent side: pure arithmetic over a table
# ----------------------------------------------------------------------


class Table:
    """A loaded truth table: the worlds in which each target holds."""

    def __init__(self, document: dict) -> None:
        self.variables = int(document["variables"])
        self.members: Dict[str, Tuple[int, ...]] = {}
        for name, encoded in document["targets"].items():
            bits = bin(int(encoded, 16))[:1:-1]  # least significant first
            self.members[name] = tuple(
                world for world, bit in enumerate(bits) if bit == "1"
            )
        self._cache: Dict[tuple, Dict[str, float]] = {}

    @classmethod
    def load(cls, path: str) -> "Table":
        with open(path, "r", encoding="utf-8") as handle:
            return cls(json.load(handle))

    def probabilities(
        self, marginals: Sequence[float], evidence: Sequence[Sequence[object]]
    ) -> Dict[str, float]:
        """``P(target | evidence)`` for every target under ``marginals``."""
        key = (tuple(marginals), tuple(map(tuple, evidence)))
        cached = self._cache.get(key)
        if cached is None:
            masses = world_masses(marginals, evidence)
            cached = {
                name: math.fsum(masses[world] for world in worlds)
                for name, worlds in self.members.items()
            }
            self._cache[key] = cached
        return cached


def world_masses(
    marginals: Sequence[float], evidence: Sequence[Sequence[object]] = ()
) -> List[float]:
    """Mass of each world, conditioned on variable-level evidence.

    The variables are independent, so conditioning on ``x_i = v`` is the
    same distribution with that marginal moved to 1 or 0.
    """
    conditioned = list(marginals)
    for variable, value in evidence:
        conditioned[variable] = 1.0 if value else 0.0
    masses = [1.0]
    for probability in conditioned:
        masses = [mass * (1.0 - probability) for mass in masses] + [
            mass * probability for mass in masses
        ]
    return masses


def check_claim(
    claim: dict, table: Table, marginals: Sequence[float]
) -> Optional[str]:
    """``None`` when the claim holds, else what is wrong with it.

    Certified bounds: ``L - tol <= p <= U + tol`` and ``U - L <= 2 eps +
    tol`` (exact schemes have ``eps == 0``).  Monte Carlo: ``p`` inside
    the interval the run itself stated, widened by ``z^2 / n`` — the
    half-width Wilson's interval keeps where Wald's collapses to a point
    (frequencies 0 and 1).
    """
    if len(marginals) != table.variables:
        return f"{len(marginals)} marginals for a {table.variables}-variable table"
    reference = table.probabilities(marginals, claim["evidence"])
    tolerance = claim["tolerance"]
    samples = claim["samples"]
    if samples:
        z = statistics.NormalDist().inv_cdf(0.5 * (1.0 + claim["confidence"]))
        slack = z * z / samples
        max_gap = 1.0
    else:
        slack = tolerance
        max_gap = 2.0 * claim["epsilon"] + tolerance
    for name, (lower, upper) in claim["bounds"].items():
        if name not in reference:
            return f"unknown target {name!r}"
        truth = reference[name]
        if not lower - slack <= truth <= upper + slack:
            return (
                f"{name}: reference {truth!r} outside [{lower!r}, {upper!r}] "
                f"(slack {slack:.3g})"
            )
        if upper - lower > max_gap:
            return f"{name}: gap {upper - lower!r} exceeds {max_gap!r}"
    return None
