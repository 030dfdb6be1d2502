"""Ablation: variable-ordering strategies (design choice, Section 4.1).

The paper's compiler "chooses a next variable x' such that it influences
as many events as possible".  We compare the static frequency heuristic
(our default proxy), the dynamic influence recomputation closest to the
paper's description (``dynamic`` = cone-aware scoring), and a naive
index order.  Better orders resolve targets earlier and explore
fewer decision-tree nodes; ``benchmarks/bench_ordering_cone.py``
measures the scoring cost itself.

Run the full sweep:  python -m benchmarks.bench_ablation_ordering
"""

from __future__ import annotations

import pytest

from repro.compile.compiler import compile_network

from .common import EPSILON, make_workload

ORDERS = ("frequency", "dynamic", "index")


def workload():
    return make_workload(
        12,
        scheme="mutex",
        seed=1,
        mutex_size=4,
        group_size=2,
        label="ordering-ablation",
    )


def main() -> None:
    shared = workload()
    print("\n== Ablation — variable ordering (mutex, n=12) ==")
    print(f"{'order':>12}  {'exact s':>9}  {'tree':>7}  {'hybrid s':>9}  {'tree':>7}")
    for order in ORDERS:
        exact = compile_network(
            shared.network, shared.dataset.pool, order=order, targets=shared.targets
        )
        hybrid = compile_network(
            shared.network,
            shared.dataset.pool,
            scheme="hybrid",
            epsilon=EPSILON,
            order=order,
            targets=shared.targets,
        )
        print(
            f"{order:>12}  {exact.seconds:>9.4f}  {exact.tree_nodes:>7}"
            f"  {hybrid.seconds:>9.4f}  {hybrid.tree_nodes:>7}"
        )


@pytest.mark.parametrize("order", ORDERS)
def bench_ordering(benchmark, order):
    shared = workload()
    benchmark.group = "ablation ordering"
    benchmark(
        compile_network,
        shared.network,
        shared.dataset.pool,
        scheme="hybrid",
        epsilon=EPSILON,
        order=order,
        targets=shared.targets,
    )


if __name__ == "__main__":
    main()
