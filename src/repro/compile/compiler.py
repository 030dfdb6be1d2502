"""Bulk compilation of event networks by Shannon expansion (Algorithm 1).

One depth-first traversal of the decision tree induced by the input random
variables computes probability bounds for *all* compilation targets at
once.  The same traversal implements all four schemes of the paper:

* ``exact``  — explore until every target is masked on every branch;
* ``lazy``   — exact exploration, but stop tightening a target as soon as
  its bounds are within ``2ε`` (budget spent on the rightmost branches);
* ``eager``  — spend the error budget as early as possible: prune any
  branch whose probability mass fits in the remaining global budget;
* ``hybrid`` — split the budget evenly over the two branches at every
  node, passing residual budget from the left branch to the right one.

All schemes return certified bounds: ``L <= P[target] <= U`` always holds
and ``U - L <= 2ε`` on completion (``ε = 0`` for exact).

Leaf evaluation dispatches through :func:`make_evaluator`: the default
``masked`` engine keeps the partial-evaluation abstraction in columns
over the flat IR with incremental recomputation per branch
(:mod:`repro.engine.masked`); ``scalar`` selects the recursive
evaluator, kept as the cross-validation oracle.  The decision tree itself
is walked with an explicit frame stack, so arbitrarily deep networks
compile without touching the interpreter recursion limit.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from ..network.nodes import EventNetwork
from ..worlds.variables import VariablePool
from .ordering import VariableOrder, make_order
from .partial import B_FALSE, B_TRUE, PartialEvaluator
from .result import CompilationResult

SCHEMES = ("exact", "lazy", "eager", "hybrid")
ENGINES = ("masked", "scalar")


def make_evaluator(
    network: EventNetwork, engine: str = "masked", kernel: Optional[str] = None
):
    """The evaluator for ``engine``: ``masked`` (the default) is the
    columnar flat-IR evaluator with incremental recomputation;
    ``scalar`` is the recursive :class:`PartialEvaluator`, kept as the
    cross-validation oracle.  Both run every network the builder or
    :func:`~repro.network.serialize.network_from_dict` accepts, with or
    without a loop; there is no fallback from one to the other.

    ``kernel`` picks the tier driving the masked engine's cone sweeps
    (:mod:`repro.engine.kernels`); ``None`` defers to the process
    default (``REPRO_KERNEL`` or ``auto``).  The tier also travels
    inside the engine string as ``"masked:<kernel>"`` — the form the
    distributed coordinator ships to its workers — with an explicit
    ``kernel=`` argument taking precedence.
    """
    base, _, suffix = engine.partition(":")
    if kernel is None and suffix:
        kernel = suffix
    if base not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if base == "masked":
        from ..engine.kernels import make_masked_evaluator

        return make_masked_evaluator(network, kernel=kernel)
    return PartialEvaluator(network)


class _Frame:
    """One explicit-stack frame of the decision-tree DFS."""

    __slots__ = (
        "prob",
        "active",
        "budgets",
        "phase",
        "variable",
        "prob_true",
        "prob_false",
        "still_active",
        "pushed",
    )

    def __init__(self, prob: float, active: List[str], budgets: Dict[str, float]):
        self.prob = prob
        self.active = active
        self.budgets = budgets
        self.phase = 0
        self.variable: Optional[int] = None
        self.prob_true = 0.0
        self.prob_false = 0.0
        self.still_active: List[str] = []
        self.pushed = False


class ShannonCompiler:
    """Compiles all targets of an event network in one DFS (Section 4.1)."""

    def __init__(
        self,
        network: EventNetwork,
        pool: VariablePool,
        targets: Optional[Sequence[str]] = None,
        order: "str | Sequence[int]" = "frequency",
        engine: str = "masked",
        kernel: Optional[str] = None,
        evaluator=None,
    ) -> None:
        self.network = network
        self.pool = pool
        names = list(targets) if targets is not None else list(network.targets)
        if not names:
            raise ValueError("network has no compilation targets")
        self.target_names = names
        self.target_ids = {name: network.targets[name] for name in names}
        self.order: VariableOrder = make_order(network, order)
        if kernel is not None and ":" not in engine:
            # Fold the tier into the engine string so it survives every
            # place the engine travels as a plain string (the distributed
            # worker config, evaluator rebuilds).
            engine = f"{engine}:{kernel}"
        self.engine = engine
        # Run state (reset per run()).  A caller may hand over an
        # evaluator for this network/engine (the distributed workers
        # recycle persistent evaluators across jobs, possibly with a job
        # prefix still pushed) — rebuilding a masked evaluator repeats
        # its baseline sweep.  run() still insists on a balanced
        # evaluator; the distributed job path manages depth itself.
        if evaluator is not None:
            self.evaluator = evaluator
        else:
            self.evaluator = make_evaluator(network, engine=engine)
        self._lower: Dict[str, float] = {}
        self._upper: Dict[str, float] = {}
        self._scheme = "exact"
        self._epsilon = 0.0
        self._tree_nodes = 0
        self._max_depth = 0
        self._finished: set = set()
        self._global_budget: Dict[str, float] = {}

    # ------------------------------------------------------------------

    def run(self, scheme: str = "exact", epsilon: float = 0.0) -> CompilationResult:
        """Compile and return certified probability bounds per target."""
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
        if scheme == "exact" and epsilon != 0.0:
            raise ValueError("exact compilation requires epsilon == 0")
        if scheme != "exact" and epsilon <= 0.0:
            raise ValueError(f"scheme {scheme!r} requires a positive epsilon")

        # A balanced evaluator (every push popped) is back to its
        # baseline state and can be reused — rebuilding the masked
        # engine's columns would repeat the baseline sweep per run.
        if self.evaluator is None or self.evaluator.depth != 0:
            self.evaluator = make_evaluator(self.network, engine=self.engine)
        evals_before = self.evaluator.evals
        self._lower = {name: 0.0 for name in self.target_names}
        self._upper = {name: 1.0 for name in self.target_names}
        self._scheme = scheme
        self._epsilon = epsilon
        self._tree_nodes = 0
        self._max_depth = 0
        self._finished = set()
        self._global_budget = {name: 2.0 * epsilon for name in self.target_names}

        budgets = {name: 2.0 * epsilon for name in self.target_names}
        started = time.perf_counter()
        self.evaluator.push()
        self._dfs(1.0, list(self.target_names), budgets)
        self.evaluator.pop()
        elapsed = time.perf_counter() - started

        bounds = {
            name: (self._lower[name], self._upper[name])
            for name in self.target_names
        }
        result = CompilationResult(
            bounds=bounds,
            scheme=scheme,
            epsilon=epsilon,
            seconds=elapsed,
            tree_nodes=self._tree_nodes,
            evals=self.evaluator.evals - evals_before,
            max_depth=self._max_depth,
        )
        from ..engine.kernels import record_kernel_tier

        record_kernel_tier(result.extra, self.evaluator)
        return result

    # ------------------------------------------------------------------

    def _enter_node(
        self, prob: float, active: List[str], budgets: Dict[str, float]
    ) -> Optional[Dict[str, float]]:
        """Hook called on entering a tree node, before any evaluation.

        Returning a residual-budget dict short-circuits the subtree (the
        distributed job compiler forks jobs this way); ``None`` explores
        it normally.
        """
        return None

    def _visit(self, frame: _Frame) -> Optional[Dict[str, float]]:
        """Evaluate and maybe close a tree node.

        Returns the subtree's residual budgets when the node is a leaf
        (all targets masked) or is pruned by the approximation scheme;
        returns ``None`` when the node must branch, leaving the chosen
        variable and branch parameters on the frame.
        """
        self._tree_nodes += 1
        depth = self.evaluator.depth
        if depth > self._max_depth:
            self._max_depth = depth

        # Mask propagation: evaluate the active targets under the current
        # assignment; record resolutions into the probability bounds.
        prob, budgets = frame.prob, frame.budgets
        states = self.evaluator.target_states(
            [self.target_ids[name] for name in frame.active]
        )
        still_active: List[str] = []
        for name in frame.active:
            state = states[self.target_ids[name]]
            if state == B_TRUE:
                self._lower[name] += prob
            elif state == B_FALSE:
                self._upper[name] -= prob
            elif name in self._finished:
                continue
            elif (
                self._scheme != "exact"
                and self._upper[name] - self._lower[name] <= 2.0 * self._epsilon
            ):
                # Bounds already ε-approximate: stop tightening this target.
                self._finished.add(name)
            else:
                still_active.append(name)
        if not still_active:
            return budgets

        # Approximation: prune this subtree if its whole mass fits in the
        # error budget of every still-active target.
        if self._scheme == "hybrid":
            if all(budgets[name] >= prob for name in still_active):
                residual = dict(budgets)
                for name in still_active:
                    residual[name] -= prob
                return residual
        elif self._scheme == "eager":
            if all(self._global_budget[name] >= prob for name in still_active):
                for name in still_active:
                    self._global_budget[name] -= prob
                return budgets

        variable = self.order.next_variable(self.evaluator)
        if variable is None:
            raise AssertionError(
                "all variables assigned but targets remain unresolved"
            )
        frame.variable = variable
        frame.prob_true = self.pool.probability(variable, True)
        frame.prob_false = 1.0 - frame.prob_true
        frame.still_active = still_active
        return None

    def _dfs(
        self,
        prob: float,
        active: List[str],
        budgets: Dict[str, float],
    ) -> Dict[str, float]:
        """Explore the subtree below the current assignment, iteratively.

        ``prob`` is the probability mass of the current branch, ``active``
        the targets not yet masked above, ``budgets`` the per-target error
        budget available to this subtree (hybrid scheme).  Returns the
        residual budgets.  The traversal keeps its own frame stack — the
        Python call stack stays flat no matter how deep the decision
        tree grows.
        """
        stack = [_Frame(prob, list(active), budgets)]
        ret: Dict[str, float] = budgets
        while stack:
            frame = stack[-1]
            if frame.phase == 0:
                closed = self._enter_node(frame.prob, frame.active, frame.budgets)
                if closed is None:
                    closed = self._visit(frame)
                if closed is not None:
                    ret = closed
                    stack.pop()
                    continue
                if self._scheme == "hybrid":
                    left_budgets = {
                        name: 0.5 * frame.budgets[name] for name in frame.budgets
                    }
                else:
                    left_budgets = frame.budgets
                frame.phase = 1
                if frame.prob_true > 0.0:
                    self.evaluator.push(frame.variable, True)
                    frame.pushed = True
                    stack.append(
                        _Frame(
                            frame.prob * frame.prob_true,
                            frame.still_active,
                            left_budgets,
                        )
                    )
                else:
                    ret = left_budgets
                continue
            if frame.phase == 1:
                if frame.pushed:
                    self.evaluator.pop(frame.variable)
                    frame.pushed = False
                residual_left = ret
                if self._scheme == "hybrid":
                    right_budgets = {
                        name: 0.5 * frame.budgets[name]
                        + residual_left.get(name, 0.0)
                        for name in frame.budgets
                    }
                else:
                    right_budgets = frame.budgets
                # Skip the right branch when every target is already
                # ε-approximate.
                if self._scheme != "exact" and all(
                    self._upper[name] - self._lower[name] <= 2.0 * self._epsilon
                    for name in frame.still_active
                ):
                    ret = right_budgets
                    stack.pop()
                    continue
                frame.phase = 2
                if frame.prob_false > 0.0:
                    self.evaluator.push(frame.variable, False)
                    frame.pushed = True
                    stack.append(
                        _Frame(
                            frame.prob * frame.prob_false,
                            frame.still_active,
                            right_budgets,
                        )
                    )
                else:
                    ret = right_budgets
                continue
            # phase 2: the right branch (if any) has returned in ``ret``.
            if frame.pushed:
                self.evaluator.pop(frame.variable)
            stack.pop()
        return ret


def compile_network(
    network: EventNetwork,
    pool: VariablePool,
    scheme: str = "exact",
    epsilon: float = 0.0,
    targets: Optional[Sequence[str]] = None,
    order: "str | Sequence[int]" = "frequency",
    engine: str = "masked",
    kernel: Optional[str] = None,
) -> CompilationResult:
    """One-shot helper: build a compiler and run one scheme."""
    compiler = ShannonCompiler(
        network, pool, targets=targets, order=order, engine=engine, kernel=kernel
    )
    return compiler.run(scheme=scheme, epsilon=epsilon)
