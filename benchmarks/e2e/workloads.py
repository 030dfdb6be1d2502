"""The five workloads: set-up, one op, the same op stage by stage.

Child processes only — this module imports ``repro``; the parent
(``run.py``) never does.

Every workload offers

* ``setup_steps()`` — ``(span name, callable)`` pairs, run in order
  before the warm-up op (plainly in the untraced pass, inside spans in
  the traced one);
* ``op(index)`` — one op through the public entry point a user would
  call (``repro cluster``, ``ENFrame.run``, ``ServeClient``,
  ``WhatIfSession``).  An op is a fixed basket: every op of a run does
  identical work.  It returns an :class:`OpRecord`;
* ``staged_op(index, tracer)`` — the same basket driven stage by stage
  from here, each call into a layer's public function inside a span;
* ``tables()`` — the networks whose per-world truth tables the oracle
  needs to judge the recorded claims.

What the seed changes: the dataset seeds (geometry, lineage, marginals)
wherever the independent oracle can rebuild a truth table in about a
second (5, 6 and 9 variables), and only the marginals and Monte Carlo
seeds on the two inputs whose table takes about a minute (12-variable
MCL graph, 13-variable positive k-medoids), whose structure is fixed
and whose tables are committed under ``expected/``.  Marginals that
steer epsilon-pruning are drawn from a narrow band so that the size of
an approximate decision tree is a property of the workload, not of the
seed.
"""

from __future__ import annotations

import copy
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import ENFrame, KMedoidsSpec, MCLSpec
from repro.compile.compiler import make_evaluator
from repro.correlations.schemes import make_lineage
from repro.data.datasets import sensor_dataset
from repro.engine.ir import flatten, flatten_folded
from repro.engine.kernels import KERNEL_TIER_CODES, get_backend
from repro.engine.masked import masked_program
from repro.engine.registry import run_scheme
from repro.lang.translate import dataset_externals, translate_source
from repro.mining.kmedoids import build_kmedoids_folded, build_kmedoids_program
from repro.mining.markov import (
    attraction_targets,
    build_mcl_program,
    stochastic_graph,
)
from repro.mining.programs import KMEDOIDS_SOURCE
from repro.mining.targets import medoid_targets
from repro.network.build import build_network
from repro.network.serialize import (
    network_from_dict,
    network_to_dict,
    pool_from_dict,
    pool_to_dict,
)
from repro.serve import ServeClient, ServerThread
from repro.session import WhatIfSession

from spans import Tracer, now

EPSILON = 0.1
# Monte Carlo intervals are statistical: at this confidence one of the
# ~10^5 target checks of a full driver schedule fails by chance about
# once in 10^7 schedules, so "no op fails" holds on every seed.
MC_CONFIDENCE = 1.0 - 1e-12
NATIVE_TIER = KERNEL_TIER_CODES["native"]
HERE = os.path.dirname(os.path.abspath(__file__))

Steps = List[Tuple[str, Callable[[], None]]]


@dataclass
class OpRecord:
    """What one op answered and what it cost in exact counts.

    ``claims`` are judged after the window against the oracle's truth
    tables; ``native`` says, per Shannon pass of the op, whether it ran
    on the native kernel tier.
    """

    claims: List[dict] = field(default_factory=list)
    tree_nodes: int = 0
    evals: int = 0
    native: List[bool] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)

    def shannon(self, tree_nodes, evals, kernel_tier) -> None:
        """Count one Shannon pass (``kernel_tier`` as in ``result.extra``)."""
        self.tree_nodes += int(tree_nodes)
        self.evals += int(evals)
        self.native.append(kernel_tier == NATIVE_TIER)

    def shannon_result(self, result) -> None:
        self.shannon(result.tree_nodes, result.evals,
                     result.extra.get("kernel_tier"))


def claim(
    table: str,
    pool: str,
    bounds: Dict[str, Sequence[float]],
    *,
    epsilon: float = 0.0,
    tolerance: float = 1e-9,
    evidence: Sequence[Sequence[object]] = (),
    samples: Optional[int] = None,
) -> dict:
    """One answer to be judged: certified bounds (``epsilon == 0`` for
    exact schemes) or, with ``samples``, a Monte Carlo interval."""
    return {
        "table": table,
        "pool": pool,
        "bounds": {name: [float(lo), float(hi)] for name, (lo, hi) in bounds.items()},
        "epsilon": epsilon,
        "tolerance": tolerance,
        "evidence": [[int(var), bool(value)] for var, value in evidence],
        "samples": samples,
        "confidence": MC_CONFIDENCE if samples else None,
    }


class Workload:
    name = ""
    #: True when every op is a fresh process and this one only drives it
    program_is_subprocess = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: marginal vectors by key; claims name the key they were made under
        self.pools: Dict[str, List[float]] = {}

    def setup_steps(self) -> Steps:
        return []

    def op(self, index: int) -> OpRecord:
        raise NotImplementedError

    def staged_op(self, index: int, tracer: Tracer) -> OpRecord:
        raise NotImplementedError

    def after_staged(self, index: int, record: OpRecord) -> None:
        """Traced pass, outside the op's span: a comparison run whose
        time goes into ``record.extra``."""

    def probes(self) -> Dict[str, float]:
        """Layer probes that are not a stage of the op (traced pass)."""
        return {}

    def tables(self) -> Dict[str, tuple]:
        """``{table key: (network, variable count, target names)}``."""
        raise NotImplementedError

    def shape(self) -> Dict[str, float]:
        """Sizes of the inputs (``network.nodes``, ``engine.masked.rows``)."""
        return {}

    def worlds_per_op(self) -> int:
        """Worlds a bulk sweep evaluates per op (0: no bulk sweep)."""
        return 0

    def service_stats(self) -> Optional[dict]:
        """The service's counters, when the workload runs one."""
        return None

    def close(self) -> None:
        pass

    def mc_seed(self, index: int, salt: int = 0) -> int:
        return (self.seed * 1000003 + index * 7919 + salt) % (2**31 - 1)


# ----------------------------------------------------------------------
# cli-cold
# ----------------------------------------------------------------------

_HEADER = re.compile(
    r"^(?P<scheme>[\w-]+) \(ε=(?P<eps>[\d.e-]+)\): (?P<targets>\d+) targets "
    r"in (?P<seconds>[\d.]+)s \((?P<nodes>\d+) decision-tree nodes\)$"
)
_EXACT = re.compile(r"^  P\[(?P<name>.+)\] = (?P<p>[\d.]+)$")
_RANGE = re.compile(r"^  P\[(?P<name>.+)\] ∈ \[(?P<lo>[\d.]+), (?P<hi>[\d.]+)\]$")


def parse_cluster_stdout(text: str) -> Tuple[dict, Dict[str, Tuple[float, float]]]:
    """The header fields and per-target bounds ``repro cluster`` printed."""
    header: Optional[dict] = None
    bounds: Dict[str, Tuple[float, float]] = {}
    for line in text.splitlines():
        match = _HEADER.match(line)
        if match:
            header = {
                "scheme": match["scheme"],
                "epsilon": float(match["eps"]),
                "targets": int(match["targets"]),
                "seconds": float(match["seconds"]),
                "tree_nodes": int(match["nodes"]),
            }
            continue
        match = _EXACT.match(line)
        if match:
            bounds[match["name"]] = (float(match["p"]), float(match["p"]))
            continue
        match = _RANGE.match(line)
        if match:
            bounds[match["name"]] = (float(match["lo"]), float(match["hi"]))
    if header is None:
        raise ValueError(f"no result header in CLI output: {text[:200]!r}")
    if len(bounds) != header["targets"]:
        raise ValueError(
            f"CLI announced {header['targets']} targets, printed {len(bounds)}"
        )
    return header, bounds


class CliCold(Workload):
    name = "cli-cold"
    program_is_subprocess = True
    OBJECTS = 40
    # Four lineage groups in one mutex set of four: 4 variables and a
    # hybrid tree of 4 nodes on every seed.  (Group size 8 gives a set
    # of four beside a set of one, and trees of 7 to 10 nodes -- 9 % of
    # the op -- depending on the seed's marginals.)
    DATA = {"scheme": "mutex", "group_size": 10, "mutex_size": 4}
    SPEC = KMedoidsSpec(k=2, iterations=2)
    # `repro cluster` prints six decimals.
    PRINT_TOLERANCE = 1e-6

    def argv(self) -> List[str]:
        return [
            sys.executable, "-m", "repro", "cluster",
            "--objects", str(self.OBJECTS),
            "--scheme", self.DATA["scheme"],
            "--group-size", str(self.DATA["group_size"]),
            "--mutex-size", str(self.DATA["mutex_size"]),
            "--algorithm", "hybrid", "--epsilon", str(EPSILON),
            "--limit", str(2 * self.OBJECTS), "--seed", str(self.seed),
        ]

    def _record(self, stdout: str) -> Tuple[OpRecord, dict]:
        header, bounds = parse_cluster_stdout(stdout)
        record = OpRecord()
        record.claims.append(
            claim("kmedoids", "cli", bounds, epsilon=EPSILON,
                  tolerance=self.PRINT_TOLERANCE)
        )
        record.extra["reported_seconds"] = header["seconds"]
        return record, header

    def op(self, index: int) -> OpRecord:
        done = subprocess.run(
            self.argv(), capture_output=True, encoding="utf-8", check=True
        )
        record, header = self._record(done.stdout)
        # The CLI prints neither its evaluation count nor its kernel tier.
        record.tree_nodes = header["tree_nodes"]
        return record

    def staged_op(self, index: int, tracer: Tracer) -> OpRecord:
        """The CLI's pipeline replayed stage by stage in a fresh child
        (cold caches, as in the real process); see ``child.cli_replay``."""
        spawned = now()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "--mode",
             "cli-replay", "--spawned-at", repr(spawned), "--",
             *self.argv()[3:]],
            capture_output=True, encoding="utf-8", check=True,
        )
        exited = now()
        replay = json.loads(done.stdout.splitlines()[-1])
        for name, start, end in replay["spans"]:
            tracer.add(name, start, end)
        tracer.add("process.exit", replay["spans"][-1][2], exited)
        record, header = self._record(replay["stdout"])
        record.shannon(header["tree_nodes"], replay["evals"],
                       replay["kernel_tier"])
        record.extra.update(replay["shape"])
        return record

    def tables(self) -> Dict[str, tuple]:
        """The network the CLI builds for these arguments (``cli.py``)."""
        platform = ENFrame.from_sensor_data(
            self.OBJECTS, seed=self.seed, certain_fraction=0.0, **self.DATA
        ).kmedoids(self.SPEC)
        self.pools["cli"] = list(platform.dataset.pool.probabilities)
        return {
            "kmedoids": (
                platform.network,
                len(platform.dataset.pool),
                list(platform.target_names),
            )
        }


# ----------------------------------------------------------------------
# shannon-deep
# ----------------------------------------------------------------------


class ShannonDeep(Workload):
    name = "shannon-deep"
    OBJECTS = 10
    SPEC = KMedoidsSpec(k=2, iterations=2)
    SCHEMES = (("exact", 0.0), ("eager", EPSILON), ("hybrid", EPSILON))
    MCL_NODES = 12
    MCL_SPEC = MCLSpec(inflation=2, iterations=2)
    # The graph is fixed (its 4096-world truth table takes a minute and
    # is committed); the seed draws the node marginals.
    GRAPH_SEED = 7

    def setup_steps(self) -> Steps:
        return [
            ("data.sensor_dataset", self._dataset),
            ("mining.build_program", self._programs),
            ("network.build", self._networks),
            ("engine.ir.flatten", self._flatten),
            ("engine.masked.program", self._masked),
            ("engine.kernels.load", lambda: get_backend("auto")),
        ]

    def _dataset(self) -> None:
        # Conditional lineage: 2 * 5 - 1 = 9 variables.  The narrow band
        # keeps eager/hybrid tree sizes within ~2 % across seeds.
        self.dataset = sensor_dataset(
            self.OBJECTS, scheme="conditional", seed=self.seed, group_size=2,
            prob_low=0.64, prob_high=0.66,
        )
        n = self.MCL_NODES
        self.weights = stochastic_graph(n, random.Random(self.GRAPH_SEED))
        self.lineage = make_lineage(
            "independent", n, random.Random(self.seed), group_size=1
        )
        self.pools["kmedoids"] = list(self.dataset.pool.probabilities)
        self.pools["mcl"] = list(self.lineage.pool.probabilities)

    def _programs(self) -> None:
        self.program = build_kmedoids_program(self.dataset, self.SPEC)
        self.names = medoid_targets(
            self.program, self.SPEC.k, self.OBJECTS, self.SPEC.iterations - 1
        )
        n = self.MCL_NODES
        self.mcl_program = build_mcl_program(
            self.weights, self.lineage.events, self.MCL_SPEC
        )
        # Targets: which nodes node 0 attracts.
        self.mcl_names = attraction_targets(
            self.mcl_program, n, self.MCL_SPEC.iterations - 1,
            pairs=[(i, 0) for i in range(n)],
        )

    def _networks(self) -> None:
        self.network = build_network(self.program)
        self.mcl_network = build_network(self.mcl_program)
        self.platform = ENFrame.from_network(
            self.network, self.dataset.pool, targets=self.names
        )

    def _flatten(self) -> None:
        flatten(self.network)
        flatten(self.mcl_network)

    def _masked(self) -> None:
        self.rows = len(masked_program(self.network)) + len(
            masked_program(self.mcl_network)
        )

    def shape(self) -> Dict[str, float]:
        return {
            "network.nodes": len(self.network.nodes) + len(self.mcl_network.nodes),
            "engine.masked.rows": self.rows,
        }

    def _claims(self, results, mcl) -> OpRecord:
        record = OpRecord()
        for (_, epsilon), result in zip(self.SCHEMES, results):
            record.shannon_result(result)
            record.claims.append(
                claim("kmedoids", "kmedoids", result.bounds, epsilon=epsilon)
            )
        record.shannon_result(mcl)
        record.claims.append(claim("mcl", "mcl", mcl.bounds))
        return record

    def op(self, index: int) -> OpRecord:
        results = [
            self.platform.run(scheme=scheme, epsilon=epsilon).raw
            for scheme, epsilon in self.SCHEMES
        ]
        mcl = run_scheme(
            "exact", self.mcl_network, self.lineage.pool, targets=self.mcl_names
        )
        return self._claims(results, mcl)

    def staged_op(self, index: int, tracer: Tracer) -> OpRecord:
        results = []
        for scheme, epsilon in self.SCHEMES:
            with tracer.span("compile.shannon.kmedoids"):
                results.append(
                    run_scheme(scheme, self.network, self.dataset.pool,
                               targets=self.names, epsilon=epsilon)
                )
        with tracer.span("compile.shannon.mcl"):
            mcl = run_scheme("exact", self.mcl_network, self.lineage.pool,
                             targets=self.mcl_names)
        return self._claims(results, mcl)

    def probes(self) -> Dict[str, float]:
        return {
            "engine.masked.push_us": push_walk_us(
                self.network, len(self.dataset.pool), "python"
            ),
            "engine.kernels.push_us": push_walk_us(
                self.mcl_network, len(self.lineage.pool), "native"
            ),
        }

    def tables(self) -> Dict[str, tuple]:
        return {
            "kmedoids": (self.network, len(self.dataset.pool), self.names),
            "mcl": (self.mcl_network, len(self.lineage.pool), self.mcl_names),
        }


def push_walk_us(network, variables: int, kernel: str, rounds: int = 20) -> float:
    """Microseconds per push+pop pair: walk every variable, both values,
    on a fresh evaluator of the named tier (best of ``rounds`` walks)."""
    evaluator = make_evaluator(network, kernel=kernel)
    evaluator.push()
    best = float("inf")
    for _ in range(rounds):
        started = now()
        for variable in range(variables):
            for value in (True, False):
                evaluator.push(variable, value)
                evaluator.pop(variable)
        best = min(best, now() - started)
    evaluator.pop()
    return best / (2 * variables) * 1e6


# ----------------------------------------------------------------------
# bulk-worlds
# ----------------------------------------------------------------------


class BulkWorlds(Workload):
    name = "bulk-worlds"
    # Part 1: the paper's k-medoids source text over positive lineage.
    # The structure is fixed (8192-world truth table committed); the
    # seed draws the 13 marginals and the Monte Carlo seeds.
    FLAT_OBJECTS = 14
    FLAT_DATA = {"scheme": "positive", "variables": 13, "literals": 4}
    STRUCTURE_SEED = 11
    FLAT_SAMPLES = 20000
    # Part 2: the folded k-medoids builder over mutex lineage (6 variables).
    FOLDED_OBJECTS = 24
    FOLDED_SPEC = KMedoidsSpec(k=2, iterations=3)
    FOLDED_SAMPLES = 8000
    PARAMS = (2, 2)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        self.marginals = [
            rng.uniform(0.5, 0.8) for _ in range(self.FLAT_DATA["variables"])
        ]
        self.pools["flat"] = self.marginals
        self.source_targets = [
            ("Centre", (i, l))
            for i in range(self.PARAMS[0])
            for l in range(self.FLAT_OBJECTS)
        ]
        self.last: Dict[str, tuple] = {}

    def _flat_platform(self) -> ENFrame:
        platform = ENFrame.from_sensor_data(
            self.FLAT_OBJECTS, seed=self.STRUCTURE_SEED, **self.FLAT_DATA
        )
        for variable, probability in enumerate(self.marginals):
            platform.dataset.pool.set_probability(variable, probability)
        return platform

    def _claims(self, naive, carlo, folded_naive, folded_carlo) -> OpRecord:
        record = OpRecord()
        record.claims += [
            claim("flat", "flat", naive.bounds),
            claim("flat", "flat", carlo.bounds, samples=self.FLAT_SAMPLES),
            claim("folded", "folded", folded_naive.bounds),
            claim("folded", "folded", folded_carlo.bounds,
                  samples=self.FOLDED_SAMPLES),
        ]
        return record

    def op(self, index: int) -> OpRecord:
        flat = self._flat_platform()
        flat.user_program(
            KMEDOIDS_SOURCE, params=self.PARAMS,
            init_indices=range(self.PARAMS[0]), targets=self.source_targets,
        )
        naive = flat.run(scheme="naive").raw
        carlo = flat.run(
            scheme="montecarlo", samples=self.FLAT_SAMPLES,
            seed=self.mc_seed(index), confidence=MC_CONFIDENCE,
        ).raw
        folded = ENFrame.from_sensor_data(
            self.FOLDED_OBJECTS, scheme="mutex", seed=self.seed
        )
        folded.kmedoids(self.FOLDED_SPEC, folded=True)
        folded_naive = folded.run(scheme="naive").raw
        folded_carlo = folded.run(
            scheme="montecarlo", samples=self.FOLDED_SAMPLES,
            seed=self.mc_seed(index, 1), confidence=MC_CONFIDENCE,
        ).raw
        self._remember(
            (flat.network, len(flat.dataset.pool), list(flat.target_names)),
            (folded.network, len(folded.dataset.pool), list(folded.target_names)),
            folded.dataset.pool,
        )
        return self._claims(naive, carlo, folded_naive, folded_carlo)

    def _remember(self, flat: tuple, folded: tuple, folded_pool) -> None:
        self.pools["folded"] = list(folded_pool.probabilities)
        self.last = {"flat": flat, "folded": folded}

    def staged_op(self, index: int, tracer: Tracer) -> OpRecord:
        with tracer.span("data.sensor_dataset"):
            flat = self._flat_platform()
        with tracer.span("lang.translate"):
            externals = dataset_externals(
                flat.dataset, self.PARAMS, range(self.PARAMS[0])
            )
            program, translator = translate_source(KMEDOIDS_SOURCE, externals)
            names = [
                translator.target(variable, *indices)
                for variable, indices in self.source_targets
            ]
        with tracer.span("network.build"):
            network = build_network(program)
        with tracer.span("engine.ir.flatten"):
            flatten(network)
        with tracer.span("engine.kernels.load"):
            get_backend("auto")
        pool = self.flat_pool = flat.dataset.pool
        with tracer.span("engine.packed.naive"):
            naive = run_scheme("naive", network, pool, targets=names)
        with tracer.span("engine.packed.montecarlo"):
            carlo = run_scheme(
                "montecarlo", network, pool, targets=names,
                samples=self.FLAT_SAMPLES, seed=self.mc_seed(index),
                confidence=MC_CONFIDENCE,
            )
        with tracer.span("data.sensor_dataset"):
            dataset = sensor_dataset(
                self.FOLDED_OBJECTS, scheme="mutex", seed=self.seed
            )
        with tracer.span("mining.build_program"):
            folded_network = build_kmedoids_folded(dataset, self.FOLDED_SPEC)
            folded_names = list(folded_network.targets)
        with tracer.span("engine.ir.flatten_folded"):
            flatten_folded(folded_network)
        with tracer.span("engine.packed.folded"):
            folded_naive = run_scheme(
                "naive", folded_network, dataset.pool, targets=folded_names
            )
            folded_carlo = run_scheme(
                "montecarlo", folded_network, dataset.pool,
                targets=folded_names, samples=self.FOLDED_SAMPLES,
                seed=self.mc_seed(index, 1), confidence=MC_CONFIDENCE,
            )
        self._remember(
            (network, len(pool), names),
            (folded_network, len(dataset.pool), folded_names),
            dataset.pool,
        )
        record = self._claims(naive, carlo, folded_naive, folded_carlo)
        record.extra["network.nodes"] = len(network.nodes) + len(
            folded_network.nodes
        )
        return record

    def after_staged(self, index: int, record: OpRecord) -> None:
        """A second naive sweep over the op's flat network: its plan is
        cached now, so first minus second is what planning cost."""
        network, _, names = self.last["flat"]
        started = now()
        run_scheme("naive", network, self.flat_pool, targets=names)
        record.extra["naive_replanned_s"] = now() - started

    def worlds_per_op(self) -> int:
        return (
            2 ** self.FLAT_DATA["variables"] + self.FLAT_SAMPLES
            + 2 ** len(self.pools["folded"]) + self.FOLDED_SAMPLES
        )

    def tables(self) -> Dict[str, tuple]:
        return dict(self.last)


# ----------------------------------------------------------------------
# The 24-object mutex k-medoids network of serve-mix and whatif-walk
# ----------------------------------------------------------------------


class Clustered(Workload):
    """Set-up shared by the two workloads over one k-medoids network."""

    OBJECTS = 24
    SPEC = KMedoidsSpec(k=2, iterations=3)

    def _dataset(self) -> None:
        self.dataset = sensor_dataset(self.OBJECTS, scheme="mutex", seed=self.seed)
        self.pool = self.dataset.pool
        self.variables = len(self.pool)

    def _program(self) -> None:
        self.program = build_kmedoids_program(self.dataset, self.SPEC)
        self.names = medoid_targets(
            self.program, self.SPEC.k, self.OBJECTS, self.SPEC.iterations - 1
        )

    def _network(self) -> None:
        self.network = build_network(self.program)

    def build_steps(self) -> Steps:
        return [
            ("data.sensor_dataset", self._dataset),
            ("mining.build_program", self._program),
            ("network.build", self._network),
        ]

    def shape(self) -> Dict[str, float]:
        return {"network.nodes": len(self.network.nodes)}

    def tables(self) -> Dict[str, tuple]:
        return {"kmedoids": (self.network, self.variables, self.names)}


class ServeMix(Clustered):
    name = "serve-mix"
    HITS = 40
    FRESH_SHANNON = 3
    SUBSET = 24
    BULK_SAMPLES = 2000
    EVIDENCE_SIZE = 2

    def setup_steps(self) -> Steps:
        return self.build_steps() + [
            ("serve.documents", self._documents),
            ("serve.start", self._start),
            ("serve.put", self._register),
        ]

    def _documents(self) -> None:
        """The network and its sibling: one marginal differs, so a PUT
        of the other one is an edit that drops the old hash's artifacts."""
        document = {
            "network": network_to_dict(self.network),
            "pool": pool_to_dict(self.pool),
        }
        sibling = copy.deepcopy(document)
        marginals = sibling["pool"]["probabilities"]
        marginals[0] = round(0.9 * marginals[0], 6)
        self.documents = (document, sibling)
        self.pools["net0"] = list(document["pool"]["probabilities"])
        self.pools["net1"] = list(marginals)
        self.current = 0
        self.direct = None

    def _start(self) -> None:
        self.server = ServerThread()
        self.client = ServeClient(port=self.server.port)

    def _register(self) -> None:
        self.client.put_network_document("net", self.documents[0])
        self.client.query("net", scheme="exact")

    def close(self) -> None:
        self.server.stop()

    def service_stats(self) -> dict:
        return self.client.stats()

    def _fresh(self, index: int) -> dict:
        """The identities of this op's never-seen-before requests."""
        rng = random.Random(self.seed * 1000003 + index)
        return {
            "subsets": [
                sorted(rng.sample(self.names, self.SUBSET))
                for _ in range(self.FRESH_SHANNON)
            ],
            "bulk_seed": self.mc_seed(index),
            "evidence": [
                [variable, rng.random() < 0.5]
                for variable in sorted(
                    rng.sample(range(self.variables), self.EVIDENCE_SIZE)
                )
            ],
        }

    def op(self, index: int) -> OpRecord:
        return self._burst(index, None)

    def staged_op(self, index: int, tracer: Tracer) -> OpRecord:
        return self._burst(index, tracer)

    def _burst(self, index: int, tracer: Optional[Tracer]) -> OpRecord:
        """The fixed burst.  The staged form is the same client calls,
        each inside a span: the layers behind a call are the server's
        threads and are not visible from this one."""
        client = self.client
        fresh = self._fresh(index)
        record = OpRecord()
        pool = f"net{self.current}"
        waits: List[float] = []

        def call(span: str, expect_hit: bool, function, *args, **kwargs) -> dict:
            if tracer is None:
                response = function(*args, **kwargs)
            else:
                with tracer.span(span):
                    response = function(*args, **kwargs)
            extra = response.get("extra")
            if extra is not None:
                if (extra["cache"] == "hit") != expect_hit:
                    raise AssertionError(
                        f"{span}: cache state {extra['cache']!r}, "
                        f"expected a {'hit' if expect_hit else 'miss'}"
                    )
                waits.append(extra["queue_wait_seconds"])
                # Shannon passes report the tier they ran on; bulk passes
                # put their sample count in tree_nodes and are skipped.
                if not expect_hit and "kernel_tier" in extra:
                    record.shannon(response["tree_nodes"], response["evals"],
                                   extra["kernel_tier"])
            return response

        hot = None
        for _ in range(self.HITS):
            response = call("serve.hit", True, client.query, "net", scheme="exact")
            if hot is None:
                hot = response["bounds"]
            elif response["bounds"] != hot:
                raise AssertionError("two hits of one query disagree")
        record.claims.append(claim("kmedoids", pool, hot))
        for subset in fresh["subsets"]:
            response = call(
                "serve.miss_shannon", False, client.query, "net",
                scheme="hybrid", epsilon=EPSILON, targets=subset,
            )
            record.claims.append(
                claim("kmedoids", pool, response["bounds"], epsilon=EPSILON)
            )
        response = call(
            "serve.miss_bulk", False, client.query, "net", scheme="montecarlo",
            samples=self.BULK_SAMPLES, seed=fresh["bulk_seed"],
            confidence=MC_CONFIDENCE,
        )
        record.claims.append(
            claim("kmedoids", pool, response["bounds"], samples=self.BULK_SAMPLES)
        )
        response = call(
            "serve.condition", False, client.condition, "net",
            evidence=fresh["evidence"],
        )
        record.claims.append(
            claim("kmedoids", pool, response["bounds"], evidence=fresh["evidence"])
        )
        self.current = 1 - self.current
        pool = f"net{self.current}"
        call("serve.put", False, client.put_network_document, "net",
             self.documents[self.current])
        response = call("serve.rewarm", False, client.query, "net", scheme="exact")
        record.claims.append(claim("kmedoids", pool, response["bounds"]))
        record.extra["queue_wait_s"] = sum(waits) / len(waits)
        return record

    def after_staged(self, index: int, record: OpRecord) -> None:
        """Direct ``run_scheme`` calls of the op's fresh Shannon queries:
        what a miss costs without the service."""
        subsets = self._fresh(index)["subsets"]
        if self.direct is None:
            # What the server materialises from the document, with the
            # per-network caches it would have warm by now.
            document = self.documents[0]
            self.direct = (network_from_dict(document["network"]),
                           pool_from_dict(document["pool"]))
            masked_program(self.direct[0])
        network, pool = self.direct
        started = now()
        nodes = sum(
            run_scheme("hybrid", network, pool, targets=subset,
                       epsilon=EPSILON).tree_nodes
            for subset in subsets
        )
        record.extra["direct_miss_s"] = (now() - started) / len(subsets)
        record.extra["direct_miss_nodes"] = nodes / len(subsets)


class WhatIfWalk(Clustered):
    name = "whatif-walk"

    def setup_steps(self) -> Steps:
        return self.build_steps() + [
            ("engine.ir.flatten", lambda: flatten(self.network)),
            ("engine.masked.program", self._masked),
            ("engine.kernels.load", lambda: get_backend("auto")),
            ("session.open", self._open),
        ]

    def _masked(self) -> None:
        self.rows = len(masked_program(self.network))

    def shape(self) -> Dict[str, float]:
        return {"network.nodes": len(self.network.nodes),
                "engine.masked.rows": self.rows}

    def _open(self) -> None:
        self.session = WhatIfSession(self.network, self.pool, targets=self.names)
        self.session.query()
        # set_probability toggles variable 0 between two seed-drawn
        # values, so the marginals a claim was made under are one of two.
        rng = random.Random(self.seed)
        base = list(self.pool.probabilities)
        self.toggle = (rng.uniform(0.5, 0.65), rng.uniform(0.65, 0.8))
        self.pools["base"] = base
        for key, value in zip(("low", "high"), self.toggle):
            self.pools[key] = [value] + base[1:]
        self.state = "base"

    def op(self, index: int) -> OpRecord:
        return self._walk(index, None)

    def staged_op(self, index: int, tracer: Tracer) -> OpRecord:
        return self._walk(index, tracer)

    def _walk(self, index: int, tracer: Optional[Tracer]) -> OpRecord:
        session = self.session
        record = OpRecord()
        recomputed = 0

        def call(span: str, function, *args):
            if tracer is None:
                return function(*args)
            with tracer.span(span):
                return function(*args)

        def query(evidence) -> None:
            nonlocal recomputed
            result = call("session.requery", session.query)
            recomputed += session.recomputed
            record.shannon_result(result)
            record.claims.append(
                claim("kmedoids", self.state, result.bounds, evidence=evidence)
            )

        for variable in range(self.variables):
            call("session.assert", session.assert_evidence, variable, True)
            query([[variable, True]])
            call("session.retract", session.retract, variable)
            query([])
        self.state = "high" if index % 2 else "low"
        call("session.set_probability", session.set_probability, 0,
             self.toggle[index % 2])
        query([])
        edits = 2 * self.variables + 1
        record.extra["recomputed_per_edit"] = recomputed / edits
        return record


WORKLOADS = {
    cls.name: cls
    for cls in (CliCold, ShannonDeep, BulkWorlds, ServeMix, WhatIfWalk)
}


