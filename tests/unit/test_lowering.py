"""Lowering a network into its masked program: the folded unroll, pinned
column digests, and the per-variable parent counts of the static order.

The folded unroll is built with whole-array operations; these tests hold
it to the vertex formula it documents, spelled out here one vertex at a
time, and pin the columns of three networks shaped like the end-to-end
workloads so that any change to row numbering has to say so.
"""

import hashlib
import random
from typing import Dict, List

import numpy as np

from repro import KMedoidsSpec, MCLSpec
from repro.correlations.schemes import make_lineage
from repro.data.datasets import sensor_dataset
from repro.engine.ir import flatten
from repro.engine.masked import _lower_lanes, masked_program
from repro.events.expressions import (
    atom,
    cdist,
    conj,
    csum,
    disj,
    guard,
    literal,
    var,
)
from repro.mining.kmedoids import build_kmedoids_folded, build_kmedoids_program
from repro.mining.markov import build_mcl_program, stochastic_graph
from repro.network.build import NetworkBuilder, build_network, build_targets
from repro.network.folded import FoldedBuilder, LoopCVal, LoopEvent
from repro.network.nodes import EventNetwork, Kind, Node

COLUMNS = (
    "kinds",
    "child_offsets",
    "child_indices",
    "var_index",
    "atom_op",
    "pow_exponent",
    "dist_metric",
    "guard_value",
    "is_bool",
    "final_vertex",
    "node_width",
)
LANEWISE = {Kind.SUM, Kind.PROD, Kind.COND, Kind.POW, Kind.LOOP_IN}


def _chain_network(iterations: int = 3):
    """Three slots over 2-lane vectors, with a cross-slot init chain.

    ``A``'s init reads ``B``'s loop input and is built after ``A``'s loop
    input, so it is loop-dependent with a larger id: the iteration-0 row
    cannot follow id order.  ``E`` is a Boolean slot.
    """
    builder = FoldedBuilder(iterations)
    a, b, e = LoopCVal("A"), LoopCVal("B"), LoopEvent("E")
    centre = guard(var(1), np.array([0.5, -1.0]))
    builder.add_target("near", atom("<=", cdist(a, centre), b))
    builder.add_target("flag", conj([e, var(0)]))
    builder.define_slot(
        "A",
        init=csum([guard(var(2), np.array([1.0, 2.0])), b]),
        next_value=csum([a, guard(var(3), np.array([0.25, 0.75]))]),
    )
    builder.define_slot(
        "B", init=guard(var(3), 0.5), next_value=csum([b, guard(var(0), 1.0)])
    )
    builder.define_slot(
        "E", init=var(4), next_value=disj([e, atom(">=", b, literal(2.0))])
    )
    return builder.folded


def _no_loop_network():
    builder = FoldedBuilder(3)
    builder.add_target(
        "t",
        atom(
            "<=",
            cdist(
                guard(var(0), np.array([1.0, 2.0])),
                guard(var(1), np.array([0.0, 1.0])),
            ),
            literal(1.5),
        ),
    )
    return builder.folded


def _reference_layer_order(ir) -> List[int]:
    """Depth-first post-order of the loop layer's iteration-0 row."""
    dependent = ir.loop_dependent.tolist()
    order: List[int] = []
    done = set()

    def deps(node_id: int) -> List[int]:
        slot = int(ir.loop_slot[node_id])
        if slot >= 0:
            init_node = int(ir.init_ids[slot])
            return [init_node] if dependent[init_node] else []
        return [c for c in ir.children(node_id).tolist() if dependent[c]]

    def visit(node_id: int) -> None:
        done.add(node_id)
        for dep in reversed(deps(node_id)):
            if dep not in done:
                visit(dep)
        order.append(node_id)

    for node_id in range(len(dependent)):
        if dependent[node_id] and node_id not in done:
            visit(node_id)
    return order


def _reference_widths(ir) -> np.ndarray:
    """Vector widths by fixpoint: lane-wise kinds and loop inputs take the
    widest operand; vector guards their constant's size."""
    flat = ir
    width = [0] * len(flat)
    for node_id, value in flat.guard_values.items():
        if isinstance(value, np.ndarray):
            width[node_id] = value.size
    feeds: Dict[int, List[int]] = {}
    for slot, loop_in in enumerate(ir.loop_in_ids.tolist()):
        feeds.setdefault(loop_in, []).extend(
            [int(ir.init_ids[slot]), int(ir.next_ids[slot])]
        )
    changed = True
    while changed:
        changed = False
        for node_id in range(len(flat)):
            kind = Kind(int(flat.kinds[node_id]))
            if kind not in LANEWISE:
                continue
            sources = feeds.get(node_id, flat.children(node_id).tolist())
            widest = max([width[s] for s in sources], default=0)
            if widest > width[node_id]:
                width[node_id] = widest
                changed = True
    return np.asarray(width, dtype=np.int64)


def _reference_program(network) -> Dict[str, np.ndarray]:
    """The unrolled program built one vertex at a time.

    Node ``n`` at iteration ``t`` is vertex ``indep_pos[n]`` when
    loop-independent, else ``indep_count + t * layer_size + dep_pos[n]``.
    A loop input reads its slot's init at ``t = 0`` and the previous
    iteration's next after that; every other vertex reads its node's
    children at its own iteration.
    """
    ir = flatten(network)
    flat = ir
    dependent = ir.loop_dependent.tolist()
    indep = [n for n in range(len(flat)) if not dependent[n]]
    layer = _reference_layer_order(ir)
    indep_pos = {n: i for i, n in enumerate(indep)}
    dep_pos = {n: i for i, n in enumerate(layer)}

    def vertex(t: int, n: int) -> int:
        if dependent[n]:
            return len(indep) + t * len(layer) + dep_pos[n]
        return indep_pos[n]

    node_of: List[int] = []
    operands: List[List[int]] = []
    for n in indep:
        node_of.append(n)
        operands.append([vertex(0, c) for c in flat.children(n).tolist()])
    for t in range(ir.iterations):
        for n in layer:
            node_of.append(n)
            slot = int(ir.loop_slot[n])
            if slot < 0:
                operands.append([vertex(t, c) for c in flat.children(n).tolist()])
            elif t == 0:
                operands.append([vertex(0, int(ir.init_ids[slot]))])
            else:
                operands.append([vertex(t - 1, int(ir.next_ids[slot]))])

    rows = np.asarray(node_of, dtype=np.int64)
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(o) for o in operands], out=offsets[1:])
    is_bool = np.asarray([network.nodes[n].is_boolean for n in node_of])
    width = _reference_widths(ir)
    columns, lane_offsets, head = _lower_lanes(
        kinds=flat.kinds[rows],
        child_offsets=offsets,
        child_indices=np.asarray(
            [c for o in operands for c in o], dtype=np.int64
        ),
        var_index=flat.var_index[rows],
        atom_op=flat.atom_op[rows],
        pow_exponent=flat.pow_exponent[rows],
        dist_metric=flat.dist_metric[rows],
        guard_values={
            v: flat.guard_values[n]
            for v, n in enumerate(node_of)
            if n in flat.guard_values
        },
        is_bool=is_bool,
        width=width[rows],
    )
    last = ir.iterations - 1
    columns["final_vertex"] = head[
        [vertex(last, n) for n in range(len(flat))]
    ]
    columns["node_width"] = width
    cones = {}
    for index in sorted(set(flat.var_index[flat.var_index >= 0].tolist())):
        cone = sorted(
            vertex(t, n)
            for n in ir.var_cone(index).tolist()
            for t in (range(ir.iterations) if dependent[n] else (0,))
        )
        if lane_offsets is not None:
            cone = [
                lane
                for v in cone
                for lane in range(lane_offsets[v], lane_offsets[v + 1])
            ]
        cones[index] = np.asarray(cone, dtype=np.int64)
    columns["cones"] = cones
    columns["layer"] = layer
    return columns


def _assert_matches_reference(network):
    expected = _reference_program(network)
    program = masked_program(network)
    for column in COLUMNS:
        actual = getattr(program, column)
        assert actual.dtype == expected[column].dtype, column
        np.testing.assert_array_equal(actual, expected[column], err_msg=column)
    for index, cone in expected["cones"].items():
        np.testing.assert_array_equal(program.var_cone(index), cone)
    return expected


class TestFoldedUnroll:
    def test_chain_network_takes_the_reordering_branch(self):
        ir = flatten(_chain_network())
        chained = ir.loop_dependent[ir.init_ids] & (ir.init_ids > ir.loop_in_ids)
        assert chained.any()
        layer = _reference_layer_order(ir)
        assert layer != sorted(layer)

    def test_columns_match_the_vertex_formula(self):
        network = _chain_network()
        expected = _assert_matches_reference(network)
        assert int(masked_program(network).node_width.max()) == 2
        assert len(masked_program(network)) > len(network.nodes)
        assert expected["layer"]

    def test_single_iteration(self):
        _assert_matches_reference(_chain_network(iterations=1))

    def test_no_loop_dependent_nodes(self):
        network = _no_loop_network()
        ir = flatten(network)
        assert not ir.loop_dependent.any()
        _assert_matches_reference(network)

    def test_kmedoids_template(self):
        dataset = sensor_dataset(6, scheme="mutex", seed=4, group_size=2)
        _assert_matches_reference(
            build_kmedoids_folded(dataset, KMedoidsSpec(k=2, iterations=3))
        )


def _flat_kmedoids_network():
    dataset = sensor_dataset(10, scheme="conditional", seed=1, group_size=2)
    return build_network(
        build_kmedoids_program(dataset, KMedoidsSpec(k=2, iterations=2))
    )


def _mcl_network():
    lineage = make_lineage("independent", 8, random.Random(1), group_size=1)
    return build_network(
        build_mcl_program(
            stochastic_graph(8, random.Random(7)),
            lineage.events,
            MCLSpec(inflation=2, iterations=2),
        )
    )


def _folded_mutex_kmedoids_network():
    dataset = sensor_dataset(12, scheme="mutex", seed=1)
    return build_kmedoids_folded(dataset, KMedoidsSpec(k=2, iterations=3))


def _digest(*arrays) -> str:
    hasher = hashlib.sha256()
    for array in arrays:
        if array is None:
            hasher.update(b"none")
        else:
            hasher.update(array.dtype.str.encode() + array.tobytes())
    return hasher.hexdigest()[:16]


def _digests(network) -> Dict[str, str]:
    program = masked_program(network)
    return {column: _digest(getattr(program, column)) for column in COLUMNS}


def _cone_digests(network) -> Dict[str, str]:
    """One digest over every variable's ``var_cone``, one over every
    variable's ``final_cone`` (vertices and lane starts), in index order."""
    program = masked_program(network)
    indices = sorted(set(program.var_index[program.var_index >= 0].tolist()))
    cones, finals = [], []
    for index in indices:
        tag = np.asarray([index], dtype=np.int64)
        cones += [tag, program.var_cone(index)]
        finals += [tag, *program.final_cone(index)]
    return {"var_cone": _digest(*cones), "final_cone": _digest(*finals)}


class TestProgramDigests:
    """SHA-256 prefixes of every ``MaskedProgram`` column, taken before
    the unroll and flattening were vectorised, and of every variable's
    cones, taken before flat and folded networks shared one lowering.
    A change that renumbers rows, reorders operands, moves a payload or
    widens a cone changes a digest here, and has to say why."""

    def test_flat_kmedoids(self):
        assert _digests(_flat_kmedoids_network()) == {
            "kinds": "4107324ac408701c",
            "child_offsets": "05d4ba72af61286d",
            "child_indices": "4c91e2028b889451",
            "var_index": "efd6f04c5b8654af",
            "atom_op": "f10656a5cb994658",
            "pow_exponent": "c6b80b7a0b6234b8",
            "dist_metric": "708b927ecd8c480b",
            "guard_value": "6133710f4f69b9df",
            "is_bool": "6367c1001d73d4a1",
            "final_vertex": "a08e2d4a935f2bc8",
            "node_width": "a07eae86f2da3500",
        }

    def test_mcl(self):
        assert _digests(_mcl_network()) == {
            "kinds": "080830aad7069df2",
            "child_offsets": "4c63536980ace487",
            "child_indices": "1baae179ac88b179",
            "var_index": "77bba3a5d88b8505",
            "atom_op": "e99da07f796459a0",
            "pow_exponent": "93bbe72e1e984cfa",
            "dist_metric": "e99da07f796459a0",
            "guard_value": "6a878ebaff9587f5",
            "is_bool": "1a392c3bb96e1fbd",
            "final_vertex": "3ad65c61c5931453",
            "node_width": "d87a4ba87382cbf3",
        }

    def test_folded_mutex_kmedoids(self):
        assert _digests(_folded_mutex_kmedoids_network()) == {
            "kinds": "e086758dfdd999f5",
            "child_offsets": "d7ff7efff6a48537",
            "child_indices": "9bb723cff7000674",
            "var_index": "e2563f8315aab14b",
            "atom_op": "96455e975f6137b2",
            "pow_exponent": "3d9543ebd22b409b",
            "dist_metric": "7234adb4cd527f05",
            "guard_value": "19487c423c2d89f6",
            "is_bool": "9a06d4ffa97fe80f",
            "final_vertex": "ffee24cea289b745",
            "node_width": "2d68ce54c685e0e4",
        }

    def test_flat_kmedoids_cones(self):
        assert _cone_digests(_flat_kmedoids_network()) == {
            "var_cone": "bb3d9d09a5d8d792",
            "final_cone": "03df2a7943962968",
        }

    def test_mcl_cones(self):
        assert _cone_digests(_mcl_network()) == {
            "var_cone": "0d60aefc42a0579a",
            "final_cone": "be19207054564044",
        }

    def test_folded_mutex_kmedoids_cones(self):
        assert _cone_digests(_folded_mutex_kmedoids_network()) == {
            "var_cone": "ad1013fcec02e54a",
            "final_cone": "0e3ba59fec22d480",
        }


def _frequencies_from_parents(network: EventNetwork) -> Dict[int, int]:
    parents: Dict[int, int] = {}
    for node in network.nodes:
        for child in node.children:
            parents[child] = parents.get(child, 0) + 1
    return {
        node.payload: parents.get(node.id, 0)
        for node in network.nodes
        if node.kind is Kind.VAR
    }


class TestVariableFrequencies:
    def test_flat(self):
        network = build_targets(
            {
                "a": conj([var(0), disj([var(1), var(2)])]),
                "b": atom("<=", csum([guard(var(0), 1.0), guard(var(1), 2.0)]),
                          literal(2.5)),
            }
        )
        assert network.variable_frequencies() == _frequencies_from_parents(network)
        assert network.variable_frequencies()[0] == 2

    def test_folded(self):
        network = _chain_network()
        assert network.variable_frequencies() == _frequencies_from_parents(network)

    def test_non_topological(self):
        network = EventNetwork()
        network.nodes.append(Node(0, Kind.AND, (1, 2), None))
        network.nodes.append(Node(1, Kind.VAR, (), 0))
        network.nodes.append(Node(2, Kind.OR, (1, 3), None))
        network.nodes.append(Node(3, Kind.VAR, (), 1))
        assert network.variable_frequencies() == {0: 2, 1: 1}

    def test_cached_until_the_network_grows(self):
        network = build_targets({"t": conj([var(0), var(1)])})
        first = network.variable_frequencies()
        first[0] = 99  # callers get a copy
        assert network.variable_frequencies() == {0: 1, 1: 1}
        network.add_target("u", NetworkBuilder(network).build(disj([var(0), var(2)])))
        assert network.variable_frequencies() == {0: 2, 1: 1, 2: 1}
