"""kernel-tier hygiene: compiled-tier access lives in engine/kernels.py.

The kernel tier ladder (ctypes-loaded native C, python) is
deliberately confined to :mod:`repro.engine.kernels`: that module owns
backend construction, per-process self-validation against the Python
oracle, fallback on failure, and the ``BACKEND_ERRORS`` diagnostics.
(:mod:`repro.engine.cgen`, which writes the native tier's C from the
kernel source, is plain text-in, text-out and imports neither.)  A
``ctypes`` import anywhere else — or a jit compiler such as ``numba``,
a tier that was measured by nobody and deleted — creates a second
compiled path that skips all of it: no validation sweep, no recorded
rejection reason, no tier reporting in ``result.extra``.

Everything under ``src/repro/`` except ``engine/kernels.py`` is in
scope; benchmarks and tests may import what they measure.

The scalar oracles the kernels are checked against (``compile/partial.py``
and ``events/values.py``) must also round a distance as the kernels do:
left to right (``events.values.lane_sum``).  ``np.sum`` and ``np.dot``
reduce pairwise, so a ``.sum(...)`` or ``.dot(...)`` call there is a
finding too.
"""

from __future__ import annotations

import ast
from typing import List, Tuple

from ._source import ROOT, violations

RULE = "kernel-hygiene"
HINT = (
    "use repro.engine.kernels (get_backend/make_masked_evaluator) "
    "instead of importing numba/ctypes directly — backends there are "
    "self-validated against the Python oracle before first use; in "
    "the scalar oracles reduce with repro.events.values.lane_sum"
)

KERNEL_MODULE = "src/repro/engine/kernels.py"
BANNED_ROOTS = ("numba", "ctypes")
ORACLE_MODULES = ("src/repro/compile/partial.py", "src/repro/events/values.py")
BANNED_REDUCTIONS = ("sum", "dot")


def findings(relpath: str, tree: ast.Module) -> List[Tuple[int, str]]:
    if not relpath.startswith("src/repro/") or relpath == KERNEL_MODULE:
        return []
    found: List[Tuple[int, str]] = []
    oracle = relpath in ORACLE_MODULES
    for node in ast.walk(tree):
        if (
            oracle
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in BANNED_REDUCTIONS
        ):
            found.append(
                (
                    node.lineno,
                    f"pairwise reduction .{node.func.attr}() in a scalar "
                    "oracle rounds differently from the kernels' "
                    "left-to-right sum",
                )
            )
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if name.split(".")[0] in BANNED_ROOTS:
                found.append(
                    (
                        node.lineno,
                        f"compiled-tier import {name.split('.')[0]!r} "
                        "outside engine/kernels.py bypasses the "
                        "validated backend ladder",
                    )
                )
    return found


def test_repository_is_clean():
    found = violations(RULE, findings)
    assert not found, "\n".join(found) + f"\n    hint: {HINT}"


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------


def lines(relpath, text):
    return [line for line, _ in findings(relpath, ast.parse(text))]


def test_bad_numba_import():
    assert lines("src/repro/compile/fastpath.py", "import numba\n")


def test_bad_ctypes_from_import():
    bad = "from ctypes import CDLL\n"
    assert lines("src/repro/engine/bulk.py", bad)


def test_bad_injected_module():
    # A jit import in a new engine module: a second compiled path.
    bad = '"""A new engine module."""\n\nimport numba\n'
    assert lines("src/repro/engine/_injected_violation.py", bad) == [3]


def test_kernels_module_exempt():
    assert not lines("src/repro/engine/kernels.py", "import ctypes\n")


def test_the_emitter_is_in_scope_and_clean():
    # engine/cgen.py writes the native tier's C but is text-in,
    # text-out: in scope for the rule, and passing it.
    relpath = "src/repro/engine/cgen.py"
    text = (ROOT / relpath).read_text(encoding="utf-8")
    assert lines(relpath, "import ctypes\n")
    assert not lines(relpath, text)


def test_tests_and_benchmarks_exempt():
    assert not lines("benchmarks/bench_kernels.py", "import ctypes\n")


def test_good_backend_ladder_import():
    good = "from repro.engine.kernels import get_backend\n"
    assert not lines("src/repro/compile/fastpath.py", good)


def test_pairwise_reductions_banned_in_the_scalar_oracles():
    bad = (
        "import numpy as np\n"
        "def width(a, b):\n"
        "    return float(np.sum(a)) + a.dot(b)\n"
    )
    for relpath in ("src/repro/compile/partial.py", "src/repro/events/values.py"):
        assert lines(relpath, bad) == [3, 3], relpath
    # Elsewhere (the bulk rung, mining) a NumPy sum is not a finding.
    assert not lines("src/repro/mining/distance.py", bad)


def test_left_to_right_sum_is_clean_in_the_scalar_oracles():
    good = "def width(terms):\n    return lane_sum(terms) + sum(terms)\n"
    assert not lines("src/repro/events/values.py", good)
