"""barrier-determinism: the distributed compiler stays order-stable.

The PR 5 design: every distributed job is a pure function of its
creation message, and all scheduling decisions happen at generation
barriers in creation order, so ``simulate`` and ``process`` execution
produce identical trees and bounds.  The worker pool adds
in-generation work stealing: steal decisions (victim
selection, queue ordering) and the framed wire protocol live in
``compile/transport.py`` and must obey the same discipline — a steal
policy that consults wall clocks or set order would assign jobs
nondeterministically, and although merges stay creation-ordered, the
property tests could no longer pin down *which* worker computed what.
That guarantee dies the moment job creation, stealing, or result
merging consults a nondeterministic source.  This rule scans
``compile/distributed.py`` and ``compile/transport.py`` for the
syntactic forms that smuggle nondeterminism in:

* unseeded randomness: ``import random``, ``uuid`` imports,
  ``os.urandom(...)``;
* wall-clock ordering: ``time.time()`` / ``time.time_ns()``
  (``perf_counter``/``monotonic`` stay legal — they feed *reported*
  costs and deadlines, never tree shape);
* set-order iteration: ``for x in {...}`` / ``set(...)`` /
  ``frozenset(...)`` / set comprehensions (iterate ``sorted(...)``
  instead), and ``.pop()`` on a set literal (an arbitrary element).

Known blind spot: iterating a *variable* bound to a set is not tracked
(no dataflow); ``tests/property/test_process_mode.py`` catches the
resulting divergence at runtime.
"""

from __future__ import annotations

import ast
from typing import List, Tuple

from ._source import violations

RULE = "barrier-determinism"
HINT = (
    "job creation, steal decisions, and result merges must be pure "
    "functions of the creation messages: sort before iterating, use "
    "perf_counter/monotonic for costs and deadlines, never "
    "wall-clock or random sources; see docs/ARCHITECTURE.md, "
    "'Enforced invariants'"
)

TARGET_FILES = frozenset(
    {
        "src/repro/compile/distributed.py",
        "src/repro/compile/transport.py",
    }
)

BANNED_IMPORTS = ("random", "uuid")
BANNED_CALLS = {
    ("time", "time"): "wall-clock time.time() can reorder jobs",
    ("time", "time_ns"): "wall-clock time.time_ns() can reorder jobs",
    ("os", "urandom"): "os.urandom() is nondeterministic",
    ("uuid", "uuid4"): "uuid.uuid4() is nondeterministic",
}


def _set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def findings(relpath: str, tree: ast.Module) -> List[Tuple[int, str]]:
    if relpath not in TARGET_FILES:
        return []
    found: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in BANNED_IMPORTS:
                    found.append(
                        (
                            node.lineno,
                            "import of nondeterministic module "
                            f"{alias.name!r}",
                        )
                    )
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root in BANNED_IMPORTS:
                found.append(
                    (node.lineno, f"import from nondeterministic module {root!r}")
                )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and (func.value.id, func.attr) in BANNED_CALLS
            ):
                found.append(
                    (node.lineno, BANNED_CALLS[(func.value.id, func.attr)])
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "pop"
                and _set_expression(func.value)
            ):
                found.append(
                    (node.lineno, "pop() from a set removes an arbitrary element")
                )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if _set_expression(node.iter):
                found.append(
                    (
                        node.lineno,
                        "iteration over a set is order-unstable; "
                        "iterate sorted(...) instead",
                    )
                )
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            for comp in node.generators:
                if _set_expression(comp.iter):
                    found.append(
                        (
                            node.lineno,
                            "comprehension over a set is order-unstable; "
                            "iterate sorted(...) instead",
                        )
                    )
    return found


def test_repository_is_clean():
    found = violations(RULE, findings)
    assert not found, "\n".join(found) + f"\n    hint: {HINT}"


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------

PATH = "src/repro/compile/distributed.py"


def lines(relpath, text):
    return [line for line, _ in findings(relpath, ast.parse(text))]


def test_bad_import_random():
    assert lines(PATH, "import random\n")


def test_bad_wall_clock():
    bad = "import time\n\ndef stamp(job):\n    job.t = time.time()\n"
    assert lines(PATH, bad) == [4]


def test_bad_set_iteration():
    bad = "def merge(jobs):\n    for j in set(jobs):\n        j.run()\n"
    assert lines(PATH, bad)


def test_bad_set_comprehension_source():
    bad = "def ids(jobs):\n    return [j.id for j in {j for j in jobs}]\n"
    assert lines(PATH, bad)


def test_good_perf_counter_and_sorted():
    good = (
        "import time\n"
        "def run(jobs):\n"
        "    t0 = time.perf_counter()\n"
        "    for j in sorted(jobs):\n"
        "        j.run()\n"
        "    return time.perf_counter() - t0\n"
    )
    assert not lines(PATH, good)


def test_out_of_scope_file_ignored():
    assert not lines("src/repro/compile/compiler.py", "import random\n")


def test_transport_module_in_scope():
    # PR 8: steal decisions and the framed protocol live in the
    # transport module and obey the same determinism discipline.
    bad = (
        "import time\n"
        "def pick_victim(workers):\n"
        "    return min(workers, key=lambda w: time.time())\n"
    )
    assert lines("src/repro/compile/transport.py", bad) == [3]
