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
from typing import Iterable, List

from .core import Finding, Rule, SourceFile, register_rule

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


class BarrierDeterminismRule(Rule):
    name = "barrier-determinism"
    description = (
        "no unseeded randomness, wall-clock ordering, or set-order "
        "iteration in the distributed job-creation/steal/merge paths"
    )
    hint = (
        "job creation, steal decisions, and result merges must be pure "
        "functions of the creation messages: sort before iterating, use "
        "perf_counter/monotonic for costs and deadlines, never "
        "wall-clock or random sources; see docs/ARCHITECTURE.md, "
        "'Enforced invariants'"
    )

    def applies(self, relpath: str) -> bool:
        return relpath in TARGET_FILES

    def check(self, source: SourceFile) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in BANNED_IMPORTS:
                        findings.append(
                            self.finding(
                                source,
                                node.lineno,
                                "import of nondeterministic module "
                                f"{alias.name!r}",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in BANNED_IMPORTS:
                    findings.append(
                        self.finding(
                            source,
                            node.lineno,
                            f"import from nondeterministic module {root!r}",
                        )
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and (func.value.id, func.attr) in BANNED_CALLS
                ):
                    findings.append(
                        self.finding(
                            source,
                            node.lineno,
                            BANNED_CALLS[(func.value.id, func.attr)],
                        )
                    )
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr == "pop"
                    and _set_expression(func.value)
                ):
                    findings.append(
                        self.finding(
                            source,
                            node.lineno,
                            "pop() from a set removes an arbitrary element",
                        )
                    )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if _set_expression(node.iter):
                    findings.append(
                        self.finding(
                            source,
                            node.lineno,
                            "iteration over a set is order-unstable; "
                            "iterate sorted(...) instead",
                        )
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                for comp in node.generators:
                    if _set_expression(comp.iter):
                        findings.append(
                            self.finding(
                                source,
                                node.lineno,
                                "comprehension over a set is order-unstable; "
                                "iterate sorted(...) instead",
                            )
                        )
        return findings


RULE = register_rule(BarrierDeterminismRule())
