"""trail-discipline: masked-evaluator state columns go through the trail.

The PR 3 bug class: distributed job replay wrote masked-evaluator
columns directly (``evaluator._b[vid] = ...``), skipping the trail, so
``pop`` could not restore the state and workers silently diverged.  The
fix routed every prefix replay through ``push(variable, value)``; this
rule keeps it that way by flagging any assignment (or deletion) that
targets a masked state column —

    ``_b  _lo  _hi  _mu  _md  _resolved  _dirty  _assign``

or subscripts of an ``assignment`` attribute — outside the trail
protocol (``__init__``/``push``/``pop``/``rewind_to`` plus
``_KFrame.restore``).  The evaluator implementation modules
(``engine/masked.py``, ``engine/kernels.py``) additionally allow their
internal sweep/write-back helpers, which trail every write themselves.

Known blind spot: writes through a local alias (``col = self._b;
col[vid] = ...``) are not tracked; none exist outside the implementation
modules today, and the property suites catch the resulting divergence at
runtime.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from .core import Finding, FunctionStackVisitor, Rule, SourceFile, register_rule

#: Masked-evaluator state columns (list storage in the Python evaluator,
#: NumPy arrays in the kernel evaluator — same attribute names).
COLUMNS = frozenset(
    {"_b", "_lo", "_hi", "_mu", "_md", "_resolved", "_dirty", "_assign"}
)

#: The trail protocol: functions allowed to write columns anywhere.
PROTOCOL_FUNCTIONS = frozenset(
    {"__init__", "push", "pop", "rewind_to", "restore"}
)

#: Implementation-internal writers, valid only inside their own module
#: (each trails its writes or is called exclusively under ``push``).
IMPLEMENTATION_EXTRA = {
    "src/repro/engine/masked.py": frozenset(
        {"_sweep_cone", "_recompute", "_write_num_scalar", "_restore_frame"}
    ),
    "src/repro/engine/kernels.py": frozenset({"_sweep_kernel"}),
}


def _column_target(node: ast.expr) -> "tuple[str, int] | None":
    """``(column, line)`` when an assignment target hits a state column."""
    if isinstance(node, ast.Attribute) and node.attr in COLUMNS:
        return node.attr, node.lineno
    if isinstance(node, ast.Subscript):
        value = node.value
        if isinstance(value, ast.Attribute) and value.attr in COLUMNS:
            return value.attr, node.lineno
        if isinstance(value, ast.Attribute) and value.attr == "assignment":
            return "assignment", node.lineno
    if isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            hit = _column_target(element)
            if hit is not None:
                return hit
    if isinstance(node, ast.Starred):
        return _column_target(node.value)
    return None


class _Visitor(FunctionStackVisitor):
    def __init__(self, rule: "TrailDisciplineRule", source: SourceFile) -> None:
        super().__init__()
        self.rule = rule
        self.source = source
        self.findings: List[Finding] = []
        self.extra = IMPLEMENTATION_EXTRA.get(source.path, frozenset())

    def _allowed_here(self) -> bool:
        name = self.function
        return name in PROTOCOL_FUNCTIONS or name in self.extra

    def _flag(self, targets: Iterable[ast.expr]) -> None:
        if self._allowed_here():
            return
        for target in targets:
            hit = _column_target(target)
            if hit is None:
                continue
            column, line = hit
            where = (
                f"function {self.function!r}"
                if self.functions
                else "module level"
            )
            self.findings.append(
                self.rule.finding(
                    self.source,
                    line,
                    "direct write to masked-evaluator state column "
                    f"{column!r} in {where}, outside the trail protocol",
                )
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._flag(node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._flag([node.target])
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._flag([node.target])
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._flag(node.targets)
        self.generic_visit(node)


class TrailDisciplineRule(Rule):
    name = "trail-discipline"
    description = (
        "masked-evaluator state columns are only written through the "
        "trail protocol (push/pop/rewind_to)"
    )
    hint = (
        "route the write through push() so the trail records "
        "the old value and pop()/rewind_to() can restore it; see "
        "docs/ARCHITECTURE.md, 'Enforced invariants'"
    )

    def check(self, source: SourceFile) -> Iterable[Finding]:
        visitor = _Visitor(self, source)
        visitor.visit(source.tree)
        return visitor.findings


RULE = register_rule(TrailDisciplineRule())
