"""wire-format: patches stay plain-scalar across evaluator tiers.

Column patches (:meth:`MaskedEvaluator.export_patch`) are the
cross-process wire format of the distributed compiler: trail slices
pickled between workers.  Kernel evaluators store their columns as
NumPy arrays, so a raw column read (``self._b[vid]``) is a NumPy scalar
— it pickles, but it is not byte-identical to the Python evaluator's
plain ``int``/``float``/``bool`` payloads, it resurrects NumPy on the
receiving side, and equality-sensitive consumers (patch interop tests,
cross-tier handoffs) see the difference.  PR 6 papered over this with a
normalising override; the normalisation now lives in the base walk
(``_plain_values``), and this rule keeps raw column reads out of the
emitted tuples for good.

PR 8 extends the same wire format across machines: the socket
transport (``compile/transport.py``) pickles job messages and patch
frames onto TCP streams, so the plain-scalar invariant is now a
cross-machine compatibility contract, not just a cross-process one.
The rule therefore also covers ``compile/transport.py`` and
``compile/distributed.py``, and additionally checks any function whose
name starts with ``_wire`` (the transport's payload builders).

Checked functions: any ``export_patch``, ``_plain_values``, functions
named ``_wire*``, and ``__iter__`` of ``*Frame`` classes (kernel trail
frames yield wire-compatible tuples).  Inside them, a tuple/list
element that reads a state column (``_b``/``_lo``/``_hi``/``_mu``/
``_md`` attributes, or the bare ``b``/``lo``/``hi``/``mu``/``md`` slots
of a frame) must be wrapped in ``int()``/``float()``/``bool()``.
(Vector c-values are lowered to scalar lanes before evaluation, so
these five columns are the whole wire format.)
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from .core import Finding, FunctionStackVisitor, Rule, SourceFile, register_rule

SCALAR_COLUMNS = frozenset({"_b", "_lo", "_hi", "_mu", "_md"})
FRAME_SLOTS = frozenset({"b", "lo", "hi", "mu", "md"})
CASTS = frozenset({"int", "float", "bool"})


def _raw_column_read(node: ast.expr) -> "str | None":
    """The column name when ``node`` reads a state column uncast."""
    if not isinstance(node, ast.Subscript):
        return None
    value = node.value
    if isinstance(value, ast.Attribute) and value.attr in SCALAR_COLUMNS:
        return value.attr
    if (
        isinstance(value, ast.Attribute)
        and value.attr in FRAME_SLOTS
        and isinstance(value.value, ast.Name)
        and value.value.id == "self"
    ):
        return value.attr
    return None


class _Visitor(FunctionStackVisitor):
    def __init__(self, rule: "WireFormatRule", source: SourceFile) -> None:
        super().__init__()
        self.rule = rule
        self.source = source
        self.findings: List[Finding] = []

    def _in_wire_function(self) -> bool:
        name = self.function
        if name in ("export_patch", "_plain_values"):
            return True
        if name.startswith("_wire"):
            return True
        return name == "__iter__" and "Frame" in self.class_name

    def _check_elements(self, elements: Iterable[ast.expr]) -> None:
        for element in elements:
            column = _raw_column_read(element)
            if column is not None:
                self.findings.append(
                    self.rule.finding(
                        self.source,
                        element.lineno,
                        f"raw column read {column!r} in a wire-format "
                        "payload leaks NumPy scalars on kernel tiers",
                    )
                )

    def visit_Tuple(self, node: ast.Tuple) -> None:
        if self._in_wire_function():
            self._check_elements(node.elts)
        self.generic_visit(node)

    def visit_List(self, node: ast.List) -> None:
        if self._in_wire_function():
            self._check_elements(node.elts)
        self.generic_visit(node)


class WireFormatRule(Rule):
    name = "wire-format"
    description = (
        "export_patch payloads are plain Python scalars: no raw column "
        "reads (NumPy scalar leakage) in wire-format tuples"
    )
    hint = (
        "wrap the read in int()/float()/bool() (or route it through "
        "_plain_values) so patches pickle identically across tiers"
    )

    def applies(self, relpath: str) -> bool:
        if relpath.startswith("src/repro/engine/"):
            return True
        return relpath in (
            "src/repro/compile/transport.py",
            "src/repro/compile/distributed.py",
        )

    def check(self, source: SourceFile) -> Iterable[Finding]:
        visitor = _Visitor(self, source)
        visitor.visit(source.tree)
        return visitor.findings


RULE = register_rule(WireFormatRule())
