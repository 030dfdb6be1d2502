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
from typing import Iterable, List

from .core import Finding, Rule, SourceFile, register_rule

KERNEL_MODULE = "src/repro/engine/kernels.py"
BANNED_ROOTS = ("numba", "ctypes")
ORACLE_MODULES = ("src/repro/compile/partial.py", "src/repro/events/values.py")
BANNED_REDUCTIONS = ("sum", "dot")


class KernelHygieneRule(Rule):
    name = "kernel-hygiene"
    description = (
        "no numba/ctypes imports outside engine/kernels.py: every "
        "compiled tier goes through the validated backend ladder; no "
        "pairwise np.sum/np.dot in the scalar oracles"
    )
    hint = (
        "use repro.engine.kernels (get_backend/make_masked_evaluator) "
        "instead of importing numba/ctypes directly — backends there are "
        "self-validated against the Python oracle before first use; in "
        "the scalar oracles reduce with repro.events.values.lane_sum"
    )

    def applies(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/") and relpath != KERNEL_MODULE

    def check(self, source: SourceFile) -> Iterable[Finding]:
        findings: List[Finding] = []
        oracle = source.path in ORACLE_MODULES
        for node in ast.walk(source.tree):
            if (
                oracle
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in BANNED_REDUCTIONS
            ):
                findings.append(
                    self.finding(
                        source,
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
                    findings.append(
                        self.finding(
                            source,
                            node.lineno,
                            f"compiled-tier import {name.split('.')[0]!r} "
                            "outside engine/kernels.py bypasses the "
                            "validated backend ladder",
                        )
                    )
        return findings


RULE = register_rule(KernelHygieneRule())
