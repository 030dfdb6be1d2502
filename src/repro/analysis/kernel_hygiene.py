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
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from .core import Finding, Rule, SourceFile, register_rule

KERNEL_MODULE = "src/repro/engine/kernels.py"
BANNED_ROOTS = ("numba", "ctypes")


class KernelHygieneRule(Rule):
    name = "kernel-hygiene"
    description = (
        "no numba/ctypes imports outside engine/kernels.py: every "
        "compiled tier goes through the validated backend ladder"
    )
    hint = (
        "use repro.engine.kernels (get_backend/make_masked_evaluator) "
        "instead of importing numba/ctypes directly — backends there are "
        "self-validated against the Python oracle before first use"
    )

    def applies(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/") and relpath != KERNEL_MODULE

    def check(self, source: SourceFile) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
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
