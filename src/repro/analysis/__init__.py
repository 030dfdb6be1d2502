"""Static analysis for the repro codebase: ``repro check``.

AST-walking lint rules that enforce the repository's standing
invariants — trail discipline in the masked evaluators, registry-only
scheme dispatch, deterministic distributed barriers, and kernel-tier
import hygiene.  See ``docs/ARCHITECTURE.md``, section "Enforced
invariants".
"""

from .core import (
    Finding,
    Rule,
    SourceFile,
    load_rules,
    register_rule,
    run_check,
    source_from_text,
)
from .runner import main

__all__ = [
    "Finding",
    "Rule",
    "SourceFile",
    "load_rules",
    "main",
    "register_rule",
    "run_check",
    "source_from_text",
]
