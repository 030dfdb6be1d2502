"""Static analysis for the repro codebase: ``repro check``.

AST-walking lint rules that enforce the repository's standing
invariants — trail discipline in the masked evaluators, registry-only
scheme dispatch, deterministic distributed barriers, and kernel-tier
import hygiene.  See ``docs/ARCHITECTURE.md``, section "Enforced
invariants".
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".core": (
            "Finding",
            "Rule",
            "SourceFile",
            "load_rules",
            "register_rule",
            "run_check",
            "source_from_text",
        ),
        ".runner": ("main",),
    },
)
