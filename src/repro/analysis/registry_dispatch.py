"""registry-dispatch: one dispatch point for probability schemes.

The ROADMAP standing rule: new schemes plug into
``repro.engine.registry`` and every entry point — the platform facade,
the CLI, the distributed compiler, the benchmark harness — dispatches
through :func:`repro.engine.registry.run_scheme` instead of hard-coding
``if scheme == ...`` chains.  Two mechanically checkable halves:

* ``repro.engine.schemes`` (the built-in scheme runners) is imported by
  exactly one module, the registry itself.  Anything else importing it
  is wiring around the dispatch point.
* The entry-point modules (``cli.py``, ``__main__.py``,
  ``core/platform.py``, and everything under ``repro.serve`` — the
  query service answers arbitrary scheme requests, so the whole
  package is an entry surface) must not import scheme *implementations*
  (compilers, world enumeration, Monte Carlo, the evaluator engines);
  they talk to ``repro.engine.registry`` only.  Option-name constants
  (``compile.ordering.ORDER_NAMES``, ``engine.kernels.KERNEL_NAMES``)
  are deliberately not banned — they parameterise dispatch, they do not
  bypass it.

Benchmarks that measure compiler/evaluator *internals* (ablations over
``compile_network`` and friends) are in scope only for the first half:
the harness's end-to-end path (``benchmarks/common.py``) already runs
through the registry.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from .core import Finding, Rule, SourceFile, register_rule, resolve_import

#: The one module allowed to import the built-in scheme runners.
SCHEMES_MODULE = "repro.engine.schemes"
SCHEMES_IMPORTER = "src/repro/engine/registry.py"

#: Entry-point modules that must stay implementation-free.
ENTRY_FILES = frozenset(
    {
        "src/repro/cli.py",
        "src/repro/__main__.py",
        "src/repro/core/platform.py",
    }
)

#: Entry-point *packages*: every module under these prefixes is an
#: entry point.  The service layer answers arbitrary scheme queries, so
#: all of it must dispatch through the registry; the pc-table substrate
#: (``repro.db``) reaches conditioning through the ``exact-cond`` /
#: ``lazy-cond`` schemes and may not import compilers directly either.
ENTRY_PREFIXES = ("src/repro/serve/", "src/repro/db/")

#: Scheme-implementation modules banned from the entry points.
IMPLEMENTATION_MODULES = (
    "repro.compile.compiler",
    "repro.compile.distributed",
    "repro.compile.montecarlo",
    "repro.compile.partial",
    "repro.compile.folded_eval",
    "repro.worlds.naive",
    "repro.engine.bulk",
    "repro.engine.masked",
)


def _hits(module: str, banned: str) -> bool:
    return module == banned or module.startswith(banned + ".")


class RegistryDispatchRule(Rule):
    name = "registry-dispatch"
    description = (
        "schemes are reached through repro.engine.registry: nothing but "
        "the registry imports repro.engine.schemes, and the CLI/facade "
        "entry points import no scheme implementations"
    )
    hint = (
        "dispatch through repro.engine.registry.run_scheme (or register the "
        "scheme with register_scheme); see ROADMAP.md's standing rule"
    )

    def check(self, source: SourceFile) -> Iterable[Finding]:
        findings: List[Finding] = []
        is_entry = source.path in ENTRY_FILES or source.path.startswith(
            ENTRY_PREFIXES
        )
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for module, line in resolve_import(source.path, node):
                if (
                    _hits(module, SCHEMES_MODULE)
                    and source.path != SCHEMES_IMPORTER
                ):
                    findings.append(
                        self.finding(
                            source,
                            line,
                            f"import of {SCHEMES_MODULE} outside the "
                            "registry bypasses scheme dispatch",
                        )
                    )
                    break
                if is_entry and any(
                    _hits(module, banned) for banned in IMPLEMENTATION_MODULES
                ):
                    findings.append(
                        self.finding(
                            source,
                            line,
                            "entry point imports scheme implementation "
                            f"{module!r} instead of dispatching through "
                            "the registry",
                        )
                    )
                    break
        return findings


RULE = register_rule(RegistryDispatchRule())
