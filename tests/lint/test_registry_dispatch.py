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
from typing import List, Tuple

from ._source import resolve_import, violations

RULE = "registry-dispatch"
HINT = (
    "dispatch through repro.engine.registry.run_scheme (or register the "
    "scheme with register_scheme); see ROADMAP.md's standing rule"
)

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
    "repro.worlds.naive",
    "repro.engine.bulk",
    "repro.engine.masked",
)


def _hits(module: str, banned: str) -> bool:
    return module == banned or module.startswith(banned + ".")


def findings(relpath: str, tree: ast.Module) -> List[Tuple[int, str]]:
    found: List[Tuple[int, str]] = []
    is_entry = relpath in ENTRY_FILES or relpath.startswith(ENTRY_PREFIXES)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for module, line in resolve_import(relpath, node):
            if _hits(module, SCHEMES_MODULE) and relpath != SCHEMES_IMPORTER:
                found.append(
                    (
                        line,
                        f"import of {SCHEMES_MODULE} outside the "
                        "registry bypasses scheme dispatch",
                    )
                )
                break
            if is_entry and any(
                _hits(module, banned) for banned in IMPLEMENTATION_MODULES
            ):
                found.append(
                    (
                        line,
                        "entry point imports scheme implementation "
                        f"{module!r} instead of dispatching through "
                        "the registry",
                    )
                )
                break
    return found


def test_repository_is_clean():
    found = violations(RULE, findings)
    assert not found, "\n".join(found) + f"\n    hint: {HINT}"


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------


def messages(relpath, text):
    return [message for _, message in findings(relpath, ast.parse(text))]


def test_resolve_import_relative():
    node = ast.parse("from ..engine import schemes").body[0]
    modules = [m for m, _ in resolve_import("src/repro/core/platform.py", node)]
    assert "repro.engine.schemes" in modules


def test_bad_schemes_import_outside_registry():
    bad = "from repro.engine import schemes\n"
    assert messages("src/repro/compile/extra.py", bad)


def test_bad_relative_schemes_import():
    bad = "from . import schemes\n"
    assert messages("src/repro/engine/bulk.py", bad)


def test_good_schemes_import_in_registry():
    good = "from . import schemes\n"
    assert not messages("src/repro/engine/registry.py", good)


def test_bad_entry_point_imports_implementation():
    bad = "from .compile.compiler import compile_network\n"
    found = messages("src/repro/cli.py", bad)
    assert found and "entry point" in found[0]


def test_good_entry_point_uses_registry_and_constants():
    good = (
        "from .engine.registry import run_scheme\n"
        "from .engine.kernels import KERNEL_NAMES\n"
        "from .compile.ordering import ORDER_NAMES\n"
    )
    assert not messages("src/repro/cli.py", good)


def test_implementation_import_fine_outside_entry_points():
    good = "from repro.compile.compiler import compile_network\n"
    assert not messages("benchmarks/bench_orders.py", good)


def test_serve_package_is_entry_surface():
    bad = "from ..engine.bulk import bulk_probabilities\n"
    for path in (
        "src/repro/serve/server.py",
        "src/repro/serve/batching.py",
        "src/repro/serve/newmodule.py",
    ):
        found = messages(path, bad)
        assert found and "entry point" in found[0], path


def test_serve_package_may_use_registry():
    good = (
        "from ..engine.registry import run_scheme, normalise_options\n"
        "from ..compile.ordering import ORDER_NAMES\n"
    )
    assert not messages("src/repro/serve/server.py", good)
