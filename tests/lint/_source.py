"""The repository's own Python sources, parsed once per test session.

Every lint module under ``tests/lint`` scans the same files: each
``.py`` file under ``src/`` and ``benchmarks/``, keyed by its
repo-relative posix path.  :func:`sources` parses them on first use and
keeps the trees for the rest of the session.
"""

from __future__ import annotations

import ast
import os
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

ROOT = Path(__file__).resolve().parents[2]

#: Directories (relative to the repo root) the lints scan.
SOURCE_DIRS = ("src", "benchmarks")

_TREES: Dict[str, ast.Module] = {}


def sources() -> Iterable[Tuple[str, ast.Module]]:
    """``(relpath, tree)`` for every scanned ``.py`` file, sorted by path."""
    if not _TREES:
        paths = []
        for base in SOURCE_DIRS:
            for dirpath, dirnames, filenames in os.walk(ROOT / base):
                dirnames[:] = [d for d in dirnames if d != "__pycache__"]
                paths.extend(
                    Path(dirpath, name) for name in filenames if name.endswith(".py")
                )
        for path in sorted(paths):
            relpath = path.relative_to(ROOT).as_posix()
            _TREES[relpath] = ast.parse(path.read_text(encoding="utf-8"), relpath)
    return _TREES.items()


def violations(rule: str, findings) -> List[str]:
    """``path:line: [rule] message`` for each finding in the repository."""
    return [
        f"{relpath}:{line}: [{rule}] {message}"
        for relpath, tree in sources()
        for line, message in findings(relpath, tree)
    ]


class FunctionStackVisitor(ast.NodeVisitor):
    """An AST visitor tracking the enclosing function names.

    ``self.functions`` is an innermost-last stack that rules use to scope
    checks ("inside ``push``").
    """

    def __init__(self) -> None:
        self.functions: List[str] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    @property
    def function(self) -> str:
        return self.functions[-1] if self.functions else "<module>"


def resolve_import(
    relpath: str, node: "ast.Import | ast.ImportFrom"
) -> List[Tuple[str, int]]:
    """Absolute dotted module names an import statement binds.

    Relative imports are resolved against the file's package path (files
    under ``src/`` are rooted at the package, e.g.
    ``src/repro/engine/x.py`` lives in package ``repro.engine``).  For
    ``from M import a, b`` both ``M`` and ``M.a``/``M.b`` are reported,
    so bans on a module catch both importing it and importing from it.
    """
    results: List[Tuple[str, int]] = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            results.append((alias.name, node.lineno))
        return results
    package_parts: List[str] = []
    parts = relpath.replace(os.sep, "/").split("/")
    if parts and parts[0] == "src":
        package_parts = parts[1:-1]
    base = ""
    if node.level:
        keep = len(package_parts) - (node.level - 1)
        if keep < 0:
            keep = 0
        base = ".".join(package_parts[:keep])
    module = node.module or ""
    prefix = ".".join(p for p in (base, module) if p)
    if prefix:
        results.append((prefix, node.lineno))
    for alias in node.names:
        if alias.name == "*":
            continue
        full = f"{prefix}.{alias.name}" if prefix else alias.name
        results.append((full, node.lineno))
    return results
