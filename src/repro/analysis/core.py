"""The lint framework: findings, rules, suppressions, file collection.

``repro check`` (:mod:`repro.analysis.runner`) walks the repository's
Python sources once, parses each file into an AST, and hands the parsed
:class:`SourceFile` to every registered rule whose scope covers it.
Rules return :class:`Finding` records (file:line, message, fix hint);
the framework filters them through ``# repro: allow[rule-name]``
suppression comments (on the flagged line or the line directly above;
``allow[*]`` suppresses every rule) and sorts the survivors.

Every rule is a :class:`Rule`: a per-file AST lint
(``check(source_file)``).  Rules register themselves at import time via :func:`register_rule`;
:func:`load_rules` imports the rule modules exactly once.
"""

from __future__ import annotations

import ast
import importlib
import os
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Tuple

#: Rule modules imported by :func:`load_rules`; each registers one rule.
_RULE_MODULES = (
    "trail_discipline",
    "registry_dispatch",
    "barrier_determinism",
    "kernel_hygiene",
)

#: Directories (relative to the repo root) the checker walks.
SOURCE_DIRS = ("src", "benchmarks")

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a source line."""

    rule: str
    path: str  # repo-relative, posix separators
    line: int
    message: str
    hint: str = ""

    def format(self) -> str:
        text = f"{self.path}:{self.line}: [{self.rule}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


@dataclass(frozen=True)
class SourceFile:
    """One parsed source file plus its suppression map."""

    path: str  # repo-relative, posix separators
    text: str
    tree: ast.Module
    #: line number -> rule names allowed on that line (``*`` = all).
    allow: Mapping[int, FrozenSet[str]] = field(default_factory=dict)

    @property
    def lines(self) -> List[str]:
        return self.text.splitlines()


def parse_allow(text: str) -> Dict[int, FrozenSet[str]]:
    """Extract ``# repro: allow[...]`` suppressions, by line number."""
    allow: Dict[int, FrozenSet[str]] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if "repro" not in line:
            continue
        names: set = set()
        for match in _ALLOW_RE.finditer(line):
            names.update(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
        if names:
            allow[number] = frozenset(names)
    return allow


def load_source(root: str, relpath: str) -> SourceFile:
    with open(os.path.join(root, relpath), encoding="utf-8") as handle:
        text = handle.read()
    return source_from_text(relpath, text)


def source_from_text(relpath: str, text: str) -> SourceFile:
    """Parse source text into a :class:`SourceFile` (test seam)."""
    tree = ast.parse(text, filename=relpath)
    return SourceFile(
        path=relpath.replace(os.sep, "/"),
        text=text,
        tree=tree,
        allow=parse_allow(text),
    )


def iter_source_paths(root: str) -> Iterator[str]:
    """Repo-relative paths of every checked ``.py`` file, sorted."""
    found: List[str] = []
    for base in SOURCE_DIRS:
        top = os.path.join(root, base)
        if not os.path.isdir(top):
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(
                d for d in dirnames if d not in ("__pycache__",)
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    found.append(rel.replace(os.sep, "/"))
    return iter(sorted(found))


class Rule:
    """A per-file AST lint.

    Subclasses set ``name``/``description``/``hint`` and implement
    :meth:`check`; :meth:`applies` scopes the rule to a subset of the
    repository (the default is every collected file).
    """

    name: str = ""
    description: str = ""
    hint: str = ""

    def applies(self, relpath: str) -> bool:
        return True

    def check(self, source: SourceFile) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, source: SourceFile, line: int, message: str) -> Finding:
        return Finding(
            rule=self.name,
            path=source.path,
            line=line,
            message=message,
            hint=self.hint,
        )


_RULES: Dict[str, Rule] = {}
_rules_loaded = False


def register_rule(rule: Rule) -> Rule:
    if not rule.name:
        raise ValueError("rules need a name")
    if rule.name in _RULES:
        raise ValueError(f"rule {rule.name!r} is already registered")
    _RULES[rule.name] = rule
    return rule


def load_rules() -> Tuple[Rule, ...]:
    """All registered rules, importing the rule modules on first use."""
    global _rules_loaded
    if not _rules_loaded:
        _rules_loaded = True
        package = __name__.rsplit(".", 1)[0]
        for module in _RULE_MODULES:
            importlib.import_module(f"{package}.{module}")
    return tuple(_RULES[name] for name in sorted(_RULES))


def suppressed(source: Optional[SourceFile], finding: Finding) -> bool:
    """Is the finding covered by an allow comment on or above its line?"""
    if source is None:
        return False
    for line in (finding.line, finding.line - 1):
        names = source.allow.get(line)
        if names and (finding.rule in names or "*" in names):
            return True
    return False


def run_check(
    root: str,
    paths: Optional[Iterable[str]] = None,
    rules: Optional[Iterable[Rule]] = None,
) -> List[Finding]:
    """Run every rule over the repository; returns surviving findings.

    ``paths`` restricts the rules to a subset of files (repo-relative).
    """
    selected = list(rules) if rules is not None else list(load_rules())
    files: Dict[str, SourceFile] = {}
    for relpath in iter_source_paths(root):
        try:
            files[relpath] = load_source(root, relpath)
        except SyntaxError as exc:
            files[relpath] = SourceFile(relpath, "", ast.Module([], []), {})
            return [
                Finding(
                    rule="parse-error",
                    path=relpath,
                    line=exc.lineno or 1,
                    message=f"file does not parse: {exc.msg}",
                )
            ]
    wanted = set(paths) if paths is not None else None
    findings: List[Finding] = []
    for rule in selected:
        for relpath, source in files.items():
            if wanted is not None and relpath not in wanted:
                continue
            if not rule.applies(relpath):
                continue
            for finding in rule.check(source):
                if not suppressed(source, finding):
                    findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


class FunctionStackVisitor(ast.NodeVisitor):
    """An AST visitor tracking the enclosing function/class names.

    ``self.functions`` / ``self.classes`` are innermost-last stacks that
    rules use to scope checks ("inside ``push``", "in a ``*Frame``
    class").
    """

    def __init__(self) -> None:
        self.functions: List[str] = []
        self.classes: List[str] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    @property
    def function(self) -> str:
        return self.functions[-1] if self.functions else "<module>"

    @property
    def class_name(self) -> str:
        return self.classes[-1] if self.classes else ""


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
