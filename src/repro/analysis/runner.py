"""``repro check``: run the repository's invariant lints.

Exit status is the contract: 0 when every rule passes (CI gates on it),
1 when any finding survives the suppression filter, 2 on usage errors.
``--inject-violation`` runs the rules over a deliberately broken
in-memory module and *must* exit 1 — CI uses it to prove the gate can
fail, the same way the bench-regression job proves itself with
``--inject-slowdown``.
"""

from __future__ import annotations

import argparse
import os
from typing import Iterable, List, Optional

from .core import (
    Finding,
    Rule,
    load_rules,
    run_check,
    source_from_text,
    suppressed,
)

#: A virtual module violating several rules at once; used by
#: ``--inject-violation`` to prove the gate exits non-zero.
_INJECTED_PATH = "src/repro/engine/_injected_violation.py"
_INJECTED_TEXT = '''\
"""Deliberately broken module for `repro check --inject-violation`."""

import numba  # kernel-hygiene: compiled tier outside kernels.py


class BrokenEvaluator:
    def poke(self, vid):
        # trail-discipline: column write outside the trail protocol
        self._b[vid] = 1
'''


def find_root(start: Optional[str] = None) -> str:
    """The repository root: nearest ancestor holding ``pyproject.toml``."""
    here = os.path.abspath(start or os.getcwd())
    while True:
        if os.path.isfile(os.path.join(here, "pyproject.toml")):
            return here
        parent = os.path.dirname(here)
        if parent == here:
            return os.path.abspath(start or os.getcwd())
        here = parent


def injected_findings(rules: Iterable[Rule]) -> List[Finding]:
    """Findings from running the per-file rules over the broken module."""
    source = source_from_text(_INJECTED_PATH, _INJECTED_TEXT)
    findings: List[Finding] = []
    for rule in rules:
        if not rule.applies(source.path):
            continue
        for finding in rule.check(source):
            if not suppressed(source, finding):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def handle(args: argparse.Namespace) -> int:
    rules = load_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.name}: {rule.description}")
        return 0

    root = args.root if args.root is not None else find_root()
    if not os.path.isdir(root):
        print(f"repro check: root {root!r} is not a directory")
        return 2
    paths: Optional[List[str]] = None
    if args.paths:
        paths = [
            os.path.relpath(os.path.abspath(p), root).replace(os.sep, "/")
            if os.path.exists(p)
            else p.replace(os.sep, "/")
            for p in args.paths
        ]

    findings = run_check(root, paths=paths)
    if args.inject_violation:
        injected = injected_findings(rules)
        if not injected:
            print(
                "repro check: --inject-violation produced no findings; "
                "the gate cannot prove it fails"
            )
            return 2
        findings = findings + injected

    for finding in findings:
        print(finding.format())
    if findings:
        print(f"repro check: {len(findings)} finding(s)")
        return 1
    print(f"repro check: clean ({len(rules)} rules)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    from ..cli import add_check_arguments

    parser = argparse.ArgumentParser(
        prog="repro-check", description=__doc__.splitlines()[0]
    )
    add_check_arguments(parser)
    return handle(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
