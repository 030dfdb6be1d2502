"""Tests for ``repro check``: the invariant lint framework and rules.

Each rule gets a good fixture (no findings) and a bad fixture (at least
one finding, the right rule name, the right line).  The final class runs
the whole checker over the repository itself — the gate CI enforces.
(The Python kernel and its C cannot drift any more — the C is generated,
see ``test_cgen.py`` — so there is no drift rule to test.)
"""

import subprocess
import sys
from pathlib import Path

from repro.analysis import load_rules, run_check, source_from_text
from repro.analysis.barrier_determinism import RULE as BARRIER_RULE
from repro.analysis.core import parse_allow, resolve_import, suppressed
from repro.analysis.kernel_hygiene import RULE as HYGIENE_RULE
from repro.analysis.registry_dispatch import RULE as REGISTRY_RULE
from repro.analysis.runner import injected_findings, main as check_main
from repro.analysis.trail_discipline import RULE as TRAIL_RULE

REPO_ROOT = Path(__file__).resolve().parents[2]


def findings_for(rule, relpath, text):
    source = source_from_text(relpath, text)
    return [f for f in rule.check(source) if not suppressed(source, f)]


# ----------------------------------------------------------------------
# Framework
# ----------------------------------------------------------------------


class TestFramework:
    def test_load_rules_names(self):
        names = {rule.name for rule in load_rules()}
        assert names == {
            "trail-discipline",
            "registry-dispatch",
            "barrier-determinism",
            "kernel-hygiene",
        }

    def test_parse_allow(self):
        allow = parse_allow(
            "x = 1\n"
            "y = 2  # repro: allow[trail-discipline]\n"
            "# repro: allow[barrier-determinism, kernel-hygiene]\n"
            "z = 3\n"
        )
        assert allow == {
            2: frozenset({"trail-discipline"}),
            3: frozenset({"barrier-determinism", "kernel-hygiene"}),
        }

    def test_suppression_same_line_and_line_above(self):
        bad = "class E:\n    def poke(self, v):\n        self._b[v] = 1"
        assert findings_for(TRAIL_RULE, "src/repro/engine/x.py", bad)
        same_line = bad + "  # repro: allow[trail-discipline]"
        assert not findings_for(TRAIL_RULE, "src/repro/engine/x.py", same_line)
        above = (
            "class E:\n    def poke(self, v):\n"
            "        # repro: allow[trail-discipline]\n"
            "        self._b[v] = 1"
        )
        assert not findings_for(TRAIL_RULE, "src/repro/engine/x.py", above)
        wildcard = bad + "  # repro: allow[*]"
        assert not findings_for(TRAIL_RULE, "src/repro/engine/x.py", wildcard)

    def test_resolve_import_relative(self):
        import ast

        node = ast.parse("from ..engine import schemes").body[0]
        modules = [m for m, _ in resolve_import("src/repro/core/platform.py", node)]
        assert "repro.engine.schemes" in modules

    def test_finding_format_has_location_and_hint(self):
        bad = "class E:\n    def poke(self, v):\n        self._b[v] = 1"
        finding = findings_for(TRAIL_RULE, "src/repro/engine/x.py", bad)[0]
        text = finding.format()
        assert "src/repro/engine/x.py:3" in text
        assert "[trail-discipline]" in text
        assert "hint:" in text


# ----------------------------------------------------------------------
# Per-rule fixtures
# ----------------------------------------------------------------------


class TestTrailDiscipline:
    PATH = "src/repro/compile/replay.py"

    def test_bad_direct_column_write(self):
        bad = (
            "def replay(ev, prefix):\n"
            "    for vid, val in prefix:\n"
            "        ev._b[vid] = 1 if val else 0\n"
        )
        found = findings_for(TRAIL_RULE, self.PATH, bad)
        assert [f.line for f in found] == [3]
        assert found[0].rule == "trail-discipline"

    def test_bad_assignment_dict_write(self):
        bad = "def seed(ev, var):\n    ev.assignment[var] = True\n"
        assert findings_for(TRAIL_RULE, self.PATH, bad)

    def test_bad_delete(self):
        bad = "def wipe(ev, var):\n    del ev._lo[var]\n"
        assert findings_for(TRAIL_RULE, self.PATH, bad)

    def test_good_protocol_functions(self):
        good = (
            "class Ev:\n"
            "    def __init__(self):\n"
            "        self._b = []\n"
            "    def push(self, var, val):\n"
            "        self.assignment[var] = val\n"
            "    def pop(self):\n"
            "        self._b[0] = 0\n"
            "    def rewind_to(self, mark):\n"
            "        self._mu[2] = True\n"
        )
        assert not findings_for(TRAIL_RULE, self.PATH, good)

    def test_good_push_call(self):
        good = "def replay(ev, prefix):\n    ev.push(0, True)\n"
        assert not findings_for(TRAIL_RULE, self.PATH, good)

    def test_implementation_extra_scoped_to_module(self):
        text = "class Ev:\n    def _sweep_cone(self):\n        self._dirty[0] = 1\n"
        assert not findings_for(TRAIL_RULE, "src/repro/engine/masked.py", text)
        assert findings_for(TRAIL_RULE, "src/repro/compile/other.py", text)


class TestRegistryDispatch:
    def test_bad_schemes_import_outside_registry(self):
        bad = "from repro.engine import schemes\n"
        found = findings_for(REGISTRY_RULE, "src/repro/compile/extra.py", bad)
        assert found and found[0].rule == "registry-dispatch"

    def test_bad_relative_schemes_import(self):
        bad = "from . import schemes\n"
        assert findings_for(REGISTRY_RULE, "src/repro/engine/bulk.py", bad)

    def test_good_schemes_import_in_registry(self):
        good = "from . import schemes\n"
        assert not findings_for(
            REGISTRY_RULE, "src/repro/engine/registry.py", good
        )

    def test_bad_entry_point_imports_implementation(self):
        bad = "from .compile.compiler import compile_network\n"
        found = findings_for(REGISTRY_RULE, "src/repro/cli.py", bad)
        assert found and "entry point" in found[0].message

    def test_good_entry_point_uses_registry_and_constants(self):
        good = (
            "from .engine.registry import run_scheme\n"
            "from .engine.kernels import KERNEL_NAMES\n"
            "from .compile.ordering import ORDER_NAMES\n"
        )
        assert not findings_for(REGISTRY_RULE, "src/repro/cli.py", good)

    def test_implementation_import_fine_outside_entry_points(self):
        good = "from repro.compile.compiler import compile_network\n"
        assert not findings_for(
            REGISTRY_RULE, "benchmarks/bench_orders.py", good
        )

    def test_serve_package_is_entry_surface(self):
        bad = "from ..engine.bulk import bulk_probabilities\n"
        for path in (
            "src/repro/serve/server.py",
            "src/repro/serve/batching.py",
            "src/repro/serve/newmodule.py",
        ):
            found = findings_for(REGISTRY_RULE, path, bad)
            assert found and "entry point" in found[0].message, path

    def test_serve_package_may_use_registry(self):
        good = (
            "from ..engine.registry import run_scheme, normalise_options\n"
            "from ..compile.ordering import ORDER_NAMES\n"
        )
        assert not findings_for(
            REGISTRY_RULE, "src/repro/serve/server.py", good
        )


class TestBarrierDeterminism:
    PATH = "src/repro/compile/distributed.py"

    def test_bad_import_random(self):
        assert findings_for(BARRIER_RULE, self.PATH, "import random\n")

    def test_bad_wall_clock(self):
        bad = "import time\n\ndef stamp(job):\n    job.t = time.time()\n"
        found = findings_for(BARRIER_RULE, self.PATH, bad)
        assert [f.line for f in found] == [4]

    def test_bad_set_iteration(self):
        bad = "def merge(jobs):\n    for j in set(jobs):\n        j.run()\n"
        assert findings_for(BARRIER_RULE, self.PATH, bad)

    def test_bad_set_comprehension_source(self):
        bad = "def ids(jobs):\n    return [j.id for j in {j for j in jobs}]\n"
        assert findings_for(BARRIER_RULE, self.PATH, bad)

    def test_good_perf_counter_and_sorted(self):
        good = (
            "import time\n"
            "def run(jobs):\n"
            "    t0 = time.perf_counter()\n"
            "    for j in sorted(jobs):\n"
            "        j.run()\n"
            "    return time.perf_counter() - t0\n"
        )
        assert not findings_for(BARRIER_RULE, self.PATH, good)

    def test_out_of_scope_file_ignored(self):
        assert not BARRIER_RULE.applies("src/repro/compile/compiler.py")

    def test_transport_module_in_scope(self):
        # PR 8: steal decisions and the framed protocol live in the
        # transport module and obey the same determinism discipline.
        assert BARRIER_RULE.applies("src/repro/compile/transport.py")
        bad = (
            "import time\n"
            "def pick_victim(workers):\n"
            "    return min(workers, key=lambda w: time.time())\n"
        )
        found = findings_for(
            BARRIER_RULE, "src/repro/compile/transport.py", bad
        )
        assert [f.line for f in found] == [3]


class TestKernelHygiene:
    def test_bad_numba_import(self):
        found = findings_for(
            HYGIENE_RULE, "src/repro/compile/fastpath.py", "import numba\n"
        )
        assert found and found[0].rule == "kernel-hygiene"

    def test_bad_ctypes_from_import(self):
        bad = "from ctypes import CDLL\n"
        assert findings_for(HYGIENE_RULE, "src/repro/engine/packed.py", bad)

    def test_kernels_module_exempt(self):
        assert not HYGIENE_RULE.applies("src/repro/engine/kernels.py")

    def test_the_emitter_is_in_scope_and_clean(self):
        # engine/cgen.py writes the native tier's C but is text-in,
        # text-out: in scope for the rule, and passing it unsuppressed.
        relpath = "src/repro/engine/cgen.py"
        text = (REPO_ROOT / relpath).read_text(encoding="utf-8")
        assert HYGIENE_RULE.applies(relpath)
        assert "repro: allow" not in text
        assert not findings_for(HYGIENE_RULE, relpath, text)

    def test_tests_and_benchmarks_exempt(self):
        assert not HYGIENE_RULE.applies("benchmarks/bench_kernels.py")

    def test_good_backend_ladder_import(self):
        good = "from repro.engine.kernels import get_backend\n"
        assert not findings_for(
            HYGIENE_RULE, "src/repro/compile/fastpath.py", good
        )


# ----------------------------------------------------------------------
# The repository itself, and the runner
# ----------------------------------------------------------------------


class TestRepositoryIsClean:
    def test_repro_check_passes_on_this_repo(self):
        findings = run_check(str(REPO_ROOT))
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_injected_violation_produces_findings(self):
        found = injected_findings(load_rules())
        rules_hit = {f.rule for f in found}
        assert {"kernel-hygiene", "trail-discipline"} <= rules_hit

    def test_runner_exit_codes(self, capsys):
        assert check_main(["--root", str(REPO_ROOT)]) == 0
        assert check_main(["--root", str(REPO_ROOT), "--inject-violation"]) == 1
        out = capsys.readouterr().out
        assert "finding(s)" in out

    def test_cli_check_subcommand(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "check", "--root", str(REPO_ROOT)],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean" in result.stdout
