"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

from ..conftest import require_native


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_cluster_defaults(self):
        args = build_parser().parse_args(["cluster"])
        assert args.algorithm == "hybrid"
        assert args.epsilon == 0.1
        assert args.scheme == "mutex"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "--algorithm", "magic"])

    def test_evidence_flag_parses(self):
        args = build_parser().parse_args(
            ["cluster", "--evidence", "0", "--evidence", "3=false",
             "--evidence", "Centre(o1,0)"]
        )
        assert args.evidence == [
            ("var", 0, True),
            ("var", 3, False),
            ("event", "Centre(o1,0)"),
        ]

    def test_bad_evidence_flag_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "--evidence", "0=maybe"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "--evidence", "x=1"])

    def test_cluster_flags_parse(self):
        args = build_parser().parse_args(
            ["cluster", "--execution", "process", "--listen", "0.0.0.0:7453",
             "--workers", "2", "--join-timeout", "5", "--verbose"]
        )
        assert args.execution == "process"
        assert args.listen == "0.0.0.0:7453"
        assert args.join_timeout == 5.0
        assert args.verbose
        worker = build_parser().parse_args(
            ["cluster", "--connect", "coord.host:7453"]
        )
        assert worker.connect == "coord.host:7453"


class TestCommands:
    def test_cluster_hybrid(self, capsys):
        code = main(
            ["cluster", "--objects", "8", "--seed", "1", "--limit", "3",
             "--group-size", "2", "--mutex-size", "3"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "hybrid" in output
        assert "P[Centre" in output

    def test_cluster_exact_distributed(self, capsys):
        code = main(
            ["cluster", "--objects", "8", "--algorithm", "exact",
             "--workers", "2", "--group-size", "2"]
        )
        assert code == 0
        assert "exact-d" in capsys.readouterr().out

    def test_cluster_folded(self, capsys):
        code = main(["cluster", "--objects", "8", "--folded",
                     "--group-size", "2"])
        assert code == 0

    def test_cluster_positive_scheme(self, capsys):
        code = main(
            ["cluster", "--objects", "8", "--scheme", "positive",
             "--variables", "6", "--algorithm", "lazy"]
        )
        assert code == 0

    def test_cluster_conditioned(self, capsys):
        code = main(
            ["cluster", "--objects", "8", "--algorithm", "exact-cond",
             "--evidence", "0", "--evidence", "1=false",
             "--group-size", "2"]
        )
        assert code == 0
        assert "exact-cond" in capsys.readouterr().out

    def test_cluster_process_verbose(self, capsys):
        code = main(
            ["cluster", "--objects", "8", "--algorithm", "exact",
             "--workers", "2", "--group-size", "2",
             "--execution", "process", "--verbose"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "exact-d" in output
        assert "distributed run details" in output
        assert "steals:" in output
        assert "wire bytes:" in output

    def test_cluster_verbose_names_the_tier_that_ran(self, capsys):
        require_native()
        base = ["cluster", "--objects", "8", "--group-size", "2", "--limit", "3"]
        assert main(base + ["--kernel", "native", "--verbose"]) == 0
        assert "kernel: native" in capsys.readouterr().out
        assert main(base + ["--kernel", "python", "--verbose", "--folded"]) == 0
        assert "kernel: python" in capsys.readouterr().out
        # Only under --verbose: the default stdout is a parsed format.
        assert main(base + ["--kernel", "native"]) == 0
        assert "kernel:" not in capsys.readouterr().out

    def test_cluster_rejects_a_removed_tier_name(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["cluster", "--objects", "8", "--kernel", "interpreted"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'interpreted'" in capsys.readouterr().err

    def test_cluster_verbose_reports_why_a_tier_was_rejected(
        self, capsys, monkeypatch
    ):
        import repro.engine.kernels as kernels

        monkeypatch.setitem(kernels._BACKEND_CACHE, "native", None)
        monkeypatch.setitem(kernels.BACKEND_ERRORS, "native", "no C compiler")
        code = main(
            ["cluster", "--objects", "8", "--group-size", "2", "--limit", "3",
             "--kernel", "native", "--verbose"]
        )
        assert code == 0
        line = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("kernel: ")
        )
        assert line.startswith("kernel: python (")
        assert "native: no C compiler" in line

    def test_cluster_listen_without_workers_rejected(self, capsys):
        code = main(
            ["cluster", "--objects", "8", "--listen", "127.0.0.1:0"]
        )
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_connect_to_unreachable_coordinator_fails(self, capsys):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code = main(
            ["cluster", "--connect", f"127.0.0.1:{port}",
             "--join-timeout", "0.3"]
        )
        assert code == 2
        assert "could not join" in capsys.readouterr().err

    def test_network_statistics(self, capsys):
        code = main(["network", "--objects", "6", "--group-size", "2"])
        assert code == 0
        output = capsys.readouterr().out
        assert "total" in output
        assert "variables" in output

    def test_network_dot(self, capsys):
        code = main(["network", "--objects", "6", "--dot", "--group-size", "2"])
        assert code == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_explain_default_target(self, capsys):
        code = main(["explain", "--objects", "6", "--group-size", "2",
                     "--top", "2"])
        assert code == 0
        assert "influence" in capsys.readouterr().out

    def test_explain_unknown_target(self, capsys):
        code = main(["explain", "--objects", "6", "--group-size", "2",
                     "--target", "NoSuchEvent"])
        assert code == 2

    def test_kernels_reports_tiers(self, capsys):
        code = main(["kernels"])
        assert code == 0
        out = capsys.readouterr().out
        assert "kernel tiers" in out
        for tier in ("native", "python"):
            assert tier in out
        assert "interpreted" not in out and "numba" not in out
        assert "default:" in out

    def test_check_runs_clean_on_this_repo(self, capsys):
        code = main(["check"])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_check_list_rules(self, capsys):
        code = main(["check", "--list"])
        assert code == 0
        out = capsys.readouterr().out
        assert "kernel-hygiene" in out and "trail-discipline" in out
        assert len(out.strip().splitlines()) == 4

    def test_check_inject_violation_fails(self, capsys):
        code = main(["check", "--inject-violation"])
        assert code == 1
        assert "finding(s)" in capsys.readouterr().out
