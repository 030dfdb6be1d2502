"""Unit tests for the masked-sweep kernel tiers (:mod:`repro.engine.kernels`)."""

import shutil
import warnings

import numpy as np
import pytest

from repro.compile.compiler import compile_network, make_evaluator
import repro.engine.kernels as kernels_module
from repro.engine.kernels import (
    BACKEND_ERRORS,
    KERNEL_NAMES,
    KERNEL_TIER_CODES,
    KernelMaskedEvaluator,
    available_kernels,
    default_kernel,
    get_backend,
    kernel_status,
    make_masked_evaluator,
)
from repro.engine.masked import MaskedEvaluator
from repro.engine.registry import available_schemes, run_scheme
from repro.events.expressions import (
    TRUE,
    atom,
    cdist,
    conj,
    cpow,
    csum,
    disj,
    guard,
    negate,
    var,
)
from repro.network.build import build_targets

from ..conftest import make_pool, require_native, source_backend
from ..property.test_masked_vs_scalar import _states_equal


def _scalar_network():
    return build_targets(
        {
            "b": disj([conj([var(0), var(1)]), negate(var(2))]),
            "n": atom(
                "<=",
                csum([guard(var(0), 1.0), guard(var(1), 2.0)]),
                guard(disj([var(1), var(2)]), 2.5),
            ),
        }
    )


def _vector_network():
    # A distance atom over 2-d points: the k-medoids/k-means shape,
    # lowered to scalar lanes for every tier.
    centroid = csum([guard(var(0), [1.0, 0.0]), guard(var(1), [0.0, 1.0])])
    return build_targets(
        {"v": atom("<=", cdist(guard(TRUE, [0.5, 0.5]), centroid), guard(TRUE, 1.0))}
    )


LIVE_TIERS = tuple(
    name for name in available_kernels() if name not in ("auto", "python")
)


def _assert_walk_matches_python(network, candidate, variables):
    """Every assignment of the first variables: same node states."""
    oracle = MaskedEvaluator(network)
    nodes = range(len(network.nodes))
    for mask in range(1 << variables):
        for index in range(variables):
            value = bool(mask >> index & 1)
            oracle.push(index, value)
            candidate.push(index, value)
            for node_id in nodes:
                assert _states_equal(
                    oracle.node_state(node_id), candidate.node_state(node_id)
                ), (mask, index, node_id)
        assert candidate.evals == oracle.evals
        oracle.rewind_to(0)
        candidate.rewind_to(0)


class TestBackendSelection:
    def test_always_available_tiers(self):
        kernels = available_kernels()
        assert "auto" in kernels
        assert "python" in kernels
        # The kernel source is the generator's input, never a tier;
        # two rungs, and numba (measurable by nobody) is not one.
        assert KERNEL_NAMES == ("auto", "native", "python")

    def test_python_tier_has_no_backend(self):
        assert get_backend("python") is None

    def test_unknown_tier_rejected(self):
        # never a tier; no longer one (x2)
        for name in ("fortran", "interpreted", "numba"):
            with pytest.raises(ValueError, match="unknown kernel"):
                get_backend(name)
            with pytest.raises(ValueError, match="unknown kernel"):
                make_masked_evaluator(_scalar_network(), kernel=name)

    def test_unavailable_tiers_record_their_reason(self):
        # A compiled tier missing on this host must say why instead of
        # silently degrading.
        if get_backend("native") is None:
            assert "native" in BACKEND_ERRORS, BACKEND_ERRORS

    def test_auto_resolves_to_a_concrete_tier(self):
        backend = get_backend("auto")
        if backend is not None:
            assert backend.name == "native"

    def test_default_kernel_honours_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "python")
        assert default_kernel() == "python"
        monkeypatch.delenv("REPRO_KERNEL")
        assert default_kernel() == "auto"

    def test_a_removed_tier_name_is_an_unknown_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "interpreted")
        monkeypatch.setattr(kernels_module, "_warned_unknown_kernel", False)
        with pytest.warns(RuntimeWarning, match="interpreted"):
            assert default_kernel() == "auto"
        assert kernel_status()["env_valid"] is False

    def test_default_kernel_warns_on_unknown_name(self, monkeypatch):
        # A typo'd REPRO_KERNEL falls back to auto but must say so once
        # instead of silently benchmarking the wrong tier.
        monkeypatch.setenv("REPRO_KERNEL", "not-a-tier")
        monkeypatch.setattr(kernels_module, "_warned_unknown_kernel", False)
        with pytest.warns(RuntimeWarning, match="not-a-tier"):
            assert default_kernel() == "auto"
        # Warned once per process: the second call stays quiet.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert default_kernel() == "auto"

    def test_kernel_status_reports_every_tier(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        status = kernel_status()
        assert set(status["tiers"]) == {"native", "python"}
        assert status["tiers"]["python"]["live"] is True
        for name, tier in status["tiers"].items():
            if not tier["live"] and name != "python":
                assert tier["error"], f"dead tier {name} must carry a reason"
        assert status["default"] == "auto"
        backend = get_backend("auto")
        assert status["auto"] == (backend.name if backend else "python")
        assert status["env"] is None and status["env_valid"] is True
        live = {n for n, t in status["tiers"].items() if t["live"]}
        assert live | {"auto"} >= set(available_kernels())

    def test_kernel_status_flags_invalid_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "numa")
        monkeypatch.setattr(kernels_module, "_warned_unknown_kernel", True)
        status = kernel_status()
        assert status["env"] == "numa"
        assert status["env_valid"] is False
        assert status["default"] == "auto"

    def test_kernel_cflags_key_the_native_build_cache(self, monkeypatch,
                                                      tmp_path):
        # The ASan/UBSan CI leg injects flags via REPRO_KERNEL_CFLAGS;
        # sanitized and plain builds must land in distinct cache slots.
        if get_backend("native") is None:
            pytest.skip("no C compiler on this host")
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        monkeypatch.setenv("REPRO_KERNEL_CFLAGS", "-O1 -g")
        assert kernels_module._build_native_library() is not None
        assert len(list(tmp_path.glob("*.so"))) == 1
        monkeypatch.setenv("REPRO_KERNEL_CFLAGS", "")
        assert kernels_module._build_native_library() is not None
        assert len(list(tmp_path.glob("*.so"))) == 2

    def test_failed_compile_records_the_compilers_stderr(self, monkeypatch,
                                                         tmp_path):
        # The compiler's own message is the one thing that explains a
        # rejected tier under `repro kernels` / `--verbose`.
        stub = tmp_path / "stub-cc"
        stub.write_text(
            "#!/bin/sh\necho 'stub-cc: fatal: rejected on purpose' >&2\nexit 1\n"
        )
        stub.chmod(0o755)
        monkeypatch.setenv("CC", str(stub))
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "cache"))
        monkeypatch.setattr(kernels_module, "_BACKEND_CACHE", {})
        monkeypatch.setattr(kernels_module, "BACKEND_ERRORS", {})
        assert get_backend("native") is None
        reason = kernels_module.BACKEND_ERRORS["native"]
        assert "exited 1" in reason
        assert "stub-cc: fatal: rejected on purpose" in reason

    def test_cc_is_a_command_line(self, monkeypatch, tmp_path):
        # CC="ccache gcc" / "gcc -m64": split like REPRO_KERNEL_CFLAGS,
        # not looked up as one file name (and silently replaced by gcc).
        require_native()
        real = shutil.which("cc") or shutil.which("gcc")
        seen = tmp_path / "first-argument"
        wrapper = tmp_path / "wrap"
        wrapper.write_text(
            f'#!/bin/sh\necho "$1" > {seen}\nshift\nexec {real} "$@"\n'
        )
        wrapper.chmod(0o755)
        monkeypatch.setenv("CC", f"{wrapper} --via-wrapper")
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "cache"))
        assert kernels_module._build_native_library() is not None
        assert seen.read_text().strip() == "--via-wrapper"

    def test_tier_codes_cover_every_concrete_tier(self):
        # result.extra carries floats, so tiers are coded; every name a
        # KernelMaskedEvaluator can report must have a code, and nothing
        # else has one (bulk results carry no tier).
        assert set(KERNEL_TIER_CODES) == set(KERNEL_NAMES) - {"auto"}


class TestEvaluatorConstruction:
    def test_python_kernel_returns_plain_evaluator(self):
        evaluator = make_masked_evaluator(_scalar_network(), kernel="python")
        assert type(evaluator) is MaskedEvaluator
        assert evaluator.kernel == "python"

    def test_native_kernel_returns_kernel_evaluator(self):
        require_native()
        evaluator = make_masked_evaluator(_scalar_network(), kernel="native")
        assert isinstance(evaluator, KernelMaskedEvaluator)
        assert evaluator.kernel == "native"

    @pytest.mark.parametrize("tier", LIVE_TIERS)
    def test_vector_networks_run_compiled(self, tier):
        network = _vector_network()
        evaluator = make_masked_evaluator(network, kernel=tier)
        assert isinstance(evaluator, KernelMaskedEvaluator)
        assert evaluator.kernel == tier
        # Two lanes per vector vertex, one row per Boolean/scalar one.
        assert len(evaluator._prog) > len(network.nodes)
        _assert_walk_matches_python(network, evaluator, variables=2)

    @pytest.mark.parametrize("tier", LIVE_TIERS)
    def test_negative_exponent_runs_compiled(self, tier):
        network = build_targets(
            {
                "p": atom(
                    "<=",
                    cpow(csum([guard(TRUE, 2.0), guard(var(0), 1.0)]), -1),
                    guard(TRUE, 0.5),
                )
            }
        )
        evaluator = make_masked_evaluator(network, kernel=tier)
        assert isinstance(evaluator, KernelMaskedEvaluator)
        # POW(x, -1) is lowered to INV(POW(x, 1)): one extra vertex and
        # no negative exponent left for the sweeps to see.
        program = evaluator._prog
        assert len(program) == len(network.nodes) + 1
        assert (program.pow_exponent >= 0).all()
        _assert_walk_matches_python(network, evaluator, variables=1)
        pool = make_pool([0.5])
        result = compile_network(network, pool, kernel=tier)
        expected = compile_network(network, pool, engine="scalar")
        assert result.bounds["p"] == pytest.approx(expected.bounds["p"])

    def test_python_tier_only_without_a_live_backend(self, monkeypatch):
        # The fallback is about the process (no compiler), never about
        # the network.
        monkeypatch.setattr(kernels_module, "get_backend", lambda name: None)
        for network in (_scalar_network(), _vector_network()):
            evaluator = make_masked_evaluator(network, kernel="native")
            assert type(evaluator) is MaskedEvaluator

    @pytest.mark.parametrize("tier", LIVE_TIERS)
    def test_baseline_sweep_runs_through_the_backend(self, tier):
        # Same baseline columns and the same evaluation count as the
        # Python tier's construction-time loop.
        for network in (_scalar_network(), _vector_network()):
            oracle = MaskedEvaluator(network)
            candidate = make_masked_evaluator(network, kernel=tier)
            assert candidate.evals == oracle.evals == len(candidate._prog)
            np.testing.assert_array_equal(candidate.bstate, oracle.bstate)
            np.testing.assert_array_equal(candidate.lo, oracle.lo)
            np.testing.assert_array_equal(candidate.hi, oracle.hi)
            np.testing.assert_array_equal(
                candidate.resolved_mask, oracle.resolved_mask
            )
            assert not candidate._dirty.any()

    def test_self_validation_covers_the_vector_dist_branch(self):
        # A sweep that gets only the n-ary lane DIST wrong (squared
        # instead of euclidean) must be rejected by the canned walk.
        def wrong_metric(seeds, cone, assign, kinds, var_index, atom_op,
                         pow_exp, metric, *rest):
            return kernels_module._masked_sweep(
                seeds, cone, assign, kinds, var_index, atom_op, pow_exp,
                np.ones_like(metric), *rest
            )

        broken = kernels_module._Backend(
            "broken",
            sweep_py=wrong_metric,
            block_py=kernels_module._world_block,
        )
        assert not kernels_module._validate_backend(broken)
        assert kernels_module._validate_backend(source_backend())

    def test_self_validation_covers_the_world_block(self):
        # A world block that gets one comparison wrong in one world must
        # get the tier rejected, however right its cone sweep is.
        def one_world_off(var_words, roots, out, *rest):
            swept = kernels_module._world_block(var_words, roots, out, *rest)
            out[0] ^= np.uint64(1 << 5)
            return swept

        broken = kernels_module._Backend(
            "broken",
            sweep_py=kernels_module._masked_sweep,
            block_py=one_world_off,
        )
        assert not kernels_module._validate_backend(broken)

    def test_engine_string_carries_the_tier(self):
        require_native()
        network = _scalar_network()
        evaluator = make_evaluator(network, engine="masked:native")
        assert isinstance(evaluator, KernelMaskedEvaluator)
        assert evaluator.kernel == "native"
        plain = make_evaluator(network, engine="masked:python")
        assert type(plain) is MaskedEvaluator

    def test_explicit_kernel_argument_matches_suffix(self):
        require_native()
        network = _scalar_network()
        by_arg = make_evaluator(network, engine="masked", kernel="native")
        assert isinstance(by_arg, KernelMaskedEvaluator)

    def test_columns_are_arrays(self):
        require_native()
        evaluator = make_masked_evaluator(_scalar_network(), kernel="native")
        assert isinstance(evaluator, KernelMaskedEvaluator)
        assert isinstance(evaluator._b, np.ndarray)
        assert evaluator._b.dtype == np.int8
        assert evaluator._lo.dtype == np.float64
        assert evaluator._resolved.dtype == np.uint8


class TestResultReporting:
    def test_compile_records_kernel_tier(self):
        require_native()
        network = _scalar_network()
        pool = make_pool([0.5, 0.4, 0.6])
        result = compile_network(network, pool, kernel="native")
        assert result.extra["kernel_tier"] == KERNEL_TIER_CODES["native"]
        python = compile_network(network, pool, kernel="python")
        assert python.extra["kernel_tier"] == KERNEL_TIER_CODES["python"]

    def test_tiers_agree_on_bounds(self):
        network = _scalar_network()
        pool = make_pool([0.5, 0.4, 0.6])
        results = [
            compile_network(network, pool, kernel=kernel)
            for kernel in ("python", "auto")
        ]
        for name in network.targets:
            assert results[0].bounds[name] == pytest.approx(
                results[1].bounds[name], abs=1e-12
            )


class TestRegistryIntegration:
    def test_kernel_capable_schemes(self):
        schemes = available_schemes("kernel")
        for name in ("exact", "lazy", "eager", "hybrid", "naive", "montecarlo"):
            assert name in schemes
        # The scalar oracles predate (and bypass) the kernel seam.
        assert "naive-scalar" not in schemes

    def test_packed_capable_schemes(self):
        # Packing is no longer a property of a scheme: every bulk scheme
        # runs the world block when a compiled tier is live.
        with pytest.raises(ValueError, match="unknown capability"):
            available_schemes("packed")
        assert set(available_schemes("bulk")) == {"naive", "montecarlo"}

    def test_run_scheme_validates_kernel(self):
        network = _scalar_network()
        pool = make_pool([0.5, 0.4, 0.6])
        with pytest.raises(ValueError, match="unknown kernel"):
            run_scheme("exact", network, pool, kernel="fortran")

    def test_run_scheme_drops_kernel_for_non_capable_schemes(self):
        network = _scalar_network()
        pool = make_pool([0.5, 0.4, 0.6])
        # The scalar oracle has no kernel seam; the option must be
        # normalised away, not rejected.
        result = run_scheme("naive-scalar", network, pool, kernel="native")
        exact = run_scheme("exact", network, pool, kernel="native")
        for name in network.targets:
            assert result.bounds[name][0] == pytest.approx(
                exact.bounds[name][0], abs=1e-9
            )
