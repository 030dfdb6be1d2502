"""The native tier's C is generated from the Python kernels: tests of
the emitter (:mod:`repro.engine.cgen`) and of what it is fed.

* differential — the built native backend against the kernel *source*
  run as plain Python (``conftest.source_backend``, a test-local
  backend, not a tier): every state column, the trail buffers in
  emission order and ``evals``, bit for bit, on random push/pop walks
  over flat, folded and vector-lane networks; packed segments at
  63/64/65 worlds;
* construction — edit one statement of the Python text and the emitted
  C changes with it and still matches the edited Python, including the
  edits a statement-stream comparison of two hand-written twins could
  not see (``== 0`` flipped to ``!= 0``, a loop header, a local rename);
* rejection — every construct outside the subset, or that C would read
  differently, raises :class:`KernelSourceError` with the right line.
"""

from __future__ import annotations

import ctypes
import inspect
import os
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest

from repro.engine import cgen, kernels
from repro.engine.kernels import KernelMaskedEvaluator
from repro.engine.packed import n_words, tail_mask
from repro.network.build import build_targets

from ..conftest import require_native, source_backend
from ..property.test_folded_bulk_vs_scalar import _random_folded_instance
from ..property.test_masked_vs_scalar import _random_instance, _random_walk
from ..property.test_vector_lowering import (
    _folded_vector_instance,
    _vector_instance,
)

COLUMNS = ("_b", "_lo", "_hi", "_mu", "_md", "_resolved", "_dirty", "_assign")
TRAIL = ("tag", "vid", "b", "lo", "hi", "mu", "md")
KERNEL_TEXT = inspect.getsource(kernels._masked_sweep) + inspect.getsource(
    kernels._packed_segments
)


def _bits(array) -> bytes:
    # Raw bytes: NaN payloads and the sign of zero count.
    return np.ascontiguousarray(array).tobytes()


def assert_bitwise_identical(reference, candidate):
    for name in COLUMNS:
        assert _bits(getattr(candidate, name)) == _bits(getattr(reference, name)), name
    assert candidate.evals == reference.evals
    assert len(candidate._frames) == len(reference._frames)
    for ours, theirs in zip(candidate._frames, reference._frames):
        if isinstance(theirs, kernels._KFrame):
            for name in TRAIL:
                assert _bits(getattr(ours, name)) == _bits(getattr(theirs, name)), name
        else:
            assert ours == theirs == []  # the walk's bare push()


def walk_pair(pool, network, reference_backend, candidate_backend, seed, steps=10):
    reference = KernelMaskedEvaluator(network, reference_backend)
    candidate = KernelMaskedEvaluator(network, candidate_backend)
    assert_bitwise_identical(reference, candidate)  # the baseline sweep
    _random_walk(
        pool, reference, candidate, random.Random(seed + 1),
        lambda: assert_bitwise_identical(reference, candidate), steps=steps,
    )


def _instances(seed):
    pool, events = _random_instance(seed)
    yield pool, build_targets(events)
    yield _random_folded_instance(seed)
    width = (1, 2, 3, 9)[seed % 4]
    pool, events = _vector_instance(seed, width)
    yield pool, build_targets(events)
    yield _folded_vector_instance(seed, width)


# ----------------------------------------------------------------------
# (a) differential: generated C vs the Python it was generated from
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_native_sweep_matches_the_python_source_bit_for_bit(seed):
    native = require_native()
    for pool, network in _instances(seed):
        walk_pair(pool, network, source_backend(), native, seed)


@pytest.mark.parametrize("worlds", [63, 64, 65])
def test_native_packed_segments_match_the_python_source(worlds):
    native = require_native()
    rng = np.random.default_rng(worlds)
    slots, inputs = 12, 4
    base = rng.integers(0, 1 << 63, size=(slots, n_words(worlds)), dtype=np.int64)
    base = base.astype(np.uint64) << np.uint64(1) | np.uint64(1)  # bit 63 too
    base[:, -1] &= tail_mask(worlds)
    ops, out, args = [], [], []
    for slot in range(inputs, slots):
        op = int(rng.integers(0, 3))
        arity = 1 if op == 2 else int(rng.integers(0, 4))  # AND()/OR() included
        ops.append(op)
        out.append(slot)
        args.append([int(a) for a in rng.integers(0, slot, size=arity)])
    arrays = [
        np.asarray(ops, dtype=np.int64),
        np.asarray(out, dtype=np.int64),
        np.cumsum([0] + [len(a) for a in args]).astype(np.int64),
        np.asarray([i for a in args for i in a], dtype=np.int64),
    ]
    ours, theirs = base.copy(), base.copy()
    native.run_packed(*arrays, ours, tail_mask(worlds))
    source_backend().run_packed(*arrays, theirs, tail_mask(worlds))
    assert _bits(ours) == _bits(theirs)
    assert not (ours[:, -1] & ~tail_mask(worlds)).any()  # no ghost bits past W


def test_generated_c_is_clean_under_strict_warnings(tmp_path):
    # What CI's lint job runs before any test: dubious C fails the build.
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        pytest.skip("no C compiler on this host")
    path = tmp_path / "kernels.c"
    path.write_text(kernels._c_source())
    strict = ["-std=c99", "-Wall", "-Wextra", "-Werror", "-fsyntax-only"]
    done = subprocess.run(
        [compiler, *strict, str(path)], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_a_warm_start_never_imports_the_emitter(tmp_path):
    require_native()
    script = (
        "import sys\n"
        "from repro.engine.kernels import BACKEND_ERRORS, get_backend\n"
        "assert get_backend('native') is not None, BACKEND_ERRORS\n"
        "print('repro.engine.cgen' in sys.modules)\n"
    )
    env = dict(os.environ, REPRO_KERNEL_CACHE=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    runs = [
        subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
        for _ in range(2)
    ]
    assert runs == ["True", "False"]  # generated once, then only loaded
    assert len(list(tmp_path.glob("*.so"))) == 1


# ----------------------------------------------------------------------
# (b) construction: the C follows the Python text, edit for edit
# ----------------------------------------------------------------------

MUTATIONS = {
    "comparison flipped": ("if p2 < m:", "if p2 > m:"),
    "zero test flipped": ("if a_md == 0 or always:", "if a_md != 0 or always:"),
    "break dropped": (
        "new = B_FALSE\n                            break",
        "new = B_FALSE",
    ),
    "lo/hi swapped": (
        "lo[vid] = nlo\n                    hi[vid] = nhi",
        "lo[vid] = nhi\n                    hi[vid] = nlo",
    ),
    "loop header edited": (
        "a_md = 0\n                    for e in range(c0, c1):",
        "a_md = 0\n                    for e in range(c0 + 1, c1):",
    ),
    "packed bitwise op dropped": ("acc = ~np.uint64(0)", "acc = np.uint64(0)"),
}


def _emit(text):
    return cgen.emit_c(text, kernels._SIGNATURES, kernels._kernel_constants())


def _backends_from(text, tmp_path):
    """The text run as plain Python, and the C emitted from it, compiled."""
    namespace = dict(vars(kernels))
    exec(compile(text, "<mutant>", "exec"), namespace)
    python = kernels._Backend(
        "mutant-python",
        sweep_py=namespace["_masked_sweep"],
        packed_py=namespace["_packed_segments"],
    )
    so_path = str(tmp_path / "mutant.so")
    kernels._compile_shared(_emit(text), so_path, ["cc"], [])
    return python, kernels._Backend("mutant-c", lib=ctypes.CDLL(so_path))


@pytest.mark.parametrize("label", sorted(MUTATIONS))
def test_an_edit_to_the_python_is_an_edit_to_the_c(label, tmp_path):
    require_native()
    old, new = MUTATIONS[label]
    assert KERNEL_TEXT.count(old) == 1, f"fixture anchor moved: {label}"
    mutated = KERNEL_TEXT.replace(old, new)
    assert _emit(mutated) != _emit(KERNEL_TEXT)
    python, native = _backends_from(mutated, tmp_path)
    for seed in range(4):
        for pool, network in _instances(seed):
            walk_pair(pool, network, python, native, seed, steps=6)
    assert kernels._validate_backend(native) == kernels._validate_backend(python)


def test_a_local_rename_reaches_the_c(tmp_path):
    require_native()
    renamed = KERNEL_TEXT.replace("pending", "outstanding")
    emitted = _emit(renamed)
    assert "outstanding" in emitted and "pending" not in emitted
    python, native = _backends_from(renamed, tmp_path)
    assert kernels._validate_backend(native) and kernels._validate_backend(python)


# ----------------------------------------------------------------------
# (c) rejection and typing
# ----------------------------------------------------------------------

SIGNATURE = {
    "xs": "double *",
    "xs.shape[0]": "int64_t",
    "flags": "const int8_t *",
    "n": "int64_t",
    "return": "int64_t",
}
HEAD = "def f(xs, flags, n):\n    k = n + 1\n"  # the construct lands on line 3

REJECTED = {
    "chained comparison": ("    if 0 <= k < n:\n        return 1\n", 3),
    "floor division": ("    k = n // 2\n", 3),
    "modulo by a variable": ("    k = n % k\n", 3),
    "modulo by a negative literal": ("    k = n % -2\n", 3),
    "integer true division": ("    k = n / 2\n", 3),
    "integer power": ("    k = n ** 2\n", 3),
    "and over integers": ("    k = n and k\n", 3),
    "not of an integer": ("    if not n:\n        return 1\n", 3),
    "while loop": ("    while k < n:\n        k += 1\n", 3),
    "unknown call": ("    k = abs(n)\n", 3),
    "unknown name": ("    k = undefined_thing\n", 3),
    "tuple assignment": ("    k, n = n, k\n", 3),
    "assignment to a parameter": ("    n = 2\n", 3),
    "negative range step": ("    for i in range(n, 0, -1):\n        k += i\n", 3),
    "range over an array": ("    for x in xs:\n        k += 1\n", 3),
    "for-else": (
        "    for i in range(n):\n        k += i\n    else:\n        k = 0\n", 3,
    ),
    "loop variable read after its loop": (
        "    for i in range(n):\n        k += i\n    return i\n", 5,
    ),
    "loop variable assigned": ("    for i in range(n):\n        i = 0\n", 4),
    "float stored into an int array": ("    flags[0] = 0.5\n", 3),
    "float used as an index": ("    k = flags[xs[0]]\n", 3),
    "undeclared shape": ("    k = flags.shape[0]\n", 3),
    "three-dimensional subscript": ("    k = flags[0, 0, 0]\n", 3),
    "uint64 mixed with int64": ("    k = np.uint64(1) & n\n", 3),
    "one local both uint64 and int64": ("    k = np.uint64(1)\n", 3),
    "bare expression": ("    n + 1\n", 3),
    "wrong return arity": ("    return k, n\n", 3),
    "float return value": ("    return xs[0]\n", 3),
}


@pytest.mark.parametrize("label", sorted(REJECTED))
def test_constructs_outside_the_subset_name_their_line(label):
    body, line = REJECTED[label]
    tail = "" if "return" in body.splitlines()[-1] else "    return k\n"
    with pytest.raises(cgen.KernelSourceError) as caught:
        cgen.emit_c(HEAD + body + tail, {"f": SIGNATURE}, {}, "fixture.py")
    assert caught.value.lineno == line, str(caught.value)
    assert str(caught.value).startswith(f"fixture.py:{line}: ")


def test_signature_must_match_the_parameters():
    with pytest.raises(cgen.KernelSourceError, match="signature"):
        cgen.emit_c("def f(a, b):\n    return 0\n", {"f": SIGNATURE}, {})
    with pytest.raises(cgen.KernelSourceError, match="no function"):
        cgen.emit_c("def g():\n    return 0\n", {"f": SIGNATURE}, {})


def test_a_local_gets_the_widest_type_its_assignments_need():
    text = (
        "def f(xs, flags, n):\n"
        "    x = flags[0]\n"  # int8 element ...
        "    for i in range(n):\n"
        "        x = 0.5\n"  # ... and a double: one double local
        "        seen = flags[i] == 1\n"
        "        y = x\n"  # typed through x, whatever the statement order
        "        xs[i] = y\n"
        "    count = 0\n"
        "    count += flags[0]\n"
        "    return count\n"
    )
    emitted = cgen.emit_c(text, {"f": SIGNATURE}, {})
    assert "double x = 0;" in emitted and "double y = 0;" in emitted
    assert "int64_t count = 0;" in emitted and "int64_t seen = 0;" in emitted
    assert "int64_t f(double *xs,\n    int64_t xs_shape0," in emitted


def test_constants_are_inlined_exactly():
    text = (
        "def f(xs, flags, n):\n    xs[0] = THIRD\n    xs[1] = -BIG\n    return FLAG\n"
    )
    constants = {"THIRD": 1.0 / 3.0, "BIG": float("inf"), "FLAG": 7}
    emitted = cgen.emit_c(text, {"f": SIGNATURE}, constants)
    assert (1.0 / 3.0).hex() in emitted  # a hex float: no decimal rounding
    assert "(-INFINITY)" in emitted and "INT64_C(7)" in emitted
