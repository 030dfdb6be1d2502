"""The import contract: lazy package exports, per-subcommand imports.

Every package ``__init__`` resolves its public names on first access
(:mod:`repro._lazy`), so ``import repro`` loads no NumPy and
``repro cluster`` loads only the modules it runs.  CLI processes (and
only they) default the BLAS thread pools to one thread.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[2] / "src"
PACKAGES = ["repro"] + [
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
]
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Modules ``repro cluster`` runs none of.
NOT_ON_CLUSTER_PATH = (
    "repro.lang",
    "repro.compile.distributed",
    "repro.compile.transport",
    "repro.serve",
    "repro.session",
    "repro.mining.kmeans",
    "repro.mining.markov",
    "socket",
)


def run_python(code: str, **env: str) -> dict:
    """Run *code* in a fresh interpreter without any thread-count
    variables; it prints one JSON document as its last line."""
    clean = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    clean["PYTHONPATH"] = str(SRC)
    clean.update(env)
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=clean, check=True, timeout=120,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves_and_is_listed(name):
    package = importlib.import_module(name)
    listed = dir(package)
    for attribute in package.__all__:
        assert getattr(package, attribute) is not None, attribute
        assert attribute in listed, attribute
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(package, "no_such_name")


def test_import_repro_loads_no_numpy_and_sets_nothing():
    report = run_python(
        "import json, os, sys, repro\n"
        "print(json.dumps({'numpy': 'numpy' in sys.modules,\n"
        "                  'env': [k for k in %r if k in os.environ]}))"
        % (BLAS_THREADS,)
    )
    assert report == {"numpy": False, "env": []}


CLUSTER = (
    "import json, os, runpy, sys\n"
    "sys.argv = ['repro', 'cluster', '--objects', '8', '--group-size', '2',\n"
    "            '--limit', '3']\n"
    "try:\n"
    "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n"
    "    assert not exc.code, exc.code\n"
    "print(json.dumps({'modules': sorted(sys.modules),\n"
    "                  'env': {k: os.environ.get(k) for k in %r}}))"
    % (BLAS_THREADS,)
)


def test_cluster_loads_only_what_it_runs():
    report = run_python(CLUSTER)
    loaded = [
        module
        for module in report["modules"]
        if any(
            module == banned or module.startswith(banned + ".")
            for banned in NOT_ON_CLUSTER_PATH
        )
    ]
    assert loaded == []
    assert report["env"] == {name: "1" for name in BLAS_THREADS}


def test_an_exported_thread_count_wins():
    report = run_python(CLUSTER, OMP_NUM_THREADS="3")
    assert report["env"] == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": "1",
    }
