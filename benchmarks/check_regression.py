"""Gate fresh benchmark JSONs against committed speedup baselines.

Every engine benchmark records its headline speedup ratios as top-level
JSON keys (``min_speedup_*`` / ``max_speedup_*``).  This module compares
a directory of freshly generated ``BENCH_*.json`` files against the
committed baselines and **fails (exit 1) when any recorded speedup
ratio regresses by more than the tolerance band** (default 25%) —
the CI ``bench-regression`` job runs exactly this after regenerating
the ``--smoke`` trajectories.

The baselines are ``benchmarks/baselines/BENCH_*.json``, the only
committed benchmark numbers: smoke-scale trajectories that CI
regenerates on every push.  Smoke sweeps are smaller than the full
ones (which write git-ignored ``BENCH_*.json`` records to the
repository root), so their ratios differ systematically; gating smoke
against smoke keeps the comparison like-for-like.

``--inject-slowdown FACTOR`` divides every fresh ratio by ``FACTOR``
before comparing — a self-test that demonstrates the gate actually
fails on a slowdown (CI runs it with factor 2 and requires the exit
status to be non-zero).

Usage::

    python -m benchmarks.check_regression \\
        --baseline-dir benchmarks/baselines --fresh-dir /tmp/bench
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINES = Path(__file__).resolve().parent / "baselines"
DEFAULT_TOLERANCE = 0.25


def guarded_metrics(payload: dict) -> dict:
    """The speedup ratios a benchmark JSON records at top level.

    Keys containing ``target`` are configuration constants, not
    measurements, and are skipped.
    """
    return {
        key: float(value)
        for key, value in payload.items()
        if "speedup" in key
        and "target" not in key
        and isinstance(value, (int, float))
        and not isinstance(value, bool)
    }


def compare_file(
    baseline_path: Path,
    fresh_path: Path,
    tolerance: float,
    inject: float,
) -> list:
    """Compare one benchmark's ratios; returns a list of result rows."""
    baseline = json.loads(baseline_path.read_text())
    fresh = json.loads(fresh_path.read_text())
    rows = []
    if bool(baseline.get("smoke")) != bool(fresh.get("smoke")):
        rows.append(
            (
                baseline_path.name,
                "(smoke flag)",
                float(bool(baseline.get("smoke"))),
                float(bool(fresh.get("smoke"))),
                0.0,
                False,
                "baseline/fresh sweep scales differ",
            )
        )
        return rows
    for key, base_value in sorted(guarded_metrics(baseline).items()):
        fresh_value = fresh.get(key)
        if not isinstance(fresh_value, (int, float)):
            rows.append(
                (
                    baseline_path.name,
                    key,
                    base_value,
                    float("nan"),
                    0.0,
                    False,
                    "metric missing from fresh run",
                )
            )
            continue
        adjusted = float(fresh_value) / inject
        floor = base_value * (1.0 - tolerance)
        ok = adjusted >= floor
        rows.append(
            (
                baseline_path.name,
                key,
                base_value,
                adjusted,
                adjusted / base_value if base_value else float("inf"),
                ok,
                "" if ok else f"below floor {floor:.2f}",
            )
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=DEFAULT_BASELINES,
        help="directory holding the committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--fresh-dir",
        type=Path,
        required=True,
        help="directory holding the freshly generated BENCH_*.json files",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional slowdown of any speedup ratio "
        "(default 0.25 = fail on >25%% regression)",
    )
    parser.add_argument(
        "--inject-slowdown",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="divide fresh ratios by FACTOR first (gate self-test: "
        "an injected 2x slowdown must make this command fail)",
    )
    args = parser.parse_args(argv)

    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(
            f"no BENCH_*.json baselines under {args.baseline_dir}",
            file=sys.stderr,
        )
        return 2

    all_rows = []
    for baseline_path in baselines:
        fresh_path = args.fresh_dir / baseline_path.name
        if not fresh_path.exists():
            all_rows.append(
                (
                    baseline_path.name,
                    "(file)",
                    float("nan"),
                    float("nan"),
                    0.0,
                    False,
                    f"missing {fresh_path}",
                )
            )
            continue
        all_rows.extend(
            compare_file(
                baseline_path,
                fresh_path,
                args.tolerance,
                args.inject_slowdown,
            )
        )

    print(
        f"{'file':<22} {'metric':<34} {'baseline':>9} {'fresh':>9} "
        f"{'ratio':>7}  status"
    )
    failures = 0
    for name, key, base, fresh, ratio, ok, note in all_rows:
        status = "ok" if ok else f"FAIL ({note})"
        failures += 0 if ok else 1
        print(
            f"{name:<22} {key:<34} {base:>9.2f} {fresh:>9.2f} "
            f"{ratio:>6.2f}x  {status}"
        )
    if args.inject_slowdown != 1.0:
        print(
            f"\n(injected {args.inject_slowdown}x slowdown on the fresh "
            "ratios before comparing)"
        )
    if failures:
        print(
            f"\n{failures} speedup ratio(s) regressed beyond "
            f"{args.tolerance:.0%}"
        )
        return 1
    print(f"\nall speedup ratios within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
