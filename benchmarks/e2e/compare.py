"""Do two sets of runs agree?

    python -m benchmarks.e2e.compare --base 'results/A-*.json' \\
        --new 'results/B-*.json'

Per workload and end-to-end metric: each side's median and quartiles
and a verdict against the metric's bound — ``ok``, ``regressed``, or
``unresolved`` when either side's own quartile spread exceeds the bound
(unless every new run beats every base run).  Any failed op is
``regressed``.  Exit status 1 unless every row is ``ok``.  There is no
combined score: a regression on one workload is not bought back on
another.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import metrics as M  # noqa: E402


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median, third quartile, as the driver takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    first, median, third = quartiles(values)
    return (third - first) / median if median else float("inf")


def verdict(
    base: Sequence[float],
    new: Sequence[float],
    bound: float,
    better: str = "lower",
    failed: int = 0,
) -> str:
    """``ok``, ``regressed`` or ``unresolved`` for one metric on one workload."""
    if failed:
        return "regressed"
    sign = 1.0 if better == "lower" else -1.0
    base_median = quartiles(base)[1]
    new_median = quartiles(new)[1]
    if max(spread(base), spread(new)) > bound:
        every_new_beats_every_base = max(sign * v for v in new) < min(
            sign * v for v in base
        )
        return "ok" if every_new_beats_every_base else "unresolved"
    worse_by = sign * (new_median - base_median) / abs(base_median)
    return "regressed" if worse_by > bound else "ok"


def load(patterns: Sequence[str]) -> Dict[str, List[dict]]:
    """Untraced results files by workload."""
    runs: Dict[str, List[dict]] = {}
    for pattern in patterns:
        for path in sorted(glob.glob(pattern)):
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            detail = document.get("detail", {})
            if detail.get("trace") == 0:
                runs.setdefault(detail["workload"], []).append(document)
    return runs


def calibration_row(runs: Sequence[dict]) -> str:
    py = statistics.median(r["detail"]["calibration_ms"]["py"] for r in runs)
    np = statistics.median(r["detail"]["calibration_ms"]["np"] for r in runs)
    return f"calib_py {py:.3f} ms, calib_np {np:.3f} ms"


def compare(base: Dict[str, List[dict]], new: Dict[str, List[dict]]) -> int:
    status = 0
    header = (f"{'workload':<13} {'metric':<12} {'base q1/med/q3':<28} "
              f"{'new q1/med/q3':<28} {'change':>8} {'bound':>6}  verdict")
    print(header)
    for workload in M.workload_names():
        if workload not in base or workload not in new:
            print(f"{workload:<13} missing on "
                  f"{'base' if workload not in base else 'new'} side")
            status = 1
            continue
        failed = sum(run["failed"] for run in base[workload] + new[workload])
        for metric in M.END_TO_END:
            sides = [
                [run["metrics"][metric.name]["value"] for run in runs[workload]]
                for runs in (base, new)
            ]
            outcome = verdict(sides[0], sides[1], metric.bound, metric.better,
                              failed)
            cells = ["/".join(f"{q:.4g}" for q in quartiles(side))
                     for side in sides]
            change = quartiles(sides[1])[1] / quartiles(sides[0])[1] - 1.0
            print(f"{workload:<13} {metric.name:<12} {cells[0]:<28} "
                  f"{cells[1]:<28} {change:>+8.1%} {metric.bound:>6.0%}  {outcome}")
            if outcome != "ok":
                status = 1
        print(f"{'':<13} base: {calibration_row(base[workload])} "
              f"(n={len(base[workload])});  new: "
              f"{calibration_row(new[workload])} (n={len(new[workload])})")
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True,
                        help="results files (or globs) of the first set")
    parser.add_argument("--new", nargs="+", required=True,
                        help="results files (or globs) of the second set")
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    if not base or not new:
        print("compare: no untraced results files matched", file=sys.stderr)
        return 2
    return compare(base, new)


if __name__ == "__main__":
    sys.exit(main())
