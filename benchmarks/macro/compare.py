"""Compare two macro-benchmark result files under the benchmark's bounds.

    python benchmarks/macro/compare.py A.json B.json

A is the base (the parent commit), B the change.  Each file is what
``run.py --out`` writes -- ``{"runs": [...]}``; build a side from
several runs with ``run.py --out A.json --append``.  One row per
(end-to-end metric, workload): both medians, the ratio B/A with its
base, and a verdict:

``regressed``   B's median is worse than A's by more than the bound in
                ``BENCHMARK.json``;
``unresolved``  the run-to-run spread (quartile distance over median,
                either side) is wider than the bound, so the runs
                cannot tell -- unless every run of B reads better than
                every run of A;
``improved``    B is better by more than the bound and the spread;
``unchanged``   otherwise.

Exits non-zero on any ``regressed`` row or a larger failed fraction.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.normpath(os.path.join(HERE, "..", "..", "BENCHMARK.json"))


def load_runs(path: str) -> List[dict]:
    with open(path) as handle:
        return json.load(handle)["runs"]


def values_of(runs: List[dict], workload: str, metric: str) -> List[float]:
    return [
        run["workloads"][workload]["end_to_end"][metric]["value"]
        for run in runs
        if metric in run["workloads"].get(workload, {}).get("end_to_end", {})
    ]


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median (0 for one run)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    first, _second, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(median)


def verdict(
    base: List[float], new: List[float], better: str, bound: float
) -> Dict[str, object]:
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    # Positive = worse, as a share of the base median.
    worse_by = sign * (new_median - base_median) / abs(base_median)
    noise = max(spread(base), spread(new))
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    if noise > bound and not all_better:
        word = "unresolved"
    elif worse_by > bound:
        word = "regressed"
    elif -worse_by > max(bound, noise):
        word = "improved"
    else:
        word = "unchanged"
    return {
        "base": base_median,
        "new": new_median,
        "ratio": new_median / base_median,
        "spread": noise,
        "verdict": word,
    }


def failed_fraction(runs: List[dict], workload: str) -> float:
    records = [run["workloads"][workload] for run in runs if workload in run["workloads"]]
    attempted = sum(record["attempted"] for record in records)
    return sum(record["failed"] for record in records) / attempted if attempted else 0.0


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    base_runs, new_runs = load_runs(argv[1]), load_runs(argv[2])
    with open(BENCHMARK_JSON) as handle:
        benchmark = json.load(handle)
    status = 0
    print(f"{'workload':<18} {'metric':<24} {'base':>12} {'new':>12} "
          f"{'new/base':>9} {'spread':>7} {'bound':>6}  verdict")
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            base = values_of(base_runs, workload, metric["name"])
            new = values_of(new_runs, workload, metric["name"])
            if not base or not new:
                continue
            row = verdict(base, new, metric["better"], metric["bound"])
            print(
                f"{workload:<18} {metric['name']:<24} {row['base']:>12.6g} "
                f"{row['new']:>12.6g} {row['ratio']:>9.4f} {row['spread']:>7.4f} "
                f"{metric['bound']:>6}  {row['verdict']}"
            )
            if row["verdict"] == "regressed":
                status = 1
        before, after = failed_fraction(base_runs, workload), failed_fraction(new_runs, workload)
        if after > before:
            print(f"{workload:<18} failed fraction rose from {before:.6g} to {after:.6g}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
