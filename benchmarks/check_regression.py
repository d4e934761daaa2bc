"""Bench-regression gate: fresh results vs. the committed baselines.

CI copies the committed ``benchmarks/results/`` aside, re-runs the
benchmarks, then calls::

    python benchmarks/check_regression.py \
        --fresh benchmarks/results --baseline /tmp/bench-baseline

Each ``BENCH_*.json`` the gate understands is compared metric by
metric; a check fails when fresh/baseline drops below the threshold
(default 0.90 — the same slack the service-throughput bench grants
itself against its hard-coded baselines).  The gate mirrors, in CI,
what the plan-regression detector does online: compare the measured
performance of the new code ("plan") against the recorded performance
of the old one and refuse silent slowdowns.

Exit status is 0 when every check passes, 1 otherwise.  Unknown
``BENCH_*.json`` files are ignored; a baseline file without a fresh
counterpart fails (the benchmark silently disappeared).
"""

import argparse
import json
import os
import sys


def load(path):
    with open(path) as handle:
        return json.load(handle)


class Gate:
    def __init__(self, threshold):
        self.threshold = threshold
        self.rows = []
        self.failed = False

    def check(self, bench, metric, fresh, baseline):
        """Record ``fresh/baseline`` and fail when it sags below the
        threshold.  ``baseline <= 0`` never fails: the ratio would be
        meaningless and a zero baseline carries no speed claim."""
        if baseline > 0:
            ratio = fresh / baseline
            ok = ratio >= self.threshold
        else:
            ratio = float("inf")
            ok = True
        self.note(bench, metric, f"{fresh:g}", f"{baseline:g}", ratio, ok)

    def absolute(self, bench, metric, value, floor):
        self.note(
            bench, metric, f"{value:g}", f">= {floor:g}", value, value >= floor
        )

    def boolean(self, bench, metric, value):
        self.note(bench, metric, str(bool(value)), "True", None, bool(value))

    def note(self, bench, metric, fresh, baseline, ratio, ok):
        self.rows.append(
            (
                bench,
                metric,
                fresh,
                baseline,
                "-" if ratio is None else f"{ratio:.3f}",
                "ok" if ok else "FAIL",
            )
        )
        if not ok:
            self.failed = True

    def render(self):
        headers = ("benchmark", "metric", "fresh", "baseline", "ratio", "")
        rows = [headers] + [tuple(row) for row in self.rows]
        widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
        lines = []
        for index, row in enumerate(rows):
            lines.append(
                "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
                .rstrip()
            )
            if index == 0:
                lines.append("  ".join("-" * w for w in widths).rstrip())
        return "\n".join(lines)


def check_service_throughput(gate, fresh, baseline):
    def by_key(doc):
        return {
            (m["query"], m["mode"]): m for m in doc.get("measurements", [])
        }

    fresh_rows, base_rows = by_key(fresh), by_key(baseline)
    for key, base in sorted(base_rows.items()):
        label = "qps[{}/{}]".format(*key)
        row = fresh_rows.get(key)
        if row is None:
            gate.note("service_throughput", label, "missing", "-", None, False)
            continue
        gate.check("service_throughput", label, row["qps"], base["qps"])


def check_strategy_time(gate, fresh, baseline):
    def advantages(doc):
        out = {}
        for comparison in doc.get("comparisons", []):
            controlled = comparison["controlled"]["elapsed_ms"]
            exhaustive = comparison["exhaustive"]["elapsed_ms"]
            if controlled > 0:
                out[comparison["query"]] = exhaustive / controlled
        return out

    fresh_adv, base_adv = advantages(fresh), advantages(baseline)
    for query, base in sorted(base_adv.items()):
        label = f"speedup[{query}]"
        if query not in fresh_adv:
            gate.note("claim_strategy_time", label, "missing", "-", None, False)
            continue
        gate.check("claim_strategy_time", label, fresh_adv[query], base)


def check_feedback_calibration(gate, fresh, baseline):
    base_rows = {r["workload"]: r for r in baseline.get("calibration", [])}
    fresh_rows = {r["workload"]: r for r in fresh.get("calibration", [])}
    for workload, base in sorted(base_rows.items()):
        row = fresh_rows.get(workload)
        if row is None:
            gate.note(
                "feedback_calibration",
                f"improvement[{workload}]",
                "missing",
                "-",
                None,
                False,
            )
            continue
        for metric in ("operator_improvement", "cost_improvement"):
            gate.check(
                "feedback_calibration",
                f"{metric}[{workload}]",
                row[metric],
                base[metric],
            )
    regression = fresh.get("regression", {})
    gate.absolute(
        "feedback_calibration",
        "regressions detected",
        regression.get("detected", 0),
        1,
    )
    gate.boolean(
        "feedback_calibration",
        "reverted by pin",
        regression.get("reverted_by_pin"),
    )
    guard = fresh.get("throughput_guard", {})
    gate.absolute(
        "feedback_calibration",
        "feedback-off/on qps",
        guard.get("disabled_over_enabled", 0.0),
        gate.threshold,
    )


def check_distributed_fixpoint(gate, fresh, baseline):
    floor = fresh.get("required_speedup@4", 1.5)
    gate.absolute(
        "distributed_fixpoint",
        "speedup@4 claim",
        fresh.get("speedup@4", 0.0),
        floor,
    )
    gate.absolute(
        "distributed_fixpoint",
        "obs on/off throughput",
        fresh.get("obs_throughput_ratio", 0.0),
        fresh.get("required_obs_ratio", 0.95),
    )
    for metric in ("speedup@2", "speedup@4"):
        gate.check(
            "distributed_fixpoint",
            metric,
            fresh.get(metric, 0.0),
            baseline.get(metric, 0.0),
        )


def check_batch_execution(gate, fresh, baseline):
    floor = fresh.get("required_spj_speedup", 2.0)
    gate.absolute(
        "batch_execution",
        "spj batched/tuple-at-a-time claim",
        fresh.get("spj_speedup@batched", 0.0),
        floor,
    )
    for metric in ("spj_speedup@batched", "contains_speedup@1024"):
        gate.check(
            "batch_execution",
            metric,
            fresh.get(metric, 0.0),
            baseline.get(metric, 0.0),
        )


def check_enumeration(gate, fresh, baseline):
    def by_key(doc):
        return {
            (m["query"], m["config"]): m
            for m in doc.get("measurements", [])
        }

    fresh_rows, base_rows = by_key(fresh), by_key(baseline)
    for key, row in sorted(fresh_rows.items()):
        label = "{}/{}".format(*key)
        # The tentpole claims, re-checked from the committed JSON: the
        # enum plan costs no more than the best randomized plan
        # (cost_advantage = best_randomized/enum >= 1, with float
        # rounding slack), within the optimization-time budget
        # (time_budget_factor = required_factor*ii_median/enum >= 1).
        gate.absolute(
            "enumeration",
            f"cost advantage[{label}]",
            row["cost_advantage"],
            0.999,
        )
        gate.absolute(
            "enumeration",
            f"time budget[{label}]",
            row["time_budget_factor"],
            1.0,
        )
    for key, base in sorted(base_rows.items()):
        label = "{}/{}".format(*key)
        row = fresh_rows.get(key)
        if row is None:
            gate.note("enumeration", label, "missing", "-", None, False)
            continue
        # Plan quality must not silently drift relative to the
        # committed baseline (lower cost is better: baseline/fresh).
        gate.check(
            "enumeration",
            f"plan quality[{label}]",
            base["enum_cost"],
            row["enum_cost"],
        )


CHECKERS = {
    "BENCH_enumeration.json": check_enumeration,
    "BENCH_service_throughput.json": check_service_throughput,
    "BENCH_claim_strategy_time.json": check_strategy_time,
    "BENCH_feedback_calibration.json": check_feedback_calibration,
    "BENCH_distributed_fixpoint.json": check_distributed_fixpoint,
    "BENCH_batch_execution.json": check_batch_execution,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh",
        default="benchmarks/results",
        help="directory with freshly produced BENCH_*.json files",
    )
    parser.add_argument(
        "--baseline",
        required=True,
        help="directory with the committed baseline BENCH_*.json files",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.90,
        help="minimum fresh/baseline ratio (default 0.90)",
    )
    args = parser.parse_args(argv)

    gate = Gate(args.threshold)
    for name, checker in sorted(CHECKERS.items()):
        baseline_path = os.path.join(args.baseline, name)
        fresh_path = os.path.join(args.fresh, name)
        if not os.path.exists(baseline_path):
            continue  # benchmark newer than the baseline snapshot
        if not os.path.exists(fresh_path):
            gate.note(name, "fresh results", "missing", "-", None, False)
            continue
        checker(gate, load(fresh_path), load(baseline_path))

    if not gate.rows:
        print("no benchmark baselines found under", args.baseline)
        return 1
    print(gate.render())
    if gate.failed:
        print("\nbench-regression gate FAILED "
              f"(threshold {args.threshold:.2f})")
        return 1
    print(f"\nbench-regression gate passed (threshold {args.threshold:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
