#!/usr/bin/env python3
"""Compare two sets of bench_e2e runs: the parent commit's and a change's.

    compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]
    compare.py --self-test

Each directory holds the per-run files bench_e2e writes
(NAME-seedN-traceT.json). For every (workload, end-to-end metric) pair
it prints both sides' median and quartiles, the parent's spread
(interquartile range over median), the change's pair win-rate and a
verdict, using the bounds in BENCHMARK.json:

  regressed   the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  the parent's own spread is wider than the bound, and not
              every change run reads better than every parent run;
  improved    the change wins at least 9 of 10 pairs (ties count for
              neither side) and the medians differ by more than the
              parent's interquartile range;
  unchanged   otherwise.

Runs pair up by seed when both sides ran the same seeds, else in sorted
order. The exit status is 1 when any pair regressed, when the change's
failed/attempted ratio rose, or when a change run was not correct.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile

DEFAULT_BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "..", "..", "BENCHMARK.json")


def load_runs(directory):
    """Untraced run results in `directory`, keyed by workload."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            try:
                run = json.load(f)
            except json.JSONDecodeError:
                continue
        if not isinstance(run, dict) or "workload" not in run or run.get("trace"):
            continue
        runs.setdefault(run["workload"], []).append(run)
    for workload in runs:
        runs[workload].sort(key=lambda run: run.get("seed", 0))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def pairs(parent, change):
    """(parent value, change value) pairs: by seed when the seed sets
    agree, else positionally."""
    parent_seeds = [run.get("seed") for run in parent]
    change_seeds = [run.get("seed") for run in change]
    if sorted(parent_seeds) == sorted(change_seeds):
        by_seed = {run.get("seed"): run for run in change}
        return [(run, by_seed[run.get("seed")]) for run in parent]
    return list(zip(parent, change))


def verdict(parent_values, change_values, paired, better, bound):
    """Returns (verdict, spread, win_rate)."""
    sign = 1.0 if better == "lower" else -1.0
    parent_median = statistics.median(parent_values)
    change_median = statistics.median(change_values)
    q1, q3 = quartiles(parent_values)
    scale = abs(parent_median) if parent_median else 1.0
    spread = (q3 - q1) / scale
    worse = sign * (change_median - parent_median) / scale
    wins = sum(1 for p, c in paired if sign * (c - p) < 0)
    win_rate = wins / len(paired) if paired else 0.0
    if sign > 0:
        all_better = max(change_values) < min(parent_values)
    else:
        all_better = min(change_values) > max(parent_values)
    if worse > bound:
        return "regressed", spread, win_rate
    if spread > bound and not all_better:
        return "unresolved", spread, win_rate
    if win_rate >= 0.9 and worse < 0 and abs(change_median - parent_median) > q3 - q1:
        return "improved", spread, win_rate
    return "unchanged", spread, win_rate


def failed_ratio(runs):
    attempted = sum(run.get("attempted", 0) for run in runs)
    failed = sum(run.get("failed", 0) for run in runs)
    return failed / attempted if attempted else 0.0


def compare(parent_dir, change_dir, metrics, out=sys.stdout):
    """Prints the comparison table; returns the exit status."""
    parent_runs = load_runs(parent_dir)
    change_runs = load_runs(change_dir)
    status = 0
    header = "%-11s %-22s %12s %25s %12s %25s %7s %5s  %s" % (
        "workload", "metric", "parent", "parent q1..q3", "change",
        "change q1..q3", "spread", "wins", "verdict")
    print(header, file=out)
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        if not parent or not change:
            print("%-11s missing on one side (parent %d runs, change %d runs)"
                  % (workload, len(parent), len(change)), file=out)
            status = 1
            continue
        for metric in metrics:
            name = metric["name"]
            if any(name not in run["metrics"] for run in parent + change):
                continue
            paired = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                      for p, c in pairs(parent, change)]
            parent_values = [run["metrics"][name]["value"] for run in parent]
            change_values = [run["metrics"][name]["value"] for run in change]
            result, spread, win_rate = verdict(parent_values, change_values, paired,
                                               metric["better"], metric["bound"])
            pq1, pq3 = quartiles(parent_values)
            cq1, cq3 = quartiles(change_values)
            print("%-11s %-22s %12.4g %12.4g..%-12.4g %12.4g %12.4g..%-12.4g %7.3f %5.2f  %s"
                  % (workload, name, statistics.median(parent_values), pq1, pq3,
                     statistics.median(change_values), cq1, cq3, spread, win_rate,
                     result), file=out)
            if result == "regressed":
                status = 1
        parent_failed, change_failed = failed_ratio(parent), failed_ratio(change)
        if change_failed > parent_failed:
            print("%-11s failed_ratio rose: %.3g -> %.3g"
                  % (workload, parent_failed, change_failed), file=out)
            status = 1
        if not all(run.get("correct", False) for run in change):
            print("%-11s a change run failed its correctness checks" % workload,
                  file=out)
            status = 1
    return status


# --- Self-test -----------------------------------------------------------

SELF_TEST_METRICS = [
    {"name": "dops_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
    {"name": "dop_p50_us", "unit": "us", "better": "lower", "bound": 0.10},
]


def write_runs(directory, workload, rows, failed=0):
    """One run file per (dops_per_s, dop_p50_us) row, seeds 1..n."""
    os.makedirs(directory, exist_ok=True)
    for seed, (dops, p50) in enumerate(rows, start=1):
        run = {"correct": failed == 0, "attempted": 1000, "failed": failed,
               "workload": workload, "seed": seed, "trace": 0,
               "metrics": {"dops_per_s": {"value": dops, "unit": "1/s"},
                           "dop_p50_us": {"value": p50, "unit": "us"}}}
        with open(os.path.join(directory, "%s-seed%d-trace0.json" % (workload, seed)),
                  "w") as f:
            json.dump(run, f)
    # A traced run and a Chrome trace in the same directory are ignored.
    with open(os.path.join(directory, "%s-seed1-trace1.json" % workload), "w") as f:
        json.dump({"workload": workload, "trace": 1, "seed": 1, "metrics": {}}, f)
    with open(os.path.join(directory, "trace_%s.json" % workload), "w") as f:
        json.dump({"traceEvents": []}, f)


def verdicts_of(text):
    result = {}
    for line in text.splitlines()[1:]:
        fields = line.split()
        if len(fields) >= 3 and fields[1] in ("dops_per_s", "dop_p50_us"):
            result[fields[1]] = fields[-1]
    return result


def self_test():
    steady = [(1000, 500), (1010, 495), (990, 505), (1005, 498), (995, 502)]
    cases = [
        # name, parent rows, change rows, change failed, exit, verdicts
        ("same", steady, [(1002, 499), (1008, 497), (994, 503), (999, 500), (997, 501)],
         0, 0, {"dops_per_s": "unchanged", "dop_p50_us": "unchanged"}),
        ("slower", steady, [(850, 590), (860, 585), (840, 600), (855, 588), (845, 595)],
         0, 1, {"dops_per_s": "regressed", "dop_p50_us": "regressed"}),
        ("faster", steady, [(1100, 450), (1110, 445), (1090, 455), (1105, 448), (1095, 452)],
         0, 0, {"dops_per_s": "improved", "dop_p50_us": "improved"}),
        ("noisy", [(700, 700), (1300, 380), (1000, 500), (850, 600), (1150, 430)],
         [(1010, 495), (1030, 490), (990, 505), (1020, 492), (980, 508)],
         0, 0, {"dops_per_s": "unresolved", "dop_p50_us": "unresolved"}),
        ("failing", steady, steady, 3, 1,
         {"dops_per_s": "unchanged", "dop_p50_us": "unchanged"}),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as root:
        for name, parent_rows, change_rows, change_failed, want_exit, want in cases:
            parent_dir = os.path.join(root, name, "parent")
            change_dir = os.path.join(root, name, "change")
            write_runs(parent_dir, "w", parent_rows)
            write_runs(change_dir, "w", change_rows, failed=change_failed)

            class Capture:
                def __init__(self):
                    self.text = ""

                def write(self, s):
                    self.text += s

            capture = Capture()
            got_exit = compare(parent_dir, change_dir, SELF_TEST_METRICS, out=capture)
            got = verdicts_of(capture.text)
            ok = got_exit == want_exit and got == want
            print("%-8s %s (exit %d, verdicts %s)" % (name, "ok" if ok else "FAILED",
                                                      got_exit, got))
            if not ok:
                print(capture.text)
                failures += 1
    print("compare.py self-test: %s" % ("passed" if failures == 0 else "FAILED"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", nargs="?")
    parser.add_argument("change_dir", nargs="?")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent_dir or not args.change_dir:
        parser.error("PARENT_DIR and CHANGE_DIR are required")
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    return compare(args.parent_dir, args.change_dir, metrics)


if __name__ == "__main__":
    sys.exit(main())
