#!/usr/bin/env python3
"""Compares two result sets of the benchmark, workload by workload.

    python3 perfbench/compare.py BASE CHANGE [--bench BENCHMARK.json]

BASE and CHANGE are files, or directories of files, holding the standard
output of `perfbench/run.py ... --trace 0` runs (one run after another; the
record line each run prints carries its workload and seed). Run both sides
with the same seeds and run length, alternating which side runs first.

For every workload and end-to-end metric in BENCHMARK.json the verdict is:

- improved:   the change wins at least nine tenths of the runs paired by seed
              (ties count for neither side) and the medians differ, in the
              better direction, by more than the parent's quartile distance;
- worse:      the change's median is worse than the parent's by more than the
              metric's bound;
- unresolved: neither of the above, and the quartile distance of either side,
              as a share of its median, is wider than the bound -- unless every
              run of the change reads better than every run of the parent;
- unchanged:  otherwise.
"""

import argparse
import json
import os
import statistics
import sys


def records(path):
    """Every --trace 0 record line under `path`."""
    files = []
    if os.path.isdir(path):
        for base, _, names in os.walk(path):
            files.extend(os.path.join(base, n) for n in sorted(names))
    else:
        files.append(path)
    out = []
    for name in files:
        with open(name) as handle:
            for line in handle:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    value = json.loads(line)
                except ValueError:
                    continue
                if value.get("perfbench") == "record" and value.get("trace") == 0:
                    out.append(value)
    return out


def by_seed(runs, workload, metric):
    values = {}
    for run in runs:
        if run["workload"] == workload:
            values.setdefault(run["seed"], []).append(
                run["end_to_end"][metric]["value"]
            )
    return values


def flatten(values):
    return [v for seed in sorted(values) for v in values[seed]]


def spread(values):
    """(median, quartile distance) as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def verdict(base_by_seed, change_by_seed, better, bound):
    base, change = flatten(base_by_seed), flatten(change_by_seed)
    if len(base) < 2 or len(change) < 2:
        return "unresolved", "fewer than two runs on a side", None
    sign = 1.0 if better == "higher" else -1.0
    mb, iqr_b = spread(base)
    mc, iqr_c = spread(change)
    shared = sorted(set(base_by_seed) & set(change_by_seed))
    if shared:
        pairs = [(base_by_seed[s][0], change_by_seed[s][0]) for s in shared]
    else:
        pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    gain = sign * (mc - mb) / mb if mb else 0.0
    all_better = (min(change) > max(base)) if sign > 0 else (max(change) < min(base))
    detail = "wins %d/%d, parent spread %.3f, change spread %.3f" % (
        wins,
        len(pairs),
        iqr_b / mb if mb else float("nan"),
        iqr_c / mc if mc else float("nan"),
    )
    if wins >= 0.9 * len(pairs) and sign * (mc - mb) > iqr_b:
        return "improved", detail, gain
    if -gain > bound:
        return "worse", detail, gain
    wide = (mb and iqr_b / mb > bound) or (mc and iqr_c / mc > bound)
    if wide and not all_better:
        return "unresolved", detail, gain
    return "unchanged", detail, gain


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--bench", default="BENCHMARK.json")
    args = parser.parse_args()
    with open(args.bench) as handle:
        bench = json.load(handle)
    base, change = records(args.base), records(args.change)
    if not base or not change:
        sys.exit("compare: no --trace 0 record lines in one of the result sets")
    failed = [r for r in base + change if r["requests"]["failed"]]
    for run in failed:
        print(
            "note: %s seed %s had %d failed request(s)"
            % (run["workload"], run["seed"], run["requests"]["failed"])
        )
    print("%-16s %-22s %14s %14s %9s  %-10s %s" % (
        "workload", "metric", "parent", "change", "gain", "verdict", "evidence"))
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            b = by_seed(base, workload, name)
            c = by_seed(change, workload, name)
            if not b or not c:
                continue
            result, detail, gain = verdict(b, c, metric["better"], metric["bound"])
            print("%-16s %-22s %14.6g %14.6g %+8.2f%%  %-10s %s" % (
                workload,
                name,
                statistics.median(flatten(b)),
                statistics.median(flatten(c)),
                100.0 * (gain or 0.0),
                result,
                detail,
            ))


if __name__ == "__main__":
    main()
