#!/usr/bin/env python3
"""Compare sets of lwfs_suite results against the bounds in BENCHMARK.json.

    compare.py PARENT_DIR CHANGE_DIR   parent against change
    compare.py --same A_DIR B_DIR      two sets of runs of one commit
    compare.py --summarize DIR         medians and quartiles as JSON

A set is a directory of result files as run.py --out writes them, one file
per run (any seeds).  Each (workload, metric) row gives both sides' median
and quartiles (statistics.quantiles, n=4), the change of the median, and a
verdict from the metric's bound:

  ok          the change's median is no worse than the parent's by more
              than the bound (--same: the medians differ by at most it)
  REGRESSION  worse by more than the bound (--same: DISAGREE)
  unresolved  one side's own spread, (Q3 - Q1) / median, exceeds the bound,
              unless every change run reads better than every parent run

Per-layer metrics have no bound and get no verdict.  Any failed operation is
reported.  Exit status 1 when a row is REGRESSION, DISAGREE or unresolved,
or an operation failed.
"""
import argparse
import glob
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = (m["unit"], m["better"], m["bound"])
    for m in spec["per_layer"]:
        metrics[m["name"]] = (m["unit"], m["better"], None)
    return [w["name"] for w in spec["workloads"]], metrics


def load_set(directory):
    """(workload, metric) -> values, and workload -> [attempted, failed]."""
    values = defaultdict(list)
    ops = defaultdict(lambda: [0, 0])
    files = sorted(glob.glob(os.path.join(directory, "*.trace[01].json")))
    if not files:
        sys.exit(f"compare.py: no result files in {directory}")
    for path in files:
        with open(path) as f:
            run = json.load(f)
        result = run["result"]
        for name, m in result["metrics"].items():
            values[(run["workload"], name)].append(m["value"])
        ops[run["workload"]][0] += result["attempted"]
        ops[run["workload"]][1] += result["failed"] + (0 if result["correct"] else 1)
    return values, ops


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def spread(v):
    q1, med, q3 = quartiles(v)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a, b, better, bound, same):
    if bound is None:
        return ""
    lower = better == "lower"
    if max(spread(a), spread(b)) > bound:
        all_better = max(b) < min(a) if lower else min(b) > max(a)
        return "ok (every run better)" if all_better and not same else "unresolved"
    med_a, med_b = statistics.median(a), statistics.median(b)
    if same:
        return "ok" if abs(med_b - med_a) <= bound * abs(med_a) else "DISAGREE"
    worse = (med_b - med_a) if lower else (med_a - med_b)
    return "REGRESSION" if worse > bound * abs(med_a) else "ok"


def fmt(v):
    q1, med, q3 = quartiles(v)
    return f"{med:12.5g} [{q1:.5g}, {q3:.5g}]"


def compare(dir_a, dir_b, same):
    workloads, spec = load_spec()
    a, ops_a = load_set(dir_a)
    b, ops_b = load_set(dir_b)
    bad = False
    print(f"{'workload':14} {'metric':30} {'unit':9} {'A median [Q1, Q3]':>34} "
          f"{'B median [Q1, Q3]':>34} {'change':>8}  verdict")
    for w in workloads:
        for name, (unit, better, bound) in spec.items():
            va, vb = a.get((w, name)), b.get((w, name))
            if not va or not vb:
                continue
            med_a = statistics.median(va)
            change = (statistics.median(vb) - med_a) / abs(med_a) if med_a else 0.0
            v = verdict(va, vb, better, bound, same)
            bad |= v in ("REGRESSION", "DISAGREE", "unresolved")
            print(f"{w:14} {name:30} {unit:9} {fmt(va):>34} {fmt(vb):>34} "
                  f"{change:+8.1%}  {v}")
    for side, ops in (("A", ops_a), ("B", ops_b)):
        for w, (attempted, failed) in sorted(ops.items()):
            if failed:
                bad = True
                print(f"{side}: {w}: {failed} failed of {attempted} attempted")
    return 1 if bad else 0


def cache_sizes():
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(index, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(index, "size")) as f:
                sizes[f"L{level} {kind}"] = f.read().strip()
        except OSError:
            continue
    return sizes


def summarize(directory):
    values, ops = load_set(directory)
    rows = {}
    for (w, name), v in sorted(values.items()):
        q1, med, q3 = quartiles(v)
        rows.setdefault(w, {})[name] = {
            "n": len(v), "median": med, "q1": q1, "q3": q3,
            "min": min(v), "max": max(v)}
    # One line per (workload, metric) keeps the file reviewable as a diff.
    print("{")
    print(f' "nproc": {os.cpu_count()},')
    print(f' "caches": {json.dumps(cache_sizes())},')
    print(f' "failed": {json.dumps({w: f for w, (_, f) in sorted(ops.items())})},')
    print(' "metrics": {')
    for wi, (w, metrics) in enumerate(rows.items()):
        print(f"  {json.dumps(w)}: {{")
        for mi, (name, stats) in enumerate(metrics.items()):
            comma = "," if mi + 1 < len(metrics) else ""
            print(f"   {json.dumps(name)}: {json.dumps(stats)}{comma}")
        print("  }" + ("," if wi + 1 < len(rows) else ""))
    print(" }")
    print("}")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--same", action="store_true",
                        help="both sets ran the same commit")
    parser.add_argument("--summarize", action="store_true",
                        help="print one set's medians and quartiles as JSON")
    parser.add_argument("sets", nargs="+")
    args = parser.parse_args()
    if args.summarize:
        if len(args.sets) != 1:
            parser.error("--summarize takes one directory")
        return summarize(args.sets[0])
    if len(args.sets) != 2:
        parser.error("give two directories")
    return compare(args.sets[0], args.sets[1], args.same)


if __name__ == "__main__":
    sys.exit(main())
