#!/usr/bin/env python3
"""Fails if a benchmark workload exceeds its persistence-cost budgets.

Usage: check_bench_budget.py BENCH.json [bench/budgets.json] [--repeat BENCH2.json]

Budgets (bench/budgets.json) are per-op ceilings on *deterministic* counters
from the zofs-bench-scale-v6 sweep — clwb_per_op, sfence_per_op,
kernel_crossings_per_op and key_evictions_per_op — so the gate is stable
across hosts and runs. A breach means the epoch batcher / staged-append fast
path stopped absorbing flush and fence traffic, the per-thread channel
stopped absorbing kernel crossings, or the MPK key-virtualization layer
stopped sharing keys / windowing evictions; that is the regression this gate
exists to catch, never wall-clock noise. --repeat fails on any field of any
sweep point, wall-clock ones aside, that differs in a second run of the sweep
(src/harness/benchjson.h promises they repeat).
"""

import json
import sys

TIMING_FIELDS = {"seconds", "ops_per_sec", "mean_ns", "p50_ns", "p99_ns"}


def main():
    args = sys.argv[1:]
    repeat = None
    if "--repeat" in args[:-1]:
        i = args.index("--repeat")
        repeat = json.load(open(args[i + 1]))
        del args[i:i + 2]
    if not args:
        print(f"usage: {sys.argv[0]} BENCH.json [budgets.json] [--repeat BENCH2.json]",
              file=sys.stderr)
        return 2
    bench = json.load(open(args[0]))
    budgets = json.load(open(args[1] if len(args) > 1 else "bench/budgets.json"))

    schema = bench.get("schema")
    if schema != "zofs-bench-scale-v6":
        print(f"[FAIL] {args[0]}: schema {schema!r}, want zofs-bench-scale-v6")
        return 1

    fail = 0
    if repeat is not None:
        a, b = bench["sweep"], repeat["sweep"]
        diffs = [] if len(a) == len(b) else [f"{len(a)} sweep points vs {len(b)}"]
        diffs += [f"{x['workload']}/{x['coffers']}/{x['threads']}t {k}: {x.get(k)} vs {y.get(k)}"
                  for x, y in zip(a, b) for k in sorted(set(x) | set(y))
                  if k not in TIMING_FIELDS and x.get(k) != y.get(k)]
        for d in diffs:
            print(f"[FAIL] not deterministic: {d}")
            fail = 1
    for b in budgets["budgets"]:
        wl = b["workload"]
        pts = [p for p in bench.get("sweep", []) if p["workload"] == wl]
        if not pts:
            print(f"[FAIL] {wl}: no sweep points in {args[0]}")
            fail = 1
            continue
        for metric, ceiling in sorted(b["ceilings"].items()):
            worst = max(p[metric] for p in pts)
            where = max(pts, key=lambda p: p[metric])
            ok = worst <= ceiling
            print(f"[{'ok  ' if ok else 'FAIL'}] {wl}: {metric} worst {worst} "
                  f"<= {ceiling} ({where['coffers']}/{where['threads']}t, "
                  f"{len(pts)} points)")
            if not ok:
                fail = 1
    return fail


if __name__ == "__main__":
    sys.exit(main())
