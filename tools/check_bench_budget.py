#!/usr/bin/env python3
"""Fails if a benchmark workload exceeds its persistence-cost budgets.

Usage: check_bench_budget.py BENCH.json [bench/budgets.json]

Budgets (bench/budgets.json) are per-op ceilings on *deterministic* counters
from the zofs-bench-scale-v6 sweep — clwb_per_op, sfence_per_op,
kernel_crossings_per_op and key_evictions_per_op — so the gate is stable
across hosts and runs. A breach means the epoch batcher / staged-append fast
path stopped absorbing flush and fence traffic, the per-thread channel
stopped absorbing kernel crossings, or the MPK key-virtualization layer
stopped sharing keys / windowing evictions; that is the regression this gate
exists to catch, never wall-clock noise.
"""

import json
import sys


def main():
    if len(sys.argv) < 2:
        print(f"usage: {sys.argv[0]} BENCH.json [budgets.json]", file=sys.stderr)
        return 2
    bench = json.load(open(sys.argv[1]))
    budgets_path = sys.argv[2] if len(sys.argv) > 2 else "bench/budgets.json"
    budgets = json.load(open(budgets_path))

    schema = bench.get("schema")
    if schema != "zofs-bench-scale-v6":
        print(f"[FAIL] {sys.argv[1]}: schema {schema!r}, want zofs-bench-scale-v6")
        return 1

    fail = 0
    for b in budgets["budgets"]:
        wl = b["workload"]
        pts = [p for p in bench.get("sweep", []) if p["workload"] == wl]
        if not pts:
            print(f"[FAIL] {wl}: no sweep points in {sys.argv[1]}")
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
