#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at a tiny size, untraced and traced,
through perfbench/run.py, and checks that:
  * the run exits 0 and its last line is the result object;
  * every end-to-end (untraced) or per-layer (traced) metric named in
    BENCHMARK.json is emitted with its unit, and nothing else is;
  * no op failed (fail_ratio 0), and the tenant-death and MPK counters are 0;
  * in the traced run the layers account for the op latency within the
    tolerance the benchmark states.
Exits non-zero on the first workload that fails a check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MUST_BE_ZERO = ("zofs.lock_steals", "zofs.online_repairs", "zofs.reaped_lists", "mpk.violations")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "2", "--trace", str(trace), "--size", "small"]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if r.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(cmd), r.returncode, r.stderr[-3000:]))
    lines = r.stdout.strip().split("\n")
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def check(spec, workload, trace):
    prov, res = run(workload, trace)
    want = spec["per_layer" if trace else "end_to_end"]
    got = res["metrics"]
    names = {m["name"] for m in want}
    assert set(got) == names, "metric names differ: missing %s, extra %s" % (
        sorted(names - set(got)), sorted(set(got) - names))
    for m in want:
        assert got[m["name"]]["unit"] == m["unit"], "%s: unit %s, want %s" % (
            m["name"], got[m["name"]]["unit"], m["unit"])
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] > 0, res
    assert prov["fail_ratio"] == 0, prov
    if trace:
        for name in MUST_BE_ZERO:
            assert got[name]["value"] == 0, "%s = %s" % (name, got[name]["value"])
        share = prov["unattributed_share"]
        assert abs(share) <= prov["unattributed_tolerance"], (
            "layers leave %.1f%% of the op unattributed" % (100 * share))
    else:
        for m in want:
            assert got[m["name"]]["value"] > 0, "%s is not positive" % m["name"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            try:
                check(spec, w["name"], trace)
            except AssertionError as e:
                print("FAIL %s trace=%d: %s" % (w["name"], trace, e))
                return 1
            print("ok   %s trace=%d" % (w["name"], trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
