#!/usr/bin/env python3
"""The repository benchmark: ZoFS under the kv, meta and tenants workloads.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload kv|meta|tenants --seed N --seconds S --trace 0|1

It builds perfbench/ (a CMake project over the repository's src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset, then runs the chosen workload in a process of its own and passes its
output through. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1. The exit code
is 0 only when every output check passed. --size small runs a tiny instance
(used by perfbench/smoke_test.py).

Workloads, metrics and their bounds are listed in BENCHMARK.json at the root.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ("kv", "meta", "tenants")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd, log, timeout):
    # The compiler's temporary files stay inside the build directory too.
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    with open(log, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        try:
            return subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT, timeout=timeout,
                                  cwd=ROOT, env=dict(os.environ, TMPDIR=tmp)).returncode
        except subprocess.TimeoutExpired:
            return -1


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the ZoFS sources (src/) are not next to perfbench/; run inside a checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        rc = run_logged(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"], log,
                        BUILD_TIMEOUT_S)
        if rc != 0:
            fail("cmake configure failed; see " + log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = run_logged(["cmake", "--build", out, "--target", "perfbench", "-j", jobs], log,
                    max(1, deadline - time.monotonic()))
    if rc != 0:
        fail("build failed; see " + log)
    return os.path.join(out, "perfbench")


def git_commit():
    # Only a .git at the checkout root counts: git must not walk up out of it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10,
                           env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in (0, 120]")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           repr(args.seconds), "--trace", str(args.trace), "--size", args.size,
           "--commit", git_commit()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(build_dir(), "trace-%s.json" % args.workload)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S), 3)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok_shape = isinstance(result, dict) and set(result) == {
            "correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok_shape = False
    if not ok_shape:
        sys.stderr.write(out)
        fail("no result line (exit code %d)" % proc.returncode, 4)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
