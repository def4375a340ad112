#!/usr/bin/env python3
"""Validates the paper's qualitative claims against bench_output.txt.

Each check encodes one *shape* from the paper's evaluation (an ordering or a
ratio range, never an absolute number). Run after `./run_benches.sh`:

    python3 tools/check_shapes.py [build/bench_output.txt] [build/BENCH_10.json]

Also validates the machine-readable sweep document (schema
zofs-bench-scale-v6): the derived clwb_per_op / sfence_per_op and
foreground/background crossing fields must be present and consistent with
the raw totals, the dwal workload must show the staged-append fast path
engaging, the churn sweep must be present (its foreground-crossing ceiling
is the bench-budget gate's), the tenant-death counters (lock_steals,
online_repairs, reaped_*) must be present and all zero — a healthy bench
run never trips the failure machinery — and the key-pressure sweeps must
show MPK key virtualization working: table3 (64 same-class coffers) evicts
zero keys, table4 (25 classes > 15 keys) keeps evictions bounded under the
LRU key window.

Exit code 0 = all shapes hold; each failure is printed with context.
Single-core-host noise is absorbed with generous margins.
"""

import json
import os
import re
import sys


class Output:
    def __init__(self, text):
        self.text = text

    def section(self, name):
        m = re.search(rf"### {re.escape(name)}\n=+\n(.*?)(?=\n=+\n### |\Z)",
                      self.text, re.S)
        if not m:
            raise KeyError(f"section {name} not found")
        return m.group(1)

    def table_rows(self, section_text, header_prefix):
        """Returns rows of the table whose header starts with header_prefix."""
        lines = section_text.splitlines()
        for i, line in enumerate(lines):
            if line.startswith(header_prefix):
                rows = []
                for row in lines[i + 2:]:
                    if not row.strip():
                        break
                    rows.append(row.split())
                return lines[i].split(), rows
        raise KeyError(f"table {header_prefix!r} not found")


FAILURES = []


def check(name, cond, detail=""):
    status = "ok  " if cond else "FAIL"
    print(f"[{status}] {name}" + (f"  ({detail})" if detail else ""))
    if not cond:
        FAILURES.append(name)


def check_bench_json(path):
    """Validates the zofs-bench-scale-v6 sweep document."""
    if not os.path.exists(path):
        check(f"J: {path} present", False, "run ./run_benches.sh first")
        return
    doc = json.load(open(path))
    check("J: schema is zofs-bench-scale-v6",
          doc.get("schema") == "zofs-bench-scale-v6", str(doc.get("schema")))
    pts = doc.get("sweep", [])
    check("J: sweep non-empty", len(pts) > 0, f"{len(pts)} points")
    required = ("ops", "clwb", "clwb_per_op", "sfence", "sfence_per_op",
                "staged_append_hits", "kernel_crossings",
                "kernel_crossings_per_op", "kernel_crossings_bg",
                "kernel_crossings_bg_per_op", "crossing_ns_per_op",
                "lock_steals", "online_repairs", "reaped_mappings",
                "reaped_grant_pages", "reaped_lists",
                "key_evictions", "key_evictions_per_op", "key_retag_pages",
                "key_class_count")
    missing = sorted({k for p in pts for k in required if k not in p})
    check("J: per-point fields present", not missing, ", ".join(missing))
    if missing:
        return

    def where(p):
        return f"{p['workload']}/{p['coffers']}/{p['threads']}t"

    # A healthy benchmark under the pinned clock must never steal a lease,
    # repair an intent online, or wake the dead-process reaper. Nonzero here
    # means the workload tripped the tenant-death machinery — a regression.
    dirty = [f"{where(p)} {k}={p[k]}"
             for p in pts
             for k in ("lock_steals", "online_repairs", "reaped_mappings",
                       "reaped_grant_pages", "reaped_lists")
             if p[k] != 0]
    check("J: tenant-death counters all zero in a bench run", not dirty,
          "; ".join(dirty[:3]))
    bad = []
    for p in pts:
        for raw, per in (("clwb", "clwb_per_op"), ("sfence", "sfence_per_op"),
                         ("kernel_crossings", "kernel_crossings_per_op"),
                         ("kernel_crossings_bg", "kernel_crossings_bg_per_op")):
            if p["ops"] and abs(p[per] - p[raw] / p["ops"]) > 0.01:
                bad.append(f"{where(p)} {per}")
    check("J: derived per-op rates match raw totals", not bad, "; ".join(bad[:3]))
    dwal = [p for p in pts if p["workload"] == "dwal"]
    check("J: dwal staged-append fast path engaged",
          dwal and all(p["staged_append_hits"] > 0 for p in dwal),
          f"hits={[p['staged_append_hits'] for p in dwal]}")
    # The epoch batcher's whole point: appends no longer pay ~1 fence each.
    check("J: dwal sfence/op well under 1 (epoch batching)",
          dwal and all(p["sfence_per_op"] < 1.0 for p in dwal),
          f"{[p['sfence_per_op'] for p in dwal]}")
    churn = [p for p in pts if p["workload"] == "churn"]
    check("J: churn sweep present", bool(churn), f"{len(churn)} points")

    # ---- MPK key virtualization (key-pressure sweeps).
    # The ordinary kernels never exceed 9 protection classes, so the key
    # allocator must never evict under them.
    plain = [p for p in pts if p["workload"] not in ("table3", "table4")]
    dirty = [f"{where(p)} ev={p['key_evictions']}"
             for p in plain if p["key_evictions"] != 0]
    check("J: no key evictions outside the key-pressure sweeps", not dirty,
          "; ".join(dirty[:3]))

    def one(workload):
        sel = [p for p in pts if p["workload"] == workload]
        return sel[0] if len(sel) == 1 else None

    t3, t4 = one("table3"), one("table4")
    check("J: key-pressure sweeps present (table3, table4)",
          t3 is not None and t4 is not None)
    if t3 is not None and t4 is not None:
        # table3: 64 same-mode coffers collapse into one class (plus the root
        # coffer's); a shared key means key pressure simply cannot arise.
        check("J: table3 forms ~2 classes",
              2 <= t3["key_class_count"] <= 4, str(t3["key_class_count"]))
        check("J: table3 evicts zero keys",
              t3["key_evictions"] == 0, str(t3["key_evictions"]))
        # table4: 25 classes > 15 keys — the LRU key window must run, but a
        # class fault costs one retag batch, not an unmap storm. The workload
        # switches its working class every 16 ops; the window must never need
        # more than one eviction per switch.
        check("J: table4 sees >15 classes",
              t4["key_class_count"] > 15, str(t4["key_class_count"]))
        check("J: table4 key window evicts at most once per class switch",
              0 < t4["key_evictions"] <= t4["ops"] / 16,
              f"{t4['key_evictions']} evictions over {t4['ops']} ops")
        check("J: table4 key window retags pages instead of remapping",
              t4["key_retag_pages"] > 0, str(t4["key_retag_pages"]))


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "build/bench_output.txt"
    json_path = sys.argv[2] if len(sys.argv) > 2 else "build/BENCH_10.json"
    out = Output(open(path).read())

    # ---- Table 1: NVM slower than DRAM; read bandwidth > write bandwidth.
    sec = out.section("bench_table1_media")
    bw = {m[0]: (float(m[1]), float(m[2]))
          for m in re.findall(r"(DRAM-like|Optane-like)\s+read\s+([\d.]+) GB/s\s+([\d.]+) ns", sec)}
    dram_r, optane_r = bw["DRAM-like"][0], bw["Optane-like"][0]
    check("T1: DRAM reads faster than NVM reads", dram_r > 1.5 * optane_r,
          f"{dram_r} vs {optane_r} GB/s")
    ratio = float(re.search(r"asymmetry ([\d.]+)x", sec).group(1))
    check("T1: NVM read/write asymmetry ~2.8x", 1.8 <= ratio <= 4.0, f"{ratio}x")

    # ---- Table 2: Strata collapses with 2 processes; ZoFS/NOVA degrade mildly.
    sec = out.section("bench_table2_sharing")
    hdr, rows = out.table_rows(sec, "Operation")
    vals = {}
    op = None
    for r in rows:
        if r[0] in ("append", "create"):
            op = r[0]
            r = r[1:]
        procs, strata, nova, zofs = int(r[0]), float(r[1]), float(r[2]), float(r[3])
        vals[(op, procs)] = (strata, nova, zofs)
    for op in ("append", "create"):
        s1, n1, z1 = vals[(op, 1)]
        s2, n2, z2 = vals[(op, 2)]
        check(f"T2: Strata {op} collapses >=4x at 2 procs", s2 > 4 * s1,
              f"{s1:.0f} -> {s2:.0f} ns")
        check(f"T2: ZoFS {op} degrades <2.5x at 2 procs", z2 < 2.5 * z1,
              f"{z1:.0f} -> {z2:.0f} ns")
        check(f"T2: NOVA {op} degrades <2.5x at 2 procs", n2 < 2.5 * n1,
              f"{n1:.0f} -> {n2:.0f} ns")
        check(f"T2: Strata {op} 2p is the worst system", s2 > max(n2, z2))

    # ---- Table 4: grouping structure.
    sec = out.section("bench_table4_fslhomes")
    groups = int(re.search(r"groups formed\s+(\d+)", sec).group(1))
    largest = float(re.search(r"= ([\d.]+)% of all", sec).group(1))
    check("T4: ~4,449 groups", 4000 <= groups <= 5000, str(groups))
    check("T4: largest group ~1/3 of files", 28 <= largest <= 38, f"{largest}%")

    # ---- MobiGen.
    sec = out.section("bench_trace_mobigen")
    check("MobiGen: Facebook has 0 chmods", re.search(r"Facebook\s+64282\s+0\s+0\s+0", sec))
    check("MobiGen: Twitter has 16 shadow chmods",
          re.search(r"Twitter\s+25306\s+16\s+0\s+16", sec))

    # ---- Figure 7: ZoFS leads data reads over the kernel file systems.
    sec = out.section("bench_fig7_fxmark")
    for wl in ("DRBL", "DRBM", "DRBH"):
        hdr, rows = out.table_rows(sec, f"{wl} thr")
        wins = 0
        for r in rows:
            ext4, pmfs, nova, strata, zofs = map(float, r[1:6])
            if zofs > max(ext4, pmfs, nova):
                wins += 1
        check(f"F7 {wl}: ZoFS beats every kernel FS in most rows", wins >= len(rows) - 1,
              f"{wins}/{len(rows)}")
    hdr, rows = out.table_rows(sec, "DWOL thr")
    wins = sum(1 for r in rows if float(r[5]) > max(map(float, r[1:4])))
    check("F7 DWOL: ZoFS beats kernel FSes in most rows", wins >= len(rows) - 1,
          f"{wins}/{len(rows)}")
    hdr, rows = out.table_rows(sec, "DWAL thr")
    wins = sum(1 for r in rows if float(r[5]) > 1.2 * float(r[2]))
    check("F7 DWAL: ZoFS clearly beats PMFS (global allocator)", wins >= len(rows) - 1,
          f"{wins}/{len(rows)}")

    # ---- Figure 8: the three groups, by 1-thread column.
    sec = out.section("bench_fig8_breakdown")
    hdr, rows = out.table_rows(sec, "threads")
    r1 = list(map(float, rows[0][1:]))
    zofs, sysempty, kwrite, nova, nova_ni, novai, novai_ni, pmfs, pmfs_nc = r1
    check("F8: ZoFS is the fastest variant", zofs == max(r1), f"{zofs}")
    check("F8: sysempty below ZoFS (syscall tax)", sysempty < zofs)
    check("F8: PMFS slowest (flush per line)", pmfs == min(r1), f"{pmfs}")
    check("F8: PMFS-nocache >= 2x PMFS", pmfs_nc > 2 * pmfs, f"{pmfs_nc} vs {pmfs}")
    check("F8: NOVA-noindex > NOVA (index cost)", nova_ni > nova)
    check("F8: NOVAi-noindex > NOVAi", novai_ni > novai)
    check("F8: kwrite lands mid-pack", kwrite < sysempty and kwrite > pmfs)

    # ---- Figure 9: ZoFS ahead of kernel FSes on webproxy/varmail (the wide
    # flat directories), and the 20-dirwidth line costs ZoFS throughput.
    sec = out.section("bench_fig9_filebench")
    def median(xs):
        xs = sorted(xs)
        return xs[len(xs) // 2]

    for wl in ("webproxy", "varmail"):
        hdr, rows = out.table_rows(sec, f"{wl} thr")
        wins = 0
        zs, z20s = [], []
        for r in rows:
            ext4, pmfs, nova, strata, zofs = map(float, r[1:6])
            z20 = float(r[6])
            if zofs > max(ext4, pmfs, nova):
                wins += 1
            zs.append(zofs)
            z20s.append(z20)
        check(f"F9 {wl}: ZoFS beats every kernel FS in most rows", wins >= len(rows) - 1,
              f"{wins}/{len(rows)}")
        # Deep paths cost ZoFS throughput (weaker than the paper's 10-30%
        # because our resolver walks forward; medians absorb noise craters).
        check(f"F9 {wl}: dir-width 20 does not beat the default (median)",
              median(z20s) <= 1.08 * median(zs),
              f"median {median(z20s):.0f} vs {median(zs):.0f}")

    # ---- Table 7: ZoFS lowest latency on writes and deletes; Ext4 worst writes.
    sec = out.section("bench_table7_leveldb")
    hdr, rows = out.table_rows(sec, "Latency/us")
    table = {}
    for r in rows:
        name = " ".join(r[:-4])
        table[name] = list(map(float, r[-4:]))  # ext4, pmfs, nova, zofs
    zofs_best = sum(1 for k, v in table.items() if v[3] == min(v))
    check("T7: ZoFS lowest latency in most rows", zofs_best >= 5, f"{zofs_best}/8 rows")
    check("T7: Ext4-DAX slowest sequential writes",
          table["Write seq."][0] == max(table["Write seq."]))
    check("T7: NOVA deletes slower than ZoFS (COW)",
          table["Delete rand."][2] > table["Delete rand."][3])

    # ---- Figure 11: read-only OS fastest; PAY > NEW; ZoFS competitive.
    sec = out.section("bench_fig11_tpcc")
    hdr, rows = out.table_rows(sec, "Workload")
    tp = {r[0]: list(map(float, r[1:])) for r in rows}
    check("F11: OS (read-only) is the fastest workload",
          min(tp["OS"]) > max(tp["NEW"]), f"OS {tp['OS']} vs NEW {tp['NEW']}")
    check("F11: PAY faster than NEW", min(tp["PAY"]) > max(tp["NEW"]))
    check("F11: ZoFS within 25% of the best mixed throughput",
          tp["mixed"][3] > 0.75 * max(tp["mixed"]), f"{tp['mixed']}")

    # ---- Table 9: 1coffer < NOVA << ZoFS.
    sec = out.section("bench_table9_worstcase")
    hdr, rows = out.table_rows(sec, "Latency/ns")
    for r in rows:
        op, nova, zofs, onecoffer = r[0], float(r[1]), float(r[2]), float(r[3])
        check(f"T9 {op}: full ZoFS is the worst (splits/moves)", zofs > max(nova, onecoffer),
              f"nova={nova:.0f} zofs={zofs:.0f} 1coffer={onecoffer:.0f}")
        check(f"T9 {op}: ZoFS >=3x slower than NOVA", zofs > 3 * nova)

    # ---- §6.5: protection outcomes.
    sec = out.section("bench_sec65_safety_recovery")
    check("6.5: all stray writes blocked", "landed: 0" in sec)
    check("6.5: victim file intact", "intact after P1's stray writes: YES" in sec)
    check("6.5: corruption returns a graceful error", "graceful error EUCLEAN" in sec)
    check("6.5: manipulated dentry rejected",
          re.search(r"manipulated dentry: EUCLEAN", sec))

    # ---- Machine-readable sweep (zofs-bench-scale-v6).
    check_bench_json(json_path)

    print()
    if FAILURES:
        print(f"{len(FAILURES)} shape check(s) FAILED:")
        for f in FAILURES:
            print(f"  - {f}")
        return 1
    print("all shape checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
