#!/usr/bin/env python3
"""Self and inclusive CPU time by function from sampler.cc's output.

    python3 tools/profile/report.py prof.<pid>.txt [more files] [--top N]

Self time is the share of samples whose innermost frame is in a function;
inclusive time the share whose stack holds it anywhere (once per sample).
Addresses are symbolized with nm against the memory map in each file.
"""

import argparse
import bisect
import collections
import subprocess


def load(path):
    stacks, maps, in_maps = [], [], False
    with open(path) as f:
        for line in f:
            if line.startswith("# maps"):
                in_maps = True
            elif in_maps:
                parts = line.split()
                if len(parts) >= 6 and "x" in parts[1]:
                    lo, hi = (int(x, 16) for x in parts[0].split("-"))
                    maps.append((lo, hi, int(parts[2], 16), parts[5]))
            elif line.strip():
                stacks.append([int(x, 16) for x in line.split()])
    return stacks, sorted(maps)


symtabs = {}


def symtab(obj):
    """obj's text symbols as (sorted addresses, names) and whether it is PIE.

    A library stripped to its dynamic symbols gives none: the nearest export
    below an internal function is not that function, so it reports as one.
    """
    if obj not in symtabs:
        out = subprocess.run(["nm", "-C", "-n", "--defined-only", obj],
                             capture_output=True, text=True).stdout
        syms = sorted((int(p[0], 16), p[2]) for p in (l.split(" ", 2) for l in out.splitlines())
                      if len(p) == 3 and p[1] in "tTwWi")
        with open(obj, "rb") as f:
            pie = f.read(18)[16] == 3  # e_type ET_DYN: addresses relative to the load base
        symtabs[obj] = ([a for a, _ in syms], [n for _, n in syms], pie)
    return symtabs[obj]


def symbolize(addr, maps, starts):
    i = bisect.bisect_right(starts, addr) - 1
    if i < 0 or addr >= maps[i][1]:
        return "??"
    lo, _, off, obj = maps[i]
    if not obj.startswith("/"):
        return obj  # [vdso] and the like
    addrs, names, pie = symtab(obj)
    j = bisect.bisect_right(addrs, addr - lo + off if pie else addr) - 1
    return names[j] if j >= 0 else "[" + obj.rsplit("/", 1)[-1] + "]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()
    self_t, incl, total = collections.Counter(), collections.Counter(), 0
    for path in args.files:
        stacks, maps = load(path)
        starts, cache = [m[0] for m in maps], {}
        for stack in stacks:
            # Every frame but the interrupted one holds a return address: step
            # back into the call instruction.
            fns = []
            for k, a in enumerate(stack):
                a -= k > 0
                if a not in cache:
                    cache[a] = symbolize(a, maps, starts)
                fns.append(cache[a])
            total += 1
            self_t[fns[0]] += 1
            incl.update(set(fns))
    print(f"{total} samples")
    for title, counts in (("self", self_t), ("inclusive", incl)):
        print(f"\n{title:>9}  function")
        for fn, n in counts.most_common(args.top):
            print(f"{100.0 * n / max(total, 1):8.1f}%  {fn}")


if __name__ == "__main__":
    main()
