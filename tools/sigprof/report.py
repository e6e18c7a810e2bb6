#!/usr/bin/env python3
"""Turns a sigprof.so dump into self and inclusive tables.

    report.py DUMP... [--under NAME] [--outside NAME]... [--top N]

Each address is rebased to `address - load base` of the file it was
loaded from (the dump carries /proc/self/maps) and named by one
`addr2line -f -C -i` run per file, so a function inlined into its caller
is still named (build with line tables, README.md). A PC in a shared
library without line tables (a stripped libc) is named by the exports
around it, read with one `nm -D --defined-only` per library: the export
it lies inside, else the two on either side
(`__default_morecore‥__libc_malloc`). `--under NAME` keeps
the samples with a frame whose name contains NAME, `--outside NAME` those
without one: `conn_ramp`'s ramp read apart from its failover (README.md).
A sample with no frames to test — a PC alone, taken inside libc — is under
nothing: a filtered report says how many there were. Every report groups
the samples whose innermost frame is in libc into allocator, `mem*` and
other, as shares of all samples, with the share that was a PC alone.
Several dumps (one per run) are summed.
"""
import argparse
import bisect
import collections
import re
import signal
import subprocess


def load(path):
    maps, samples, dropped = [], [], 0
    for line in open(path):
        tag, _, rest = line.partition(" ")
        if tag == "M":
            f = rest.split()
            if len(f) >= 6 and f[5].startswith("/"):
                lo, hi = (int(x, 16) for x in f[0].split("-"))
                maps.append((lo, hi, int(f[2], 16), f[5]))
        elif tag == "S":
            samples.append([int(x, 16) for x in rest.split()])
        elif tag == "D":
            dropped = int(rest)
    return maps, samples, dropped


def exports(path):
    """(start, end, name) of each code symbol a library exports, by start."""
    out = subprocess.run(["nm", "-D", "--defined-only", "-S", path],
                         capture_output=True, text=True).stdout
    rows = (line.split() for line in out.splitlines() if line.count(" ") == 3)
    return sorted((int(a, 16), int(a, 16) + int(n, 16), name.split("@")[0])
                  for a, n, kind, name in rows if kind in "TtWwi")


def between(syms, a):
    """The export `a` lies inside, else `before‥after`: a stripped library's
    internal code has no name of its own."""
    i = bisect.bisect_right([start for start, _, _ in syms], a)
    if i and a < syms[i - 1][1]:
        return syms[i - 1][2]
    before = syms[i - 1][2] if i else "[start]"
    after = syms[i][2] if i < len(syms) else "[end]"
    return f"{before}‥{after}"


# glibc's block of ifunc-selected mem*/str* variants, named by the exports
# around it (README.md, "Names in a stripped library").
MEM_BLOCK = "__nss_database_lookup‥__libc_freeres"
ALLOCATOR = ("malloc", "calloc", "realloc", "free", "morecore", "memalign", "_int_")


def libc_group(name):
    """`allocator`, `mem*` or `other` for a libc PC's name, `None` outside libc."""
    sym, _, lib = name.partition(" [")
    if not lib.startswith("libc.so"):
        return None
    ends = sym.split("‥")
    if sym == MEM_BLOCK or (len(ends) == 1 and re.match(r"_*(mem|str|wmem|bcopy|bzero)", sym)
                            and "memalign" not in sym):
        return "mem*"
    return "allocator" if any(k in e for e in ends for k in ALLOCATOR) else "other"


def symbolise(maps, addrs):
    """address -> names, innermost (inlined) first."""
    base = {}  # file -> load base: where file offset 0 sits in memory
    for lo, _, off, f in maps:
        base[f] = min(base.get(f, lo - off), lo - off)
    by_file = collections.defaultdict(list)
    for a in addrs:
        f = next((f for lo, hi, _, f in maps if lo <= a < hi), None)
        if f:
            by_file[f].append(a)
    names = {a: ["[unmapped]"] for a in addrs}
    for f, group in by_file.items():
        query = "\n".join(hex(a - base[f]) for a in group)
        out = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e", f],
                             input=query, capture_output=True, text=True).stdout
        lib = "" if f == maps[0][3] else " [" + f.rsplit("/", 1)[-1] + "]"
        syms = None
        for a, chunk in zip(group, out.split("\n0x")):
            lines = chunk.splitlines()[1:]  # drop the echoed address, leaving (name, file:line) pairs
            if lib and lines[1:2] == ["??:?"]:  # no line table: name it by the exports around it
                syms = exports(f) if syms is None else syms
                names[a] = [between(syms, a - base[f]) + lib]
                continue
            # An inlined frame has only its bare name (`push`): add the source file (`push (ip.rs)`).
            named = [n if "::" in n else f"{n} ({src.rsplit('/', 1)[-1].split(':')[0]})"
                     for n, src in zip(lines[0::2], lines[1::2]) if n != "??"]
            names[a] = [n + lib for n in named] or ["??" + lib]
    return names


def main():
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # `| head` is not an error
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dumps", nargs="+")
    ap.add_argument("--under", help="keep samples with a frame whose name contains this")
    ap.add_argument("--outside", action="append", default=[], help="drop samples with such a frame")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()
    self_t, incl_t, alone = collections.Counter(), collections.Counter(), collections.Counter()
    libc, libc_alone = collections.Counter(), collections.Counter()
    total = kept = dropped = 0
    for path in args.dumps:
        maps, samples, d = load(path)
        dropped += d
        # A return address points past its call: step back into the call.
        stacks = [[s[0]] + [r - 1 for r in s[1:]] for s in samples if s]
        names = symbolise(maps, sorted({a for s in stacks for a in s}))
        total += len(stacks)
        for s in stacks:
            frames = [n for a in s for n in names[a]]
            group = libc_group(frames[0])
            if group:
                libc[group] += 1
                libc_alone[group] += len(s) == 1
            if len(s) == 1:
                alone[frames[0]] += 1
            if args.under and not any(args.under in n for n in frames):
                continue
            if any(o in n for o in args.outside for n in frames):
                continue
            kept += 1
            self_t[frames[0]] += 1
            incl_t.update(set(frames))
    print(f"{total} samples, {kept} kept, {dropped} dropped (buffer full)")
    pct = lambda n: f"{100 * n / max(total, 1):.1f} %"
    print("libc self, of all samples (of which a PC alone): "
          + ", ".join(f"{g} {pct(libc[g])} ({pct(libc_alone[g])})" for g in ("allocator", "mem*", "other")))
    if args.under or args.outside:
        top = ", ".join(f"{name} {n}" for name, n in alone.most_common(3))
        print(f"{sum(alone.values())} samples are a PC alone (no stack: libc) — not counted under any frame"
              + (f": {top}" if top else ""))
    for title, table in (("self", self_t), ("inclusive", incl_t)):
        print(f"\n{title:>9}      %  function")
        for name, n in table.most_common(args.top):
            print(f"{n:9d} {100 * n / max(kept, 1):6.1f}  {name}")


if __name__ == "__main__":
    main()
