#!/usr/bin/env python3
"""Count the bounds checks the compiler leaves in //decaf:hotpath functions.

Every package holding a hot-path function is built with
-gcflags=<pkg>=-d=ssa/check_bce/debug=1, which makes the compiler print one
"Found IsInBounds" or "Found IsSliceInBounds" line per bounds check that
survived its prove pass. Each line is attributed to the hot-path function
whose source extent holds it (`decafvet -hotpaths` lists the extents), and
the per-function counts are compared with the committed BCE_hotpath.json.

    python3 scripts/bce_report.py            # check: fail if a count grew or
                                             # a hot-path function is missing
    python3 scripts/bce_report.py --write    # regenerate BCE_hotpath.json
    python3 scripts/bce_report.py --self-test

The compiler reports a check in inlined code at the call site, so a check
in a small hot function counts once in that function and once in every
hot-path function it is inlined into; a line printed twice counts once. The
counts depend on the compiler, so the file records the Go version it was
made with; regenerate it with the version CI pins.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNTS = os.path.join(ROOT, "BCE_hotpath.json")
FOUND = re.compile(r"^(.+?):(\d+):\d+: Found (IsInBounds|IsSliceInBounds)$")


def hotpaths():
    """Return [(file, first, last, pkg, name)] from decafvet -hotpaths."""
    out = subprocess.run(["go", "run", "./cmd/decafvet", "-hotpaths", "./..."],
                         cwd=ROOT, check=True, capture_output=True, text=True).stdout
    funcs = []
    for line in out.splitlines():
        file, first, last, pkg, name = line.split("\t")
        funcs.append((file, int(first), int(last), pkg, name))
    return funcs


def compiler_checks(pkgs):
    """Build pkgs with the check_bce debug flag; return its output lines."""
    cmd = ["go", "build"]
    cmd += ["-gcflags=%s=-d=ssa/check_bce/debug=1" % p for p in pkgs]
    cmd += pkgs
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if res.returncode != 0:
        sys.exit("bce_report: %s failed:\n%s" % (" ".join(cmd), res.stderr))
    return res.stderr.splitlines()


def attribute(funcs, lines):
    """Count the distinct bounds-check lines per hot-path function."""
    counts = {"%s.%s" % (pkg, name): 0 for _, _, _, pkg, name in funcs}
    seen = set()
    for line in lines:
        m = FOUND.match(line)
        if not m:
            continue
        if line in seen:
            continue
        seen.add(line)
        file = os.path.relpath(os.path.join(ROOT, m.group(1)), ROOT)
        at = int(m.group(2))
        for ffile, first, last, pkg, name in funcs:
            if ffile == file and first <= at <= last:
                counts["%s.%s" % (pkg, name)] += 1
                break
    return counts


def compare(committed, counts):
    """Return the gate's failures: a count that grew, a function missing."""
    bad = []
    for fn, n in sorted(counts.items()):
        if fn not in committed:
            bad.append("%s: hot-path function missing from BCE_hotpath.json (%d checks)" % (fn, n))
        elif n > committed[fn]:
            bad.append("%s: %d bounds checks, %d committed" % (fn, n, committed[fn]))
    return bad


def go_version():
    return subprocess.run(["go", "env", "GOVERSION"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def self_test():
    funcs = [("a/x.go", 10, 20, "m/a", "hot"), ("a/x.go", 30, 40, "m/a", "(*T).warm")]
    lines = [
        "# m/a",
        "a/x.go:12:5: Found IsInBounds",
        "a/x.go:12:5: Found IsInBounds",  # the same line, printed twice
        "a/x.go:15:9: Found IsSliceInBounds",
        "a/x.go:25:1: Found IsInBounds",  # outside every hot function
        "a/x.go:31:2: Found IsInBounds",
    ]
    counts = attribute(funcs, lines)
    assert counts == {"m/a.hot": 2, "m/a.(*T).warm": 1}, counts
    assert compare({"m/a.hot": 2, "m/a.(*T).warm": 1}, counts) == []
    assert compare({"m/a.hot": 3, "m/a.(*T).warm": 1, "m/a.gone": 0}, counts) == []
    assert len(compare({"m/a.hot": 1, "m/a.(*T).warm": 1}, counts)) == 1
    assert len(compare({"m/a.hot": 2}, counts)) == 1
    print("bce_report: self-test ok")


def main(argv):
    if argv == ["--self-test"]:
        self_test()
        return 0
    if argv not in ([], ["--write"]):
        sys.exit(__doc__)
    funcs = hotpaths()
    pkgs = sorted({pkg for _, _, _, pkg, _ in funcs})
    counts = attribute(funcs, compiler_checks(pkgs))
    if argv == ["--write"]:
        with open(COUNTS, "w") as f:
            json.dump({"go": go_version(), "total": sum(counts.values()), "functions": counts},
                      f, indent=1, sort_keys=True)
            f.write("\n")
        print("bce_report: %d bounds checks in %d hot-path functions -> %s"
              % (sum(counts.values()), len(counts), os.path.basename(COUNTS)))
        return 0
    with open(COUNTS) as f:
        base = json.load(f)
    if base["go"] != go_version():
        print("bce_report: counts made with %s, compiling with %s" % (base["go"], go_version()))
    committed = base["functions"]
    for fn in sorted(set(committed) - set(counts)):
        print("bce_report: %s is no longer a hot-path function (regenerate with --write)" % fn)
    for fn, n in sorted(counts.items()):
        if fn in committed and n < committed[fn]:
            print("bce_report: %s: %d bounds checks, %d committed (regenerate with --write)"
                  % (fn, n, committed[fn]))
    bad = compare(committed, counts)
    for b in bad:
        print("bce_report: FAIL " + b)
    print("bce_report: %d bounds checks in %d hot-path functions, %d committed"
          % (sum(counts.values()), len(counts), base["total"]))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
