#!/usr/bin/env python3
"""A single run and a sweep of the same cell must report the same bytes.

For one cell per tier (core, chip, card), runs `clumsy_sim --json` and a
one-cell `clumsy_sweep --no-timing`, cuts the "result", "npu" and "card"
objects out of both documents as raw text, and requires them to be equal
byte for byte.

    check_run_matches_sweep.py CLUMSY_SIM CLUMSY_SWEEP
"""

import os
import subprocess
import sys
import tempfile

RUN = ["--packets", "200", "--trials", "2"]
GRID = ";packets=200;trials=2"

# (tier, clumsy_sim flags, the same cell as a grid, objects to compare)
CELLS = [
    ("core", ["--app", "route", "--cr", "0.5", "--scheme", "two-strike"],
     "app=route;cr=0.5;scheme=two-strike", ["result"]),
    ("chip", ["--app", "nat", "--pes", "4", "--l2", "shared",
              "--dispatch", "flow", "--cr", "0.5"],
     "app=nat;pes=4;l2=shared;dispatch=flow;cr=0.5", ["result", "npu"]),
    ("card", ["--app", "lpm", "--chips", "2", "--dram-banks", "4"],
     "app=lpm;chips=2;dram-banks=4", ["result", "card"]),
]


def member(doc, name):
    """The raw text of the first `"name": {...}` object in doc."""
    start = doc.find('"%s": {' % name)
    if start < 0:
        return None
    i = doc.index("{", start)
    depth, in_str, esc = 0, False, False
    for j in range(i, len(doc)):
        c = doc[j]
        if in_str:
            if esc:
                esc = False
            elif c == "\\":
                esc = True
            elif c == '"':
                in_str = False
        elif c == '"':
            in_str = True
        elif c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return doc[i:j + 1]
    return None


def main():
    sim, sweep = sys.argv[1], sys.argv[2]
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for tier, flags, grid, names in CELLS:
            single = subprocess.run([sim] + flags + RUN + ["--json"],
                                    check=True, capture_output=True,
                                    text=True).stdout
            out = os.path.join(tmp, tier + ".json")
            subprocess.run([sweep, "--grid", grid + GRID, "--jobs", "1",
                            "--no-timing", "--quiet", "--out", out],
                           check=True, capture_output=True)
            with open(out) as f:
                swept = f.read()
            for name in names:
                a, b = member(single, name), member(swept, name)
                if a is None or a != b:
                    print("MISMATCH %s/%s:\n  clumsy_sim:   %s\n"
                          "  clumsy_sweep: %s" % (tier, name, a, b))
                    failed = True
                else:
                    print("ok %s/%s (%d bytes)" % (tier, name, len(a)))
    if failed:
        return 1
    print("RUN_MATCHES_SWEEP")
    return 0


if __name__ == "__main__":
    sys.exit(main())
