#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py [--out FILE]

Runs every workload (untraced, BENCHMARK.json's run_seconds) in two
consecutive sets of RUNS runs, each run on its own seed (SEED_BASE,
SEED_BASE + 1, ...), and prints per end-to-end metric and set: the
median, the interquartile range as a share of the median
(statistics.quantiles, n=4), and the verdict.

Two sets agree when, for every metric, each set's spread stays within
the metric's bound and the second set's median is not worse than the
first's by more than the bound. "steady" additionally asks every
spread to stay below a third of its bound. Exits 0 when every workload
agrees and every run's outputs were correct.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import analysis

RUN = Path(__file__).resolve().parent / "run.py"
# Runs per set, and the seed of the first run of the first set.
RUNS = 10
SEED_BASE = 1000


def run_once(workload, seed):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--trace", "0"],
        capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError("%s seed %d failed: %s" %
                           (workload, seed, done.stderr.strip()[-500:]))
    return json.loads(lines[-1])


def worse_by(first, second, better):
    """How much worse the second median is, as a share of the first."""
    if better == "higher":
        return (first - second) / first
    return (second - first) / first


def compare(spec, sets):
    """Per-metric rows and the overall verdicts for one workload."""
    rows, agree, steady = [], True, True
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        values = [[r["metrics"][name]["value"] for r in s] for s in sets]
        medians = [statistics.median(v) for v in values]
        spreads = [analysis.spread(v) for v in values]
        drift = worse_by(medians[0], medians[-1], m["better"])
        ok = drift <= bound and all(s <= bound for s in spreads)
        calm = all(s < bound / 3 for s in spreads)
        agree = agree and ok
        steady = steady and calm
        rows.append({"metric": name, "unit": m["unit"], "bound": bound,
                     "medians": medians, "spreads": spreads,
                     "worse_by": drift, "agree": ok, "steady": calm})
    return rows, agree, steady


def main():
    spec = analysis.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", help="also write the summary JSON here")
    args = p.parse_args()

    summary, all_ok = {}, True
    for workload in names:
        sets = []
        for s in range(2):
            runs = []
            for i in range(RUNS):
                seed = SEED_BASE + s * RUNS + i
                r = run_once(workload, seed)
                all_ok = all_ok and r["correct"]
                runs.append(r)
            sets.append(runs)
        rows, agree, steady = compare(spec, sets)
        all_ok = all_ok and agree
        summary[workload] = {"rows": rows, "agree": agree,
                             "steady": steady}
        print("== %s: %s%s ==" % (workload,
                                  "agree" if agree else "DISAGREE",
                                  ", steady" if steady else ""))
        print("%-16s %12s %7s %12s %7s %8s %6s" %
              ("metric", "median 1", "iqr 1", "median 2", "iqr 2",
               "worse", "bound"))
        for row in rows:
            print("%-16s %12.6g %7.3f %12.6g %7.3f %8.3f %6.2f%s" %
                  (row["metric"], row["medians"][0], row["spreads"][0],
                   row["medians"][1], row["spreads"][1], row["worse_by"],
                   row["bound"], "" if row["agree"] else "  <-- out"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
