#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_sweep --seed 1 \\
        --seconds 45 --trace 0 [--out DIR]

Builds the driver (perfbench/CMakeLists.txt, Release) into .bench_build/
on first use, runs the measuring driver process between set-up-only
driver processes (each process, the measuring one too, gives one
set-up sample), checks the modelled outputs, and prints:

  * a provenance header line (nproc, CPU, compiler, build type, commit,
    source digest, seed),
  * one line per metric with its unit,
  * as the last line, one JSON object: correct, attempted, failed and
    metrics (end-to-end with --trace 0, per-layer with --trace 1).

The full report (and, with --trace 1, the span file) goes to --out,
default .bench_build/out/ -- never over a committed file. Exits 0 when
every check passes, 1 when an output check fails (the JSON line is
still printed), and 2 or 3 on bad arguments or a failed build or run
(no JSON line).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import analysis

ROOT = analysis.HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 850
# Every driver process of one run must end within this many seconds.
RUN_TIMEOUT_S = 170
# Set-up-only processes before and after the measuring one. Each
# process gives one set-up sample and setup_s is their median; taking
# them at both ends of the run keeps one short spell of host noise from
# setting it.
SETUPS_BEFORE = 2
SETUPS_AFTER = 2


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(3, "no clumsy sources at %s" % (ROOT / "src"))
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR.parent / "perfbench-build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(analysis.HERE), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    with open(log_path, "a", encoding="utf-8") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as err:
                fail(3, "build step %s failed: %s" % (cmd[:2], err))
            if done.returncode != 0:
                fail(3, "build failed (exit %d); see %s" %
                     (done.returncode, log_path))
    return BUILD_DIR / "perfbench"


def commit_id():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the simulator and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_driver(cmd, deadline):
    """Run one driver process; its parsed JSON output."""
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()),
                              check=False)
    except subprocess.TimeoutExpired:
        fail(3, "driver exceeded %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail(3, "driver exited %d: %s" % (done.returncode,
                                          done.stderr.strip()[-2000:]))
    return json.loads(done.stdout)


def header_line(host, trace):
    return ("# perfbench workload=%s seed=%d trace=%d nproc=%d cpu=%r "
            "compiler=%r build=%s commit=%s source=%s" %
            (host["workload"], host["seed"], trace, host["nproc"],
             host["cpu"], host["compiler"], host["build_type"],
             host["commit"], host["source"]))


def main():
    spec = analysis.load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=str(ROOT / ".bench_build" / "out"),
                   help="directory for the report and span files")
    args = p.parse_args()
    if args.seed < 0:
        fail(2, "--seed must be >= 0")

    binary = build()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans_path = out_dir / (stem + ".spans.json")
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", repr(args.seconds), "--commit",
           commit_id()]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setup_cmd = cmd + ["--trace", "0", "--setup-only"]
    setups = [run_driver(setup_cmd, deadline)
              for _ in range(SETUPS_BEFORE)]
    cmd += ["--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    raw = run_driver(cmd, deadline)
    setups.append(raw)
    setups += [run_driver(setup_cmd, deadline)
               for _ in range(SETUPS_AFTER)]
    raw["setup_s"] = [s["setup_s"] for s in setups]
    raw["setup_output_hashes"] = [s["setup_output_hash"] for s in setups]

    expected = analysis.load_expected(args.workload, args.seed)
    attempted, failed, failures = analysis.check_run(raw, expected)
    if args.trace:
        with open(spans_path, encoding="utf-8") as f:
            spans = json.load(f)["spans"]
        values = analysis.per_layer(raw, spans)
        declared = spec["per_layer"]
    else:
        try:
            values = analysis.end_to_end(raw)
        except ValueError as err:
            fail(3, str(err))
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail(3, "driver produced no value for " + ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    header = dict(raw["host"])
    header["source"] = source_digest()
    print(header_line(header, args.trace))
    for name, m in metrics.items():
        print("%-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-28s %14.6g %s   (%d of %d runs)" %
          ("failed_frac", failed / attempted, "frac", failed, attempted))
    for f in failures:
        print("CHECK FAILED: " + f)
    if expected is None:
        print("# expected outputs are committed for seed %d only; this "
              "run checked invariants and rep agreement" %
              analysis.DEFAULT_SEED)

    report = {"header": header, "correct": not failures,
              "attempted": attempted, "failed": failed,
              "failures": failures, "metrics": metrics, "raw": raw}
    if args.trace:
        report["spans_file"] = str(spans_path)
    with open(out_dir / (stem + ".report.json"), "w",
              encoding="utf-8") as f:
        json.dump(report, f, indent=1)
        f.write("\n")

    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
