"""Checks and metric derivation for the perfbench driver's raw output.

The C++ driver (perfbench/driver) measures; this module decides whether
the modelled outputs are correct and turns the raw measurements into
the metrics named in BENCHMARK.json. It has no side effects, so the
benchmark's own tests (test_perfbench.py) exercise it directly.
"""

import json
import math
import re
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parent / "BENCHMARK.json"
EXPECTED_DIR = HERE / "expected"

# The seed whose modelled outputs are committed under expected/.
DEFAULT_SEED = 1
# A tail percentile needs this many samples beyond it.
MIN_TAIL_SAMPLES = 10

APPS = ("crc", "tl", "route", "drr", "nat", "md5", "url", "adpcm",
        "session", "lpm")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec(path=SPEC_PATH):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# ---- percentiles ----------------------------------------------------------

def samples_beyond(n, q):
    """Samples above the nearest-rank q-th percentile of n samples."""
    rank = max(1, math.ceil(q / 100.0 * n))
    return n - rank


def tail_percentile(samples, q):
    """Nearest-rank q-th percentile; None unless it has at least
    MIN_TAIL_SAMPLES samples beyond it."""
    n = len(samples)
    if n == 0 or samples_beyond(n, q) < MIN_TAIL_SAMPLES:
        return None
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q / 100.0 * n)) - 1]


def cell_percentile(phase, q):
    """The q-th percentile of a phase's cell times, robust to a burst of
    host noise: consecutive units are grouped into blocks just large
    enough to have MIN_TAIL_SAMPLES cells beyond the percentile (a
    trailing remainder joins the last block), and the result is the
    median of the blocks' percentiles. A paper_sweep unit (120 cells) is
    a block of its own for p50 and p90. None when even all the cells
    together are too few."""
    blocks, block, start = [], [], 0
    for n in phase["unit_cells"]:
        block += phase["cells_ms"][start:start + int(n)]
        start += int(n)
        if samples_beyond(len(block), q) >= MIN_TAIL_SAMPLES:
            blocks.append(block)
            block = []
    if not blocks:
        return None
    blocks[-1] += block
    return statistics.median(tail_percentile(b, q) for b in blocks)


def spread(values):
    """Interquartile range over the median, as the acceptance rule
    computes it (statistics.quantiles, n=4)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf


# ---- correctness ----------------------------------------------------------

def check_outputs(outputs, expected=None):
    """Failures of one unit's modelled outputs: packet conservation,
    the DRAM row partition and, when given, the committed expectation."""
    failures = []
    for rec in outputs["conservation"]:
        # Packets neither processed nor dropped: only a fatal error may
        # lose any, and at most lost_max (see driver/workloads.cc).
        lost = rec["attempted"] - rec["processed"] - rec["dropped"]
        if not 0 <= lost <= rec["lost_max"]:
            failures.append("conservation %s: attempted %g, processed %g, "
                            "dropped %g leaves %g unaccounted (allowed 0 to "
                            "%g)" % (rec["run"], rec["attempted"],
                                     rec["processed"], rec["dropped"], lost,
                                     rec["lost_max"]))
    for rec in outputs["dram"]:
        parts = rec["hits"] + rec["misses"] + rec["conflicts"]
        if parts != rec["accesses"]:
            failures.append("dram %s: hits+misses+conflicts %g != "
                            "accesses %g" % (rec["run"], parts,
                                             rec["accesses"]))
    if expected is not None and outputs["expect"] != expected:
        keys = sorted(k for k in set(outputs["expect"]) | set(expected)
                      if outputs["expect"].get(k) != expected.get(k))
        failures.append("modelled outputs differ from the committed "
                        "expectation in: " + ", ".join(keys))
    return failures


def load_expected(workload, seed):
    """The committed expectations for (workload, seed), or None: "expect"
    for every unit's outputs and "probe_expect" for the traced run's
    probe outputs."""
    if seed != DEFAULT_SEED:
        return None
    path = EXPECTED_DIR / (workload + ".json")
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    return {k: data[k] for k in ("expect", "probe_expect")}


def phases(raw):
    return [raw[k] for k in ("timed", "untraced", "traced") if k in raw]


def check_run(raw, expected=None):
    """(attempted, failed, failures) over every unit of one run.

    A unit fails when its outputs' hash differs from the first set-up
    unit's (all reps, in every process of the run, must agree) or when
    the shared outputs fail check_outputs against expected["expect"].
    The traced run's probe outputs (checked against
    expected["probe_expect"]) and each of its twin checks count as one
    more attempted run each.
    """
    reference = raw["setup_output_hashes"][0]
    hashes = list(raw["setup_output_hashes"])
    for p in phases(raw):
        hashes += p["output_hashes"]
    failures = check_outputs(raw["outputs"],
                             expected and expected["expect"])
    if failures:
        failed = sum(1 for h in hashes if h == reference)
    else:
        failed = 0
    mismatched = sum(1 for h in hashes if h != reference)
    if mismatched:
        failures.append("%d of %d units disagree with the first unit's "
                        "outputs" % (mismatched, len(hashes)))
        failed += mismatched
    attempted = len(hashes)
    if "probe_outputs" in raw:
        attempted += 1
        probe = check_outputs(raw["probe_outputs"],
                              expected and expected["probe_expect"])
        if probe:
            failed += 1
            failures += ["probe " + f for f in probe]
    for name, pair in sorted(raw.get("checks", {}).items()):
        attempted += 1
        if pair["want"] != pair["got"]:
            failed += 1
            failures.append("check %s: want %s, got %s" %
                            (name, pair["want"], pair["got"]))
    return attempted, failed, failures


# ---- end-to-end metrics ---------------------------------------------------

def end_to_end(raw):
    """Every end-to-end metric of an untraced run, by name."""
    t = raw["timed"]
    p90 = cell_percentile(t, 90)
    if p90 is None:
        raise ValueError("cell_ms_p90 needs %d samples beyond it; run had "
                         "%d cells" % (MIN_TAIL_SAMPLES, len(t["cells_ms"])))
    return {
        # Whole-phase ratios, not medians over units: when the host
        # switches between a slow and a fast state within a run, a
        # median jumps to one state, while a ratio of sums moves with
        # the share of time spent in each.
        "host_pps": sum(t["unit_packets"]) / t["wall_s"],
        "cpu_us_per_pkt": (t["user_s"] + t["sys_s"]) / sum(t["unit_packets"])
                          * 1e6,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(raw["setup_s"]),
        "cell_ms_p50": cell_percentile(t, 50),
        "cell_ms_p90": p90,
    }


# ---- per-layer metrics ----------------------------------------------------

def span_ms(spans):
    """Span durations in ms, grouped by name."""
    out = {}
    for s in spans:
        out.setdefault(s["name"], []).append(
            (s["end_ns"] - s["start_ns"]) / 1e6)
    return out


def per_layer(raw, spans):
    """Every per-layer metric of a traced run, by name. A layer the
    workload leaves idle reads 0."""
    c = raw["counters"]
    tr, un = raw["traced"], raw["untraced"]
    ms = span_ms(spans)

    def med(name):
        return statistics.median(ms[name]) if name in ms else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    units = len(tr["unit_wall_s"])
    cpu_s = tr["user_s"] + tr["sys_s"]
    unit_cpu_ns = cpu_s / units * 1e9
    packets = sum(tr["unit_packets"])

    m = {
        "traffic.gen_ns_per_pkt": ratio(sum(ms.get("traffic.drain", [])) * 1e6,
                                        c["traffic.packets_drained"]),
        "traffic.flows_opened": c["traffic.flows_opened"],
        "mem.store_alloc_ms": med("mem.store"),
        "mem.dcache_accesses": c["mem.dcache_accesses"],
        "mem.dcache_miss_rate": c["mem.dcache_miss_rate"],
        "mem.ns_per_access": ratio(unit_cpu_ns, c["mem.dcache_accesses"]),
        "kernel.minflt_per_kpkt": ratio(tr["minflt"], packets / 1e3),
        "kernel.sys_share": ratio(tr["sys_s"], cpu_s),
        "kernel.wall_over_cpu": ratio(tr["wall_s"], cpu_s),
        "fault.injected": c["fault.injected"],
        "fault.parity_trips": c["fault.parity_trips"],
        "fault.per_kaccess": ratio(c["fault.injected"] * 1e3,
                                   c["mem.dcache_accesses"]),
        "fault.trial_over_golden": ratio(
            statistics.fmean(ms["core.trial"]) if "core.trial" in ms else 0,
            statistics.fmean(ms["core.golden"]) if "core.golden" in ms else 0),
        "core.golden_ms": med("core.golden"),
        "core.trial_ms": med("core.trial"),
        "core.aggregate_ms": med("core.aggregate"),
        "core.instructions": c["core.instructions"],
        "core.ns_per_instr": ratio(unit_cpu_ns, c["core.instructions"]),
    }
    for app in APPS:
        m["apps.%s.cell_ms" % app] = med("apps.%s.cell" % app)
    cell_ms = sum(v for k, vs in ms.items()
                  if k.startswith("apps.") for v in vs)
    m.update({
        "sweep.expand_ms": med("sweep.expand"),
        "sweep.render_ms": med("sweep.render"),
        "sweep.pool_busy_frac": ratio(
            cell_ms, c.get("sweep.jobs", 0) * sum(ms.get("sweep.run", []))),
        "npu.stream_ms": med("npu.stream"),
        "npu.ns_per_kcycle": ratio(med("npu.stream") * 1e6,
                                   c["npu.makespan_cycles"] / 1e3),
        "npu.l2_port_waits": c["npu.l2_port_waits"],
        "npu.l2_port_wait_cycles": c["npu.l2_port_wait_cycles"],
        "npu.cross_engine_hits": c["npu.cross_engine_hits"],
        "npu.mshr_merges": c["npu.mshr_merges"],
        "npu.backpressure_stalls": c["npu.backpressure_stalls"],
        "npu.load_imbalance": c["npu.load_imbalance"],
        "ctrl.events_applied": c["ctrl.events_applied"],
        "ctrl.over_noctrl": ratio(med("npu.stream"),
                                  med("ctrl.noctrl_stream")),
        "dram.accesses": c["dram.accesses"],
        "dram.row_hit_frac": c["dram.row_hit_frac"],
        "dram.row_conflicts": c["dram.row_conflicts"],
        "dram.stall_cycles": c["dram.stall_cycles"],
        "dram.fabric_over_flat": ratio(med("linecard.golden_run"),
                                       med("dram.flat_run")),
        "linecard.run_ms": med("linecard.run"),
        "linecard.assign_ms": med("linecard.assign"),
        "linecard.over_one_chip": ratio(med("linecard.golden_run"),
                                        med("linecard.one_chip_run")),
        "linecard.load_imbalance": c["linecard.load_imbalance"],
        "linecard.ingress_drops": c["linecard.ingress_drops"],
        "trace.overhead_frac": ratio(tr["wall_s"], un["wall_s"]) - 1.0,
    })
    return m


# ---- the benchmark spec ---------------------------------------------------

def validate_spec(spec):
    """Problems with BENCHMARK.json's names, units and bounds."""
    problems = []
    names = []
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[section]:
            names.append(entry["name"])
            if not NAME_RE.match(entry["name"]):
                problems.append("bad name %r" % entry["name"])
            if "unit" in entry and not UNIT_RE.match(entry["unit"]):
                problems.append("bad unit %r" % entry["unit"])
            if "better" in entry and entry["better"] not in ("higher",
                                                             "lower"):
                problems.append("bad direction for %r" % entry["name"])
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        problems.append("names used twice: " + ", ".join(dupes))
    for entry in spec["end_to_end"]:
        if not 0 < entry["bound"] <= 0.25:
            problems.append("bound of %r outside (0, 0.25]" % entry["name"])
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s must be an end-to-end metric in s, lower "
                        "better")
    return problems
