#!/usr/bin/env python3
"""The benchmark's own tests: percentile rule, output checker, metric
names. Run with: python3 perfbench/test_perfbench.py"""

import copy
import json
import unittest

import analysis


def sample_raw(trace=False):
    """A minimal driver output: one clean card-like unit, repeated."""
    outputs = {
        "expect": {"golden_digest": "00000000000000aa"},
        "conservation": [
            {"run": "golden/card", "attempted": 100, "processed": 97,
             "dropped": 3, "lost_max": 0},
            {"run": "trial0/chip3", "attempted": 250, "processed": 137,
             "dropped": 112, "lost_max": 2},
            {"run": "cell/last-trial", "attempted": 100, "processed": 40,
             "dropped": 0, "lost_max": 100},
        ],
        "dram": [{"run": "golden", "accesses": 10, "hits": 4,
                  "misses": 1, "conflicts": 5}],
    }
    phase = {"unit_wall_s": [0.5, 0.5], "unit_cpu_s": [0.4, 0.6],
             "unit_packets": [1000, 1000], "unit_cells": [50, 50],
             "cells_ms": [float(i) for i in range(1, 101)],
             "output_hashes": ["h", "h"], "wall_s": 1.0, "user_s": 0.6,
             "sys_s": 0.4, "minflt": 500}
    raw = {"host": {"nproc": 4, "cpu": "x", "compiler": "GNU 12",
                    "build_type": "Release", "commit": "unknown",
                    "workload": "card_8chip", "seed": 1},
           "setup_s": [0.3, 0.2, 0.25], "outputs": outputs,
           "setup_output_hashes": ["h", "h", "h"], "peak_rss_kb": 2048}
    if not trace:
        raw["timed"] = phase
        return raw
    raw["untraced"] = phase
    raw["traced"] = dict(phase, wall_s=1.1)
    counters = {k: 1.0 for k in (
        "mem.dcache_accesses", "mem.dcache_miss_rate", "core.instructions",
        "fault.injected", "fault.parity_trips", "ctrl.events_applied",
        "npu.l2_port_waits", "npu.l2_port_wait_cycles",
        "npu.cross_engine_hits", "npu.mshr_merges",
        "npu.backpressure_stalls", "npu.load_imbalance",
        "npu.makespan_cycles", "dram.accesses", "dram.row_hit_frac",
        "dram.row_conflicts", "dram.stall_cycles",
        "linecard.load_imbalance", "linecard.ingress_drops",
        "traffic.flows_opened", "traffic.packets_drained")}
    raw["counters"] = counters
    raw["checks"] = {"card_jobs_2_twin": {"want": "a", "got": "a"}}
    raw["probe_outputs"] = {
        "expect": {"chip_stream_digest": "00000000000000cc"},
        "conservation": [{"run": "chip_stream", "attempted": 50,
                          "processed": 50, "dropped": 0, "lost_max": 0}],
        "dram": [],
    }
    return raw


EXPECTED = {"expect": {"golden_digest": "00000000000000aa"},
            "probe_expect": {"chip_stream_digest": "00000000000000cc"}}


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(analysis.samples_beyond(100, 90), 10)
        self.assertEqual(analysis.tail_percentile(list(range(1, 101)), 90),
                         90)
        self.assertIsNone(analysis.tail_percentile(list(range(99)), 90))

    def test_higher_percentiles_need_more_samples(self):
        self.assertIsNone(analysis.tail_percentile(list(range(999)), 99))
        self.assertEqual(analysis.tail_percentile(list(range(1000)), 99),
                         989)
        self.assertIsNone(analysis.tail_percentile([], 50))

    def test_cell_percentile_is_median_over_blocks(self):
        # Two 50-cell units make one block: plain p90 of all 100 cells.
        pooled = {"cells_ms": [float(i) for i in range(1, 101)],
                  "unit_cells": [50, 50]}
        self.assertEqual(analysis.cell_percentile(pooled, 90), 90)
        # Three 100-cell units are three blocks; one noisy block cannot
        # move the median of their p90s.
        cells = ([float(i) for i in range(1, 101)] +
                 [float(i) for i in range(101, 201)] +
                 [1000.0 + i for i in range(100)])
        blocks = {"cells_ms": cells, "unit_cells": [100, 100, 100]}
        self.assertEqual(analysis.cell_percentile(blocks, 90), 190)
        # A trailing partial block joins the last full one.
        tail = {"cells_ms": [float(i) for i in range(1, 151)],
                "unit_cells": [100, 50]}
        self.assertEqual(analysis.cell_percentile(tail, 90), 135)
        self.assertIsNone(analysis.cell_percentile(
            {"cells_ms": [1.0] * 50, "unit_cells": [50]}, 90))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(analysis.spread([10.0] * 10), 0.0)
        self.assertGreater(analysis.spread([1, 2, 3, 4, 100]), 0.5)


class Checker(unittest.TestCase):
    def test_clean_run_passes(self):
        raw = sample_raw(trace=True)
        attempted, failed, failures = analysis.check_run(raw, EXPECTED)
        self.assertEqual((attempted, failed, failures), (9, 0, []))

    def test_lost_packet_is_rejected(self):
        raw = sample_raw()
        raw["outputs"]["conservation"][0]["processed"] -= 1
        _, failed, failures = analysis.check_run(raw)
        self.assertEqual(failed, 5)
        self.assertIn("conservation golden/card", failures[0])

    def test_dead_engine_may_lose_only_its_packet_in_flight(self):
        raw = sample_raw()
        dead = raw["outputs"]["conservation"][1]
        dead["processed"] -= 2
        self.assertIn("leaves 3 unaccounted",
                      analysis.check_outputs(raw["outputs"])[0])
        dead["processed"] += 3  # the one lost packet is allowed
        self.assertEqual(analysis.check_outputs(raw["outputs"]), [])
        dead["processed"] += 1  # but nothing may be counted twice
        self.assertIn("leaves -1 unaccounted",
                      analysis.check_outputs(raw["outputs"])[0])

    def test_truncated_core_run_may_not_overcount(self):
        raw = sample_raw()
        raw["outputs"]["conservation"][2]["processed"] = 101
        self.assertTrue(analysis.check_outputs(raw["outputs"]))

    def test_broken_dram_partition_is_rejected(self):
        raw = sample_raw()
        raw["outputs"]["dram"][0]["hits"] += 1
        failures = analysis.check_outputs(raw["outputs"])
        self.assertEqual(len(failures), 1)
        self.assertIn("dram golden", failures[0])

    def test_disagreeing_rep_is_rejected(self):
        raw = sample_raw()
        raw["timed"]["output_hashes"][1] = "tampered"
        attempted, failed, failures = analysis.check_run(raw)
        self.assertEqual((attempted, failed), (5, 1))
        self.assertIn("disagree", failures[0])

    def test_expected_mismatch_is_rejected(self):
        raw = sample_raw()
        failures = analysis.check_outputs(
            raw["outputs"], {"golden_digest": "00000000000000bb"})
        self.assertEqual(len(failures), 1)
        self.assertIn("golden_digest", failures[0])

    def test_tampered_probe_is_rejected(self):
        raw = sample_raw(trace=True)
        raw["probe_outputs"]["conservation"][0]["processed"] -= 1
        _, failed, failures = analysis.check_run(raw, EXPECTED)
        self.assertEqual(failed, 1)
        self.assertIn("probe conservation chip_stream", failures[0])
        raw = sample_raw(trace=True)
        raw["probe_outputs"]["expect"]["chip_stream_digest"] = "dd"
        _, failed, failures = analysis.check_run(raw, EXPECTED)
        self.assertEqual(failed, 1)
        self.assertIn("chip_stream_digest", failures[0])

    def test_failed_twin_check_is_rejected(self):
        raw = sample_raw(trace=True)
        raw["checks"]["card_jobs_2_twin"]["got"] = "b"
        _, failed, failures = analysis.check_run(raw)
        self.assertEqual(failed, 1)
        self.assertIn("card_jobs_2_twin", failures[0])


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.spec = analysis.load_spec()

    def test_spec_is_valid(self):
        self.assertEqual(analysis.validate_spec(self.spec), [])

    def test_validator_catches_bad_names(self):
        bad = copy.deepcopy(self.spec)
        bad["per_layer"].append({"name": "-bad", "unit": "ms",
                                 "better": "lower"})
        bad["per_layer"].append(dict(bad["per_layer"][0]))
        bad["end_to_end"][0]["bound"] = 0.5
        problems = " | ".join(analysis.validate_spec(bad))
        self.assertIn("bad name '-bad'", problems)
        self.assertIn("names used twice", problems)
        self.assertIn("outside (0, 0.25]", problems)

    def test_end_to_end_names_match_derivation(self):
        derived = analysis.end_to_end(sample_raw())
        declared = [m["name"] for m in self.spec["end_to_end"]]
        self.assertEqual(sorted(derived), sorted(declared))
        self.assertTrue(all(v != 0 for v in derived.values()))

    def test_per_layer_names_match_derivation(self):
        derived = analysis.per_layer(sample_raw(trace=True), [])
        declared = [m["name"] for m in self.spec["per_layer"]]
        self.assertEqual(sorted(derived), sorted(declared))

    def test_every_workload_has_committed_expectation(self):
        for w in self.spec["workloads"]:
            with open(analysis.EXPECTED_DIR / (w["name"] + ".json"),
                      encoding="utf-8") as f:
                data = json.load(f)
            self.assertEqual(data["seed"], analysis.DEFAULT_SEED)
            self.assertEqual(
                analysis.load_expected(w["name"], analysis.DEFAULT_SEED),
                {"expect": data["expect"],
                 "probe_expect": data["probe_expect"]})


if __name__ == "__main__":
    unittest.main()
