"""Tests of perfbench/run.py: estimators, metric names, failure handling.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

COUNT_KEYS = (
    "events", "sim_s", "pkts_delivered", "wire_bytes", "drops", "max_queue_depth",
    "mux_orphans", "fault_drops", "fault_reordered", "segments_sent", "retransmits",
    "rto_events", "segments_scheduled", "reinjections", "duplicates", "window_stalls",
    "app_bytes", "flows_started", "flows_completed", "forks")


def cell(name, op_ns, **counts):
    c = {k: 0 for k in COUNT_KEYS}
    c.update(pkts_delivered=100, events=500, sim_s=2.0, segments_sent=90, retransmits=10,
             wire_bytes=150000, app_bytes=120000)
    c.update(counts)
    n = len(op_ns)
    ledger = {p: [ns // 2 if p == "run" else ns // 10 for ns in op_ns] for p in run.PHASES}
    ledger.update(picks=[40] * n, empty_picks=[10] * n, pick_ns=[4000] * n,
                  rss_growth_bytes=[1000] * n)
    return {"name": name, "op_ns": op_ns, "counts": c, "text_hash": 7, "ledger": ledger,
            "rec_on_ns": [1100, 1200], "rec_off_ns": [1000, 1050]}


def record(cells, trace=False, failed=0):
    return {"workload": "paper_cells", "seed": 1, "trace": trace, "compiler": "c",
            "build_type": "Release", "setup_ns": [300, 100, 200], "parse_ns": [50, 70, 60],
            "attempted": 9, "failed": failed, "failures": [], "peak_rss_kb": 2048,
            "cells": cells}


class Estimators(unittest.TestCase):
    def test_fastest(self):
        self.assertEqual(run.fastest_index([5, 3, 9, 3]), 1)
        self.assertEqual(run.best([5, 3, 9]), 3)
        with self.assertRaises(ValueError):
            run.best([])

    def test_fastest_tenth(self):
        self.assertEqual(run.fastest_tenth_mean([7]), 7)
        self.assertEqual(run.fastest_tenth_mean(list(range(100, 0, -1))), 5.5)
        self.assertEqual(run.fastest_tenth_mean([4, 2, 8, 6]), 2)

    def test_quartiles_and_spread(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        q1, q2, q3 = run.quartiles(values)
        self.assertEqual((q1, q2, q3), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(run.spread(values), 1.0)
        self.assertEqual(run.spread([4.0] * 5), 0.0)
        self.assertEqual(run.quartiles([3]), (3, 3, 3))


class Metrics(unittest.TestCase):
    def setUp(self):
        self.bench = run.load_benchmark()

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(run.WORKLOADS))

    def test_end_to_end_names_units_values(self):
        rec = record([cell("a", [3000, 1000, 2000]), cell("b", [500, 400])])
        got = run.result(rec, trace=0)["metrics"]
        want = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in got.items()}, want)
        self.assertAlmostEqual(got["op_best_ms"]["value"], 1400 / 1e6)
        self.assertAlmostEqual(got["ns_per_pkt"]["value"], 1400 / 200)
        self.assertAlmostEqual(got["sim_s_per_wall_s"]["value"], 4.0 / 1.4e-6)
        self.assertAlmostEqual(got["setup_s"]["value"], 200e-9)
        self.assertAlmostEqual(got["peak_rss_mb"]["value"], 2.0)
        for v in got.values():
            self.assertGreater(v["value"], 0)

    def test_per_layer_names_units_values(self):
        rec = record([cell("a", [3000, 1000]), cell("b", [400], forks=4, flows_started=10)],
                     trace=True)
        got = run.result(rec, trace=1)["metrics"]
        want = {m["name"]: m["unit"] for m in self.bench["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in got.items()}, want)
        self.assertAlmostEqual(got["exp.run_ms"]["value"], (500 + 200) / 1e6)
        self.assertEqual(got["exp.forks"]["value"], 4)
        self.assertEqual(got["sched.picks"]["value"], 80)
        self.assertAlmostEqual(got["sched.pick_ns"]["value"], 100)
        self.assertAlmostEqual(got["sched.empty_share"]["value"], 0.25)
        self.assertAlmostEqual(got["tcp.rtx_share"]["value"], 0.1)
        self.assertAlmostEqual(got["mptcp.useful_share"]["value"], 0.8)
        self.assertAlmostEqual(got["traffic.bytes_per_flow"]["value"], 100)
        self.assertAlmostEqual(got["obs.recorder_overhead"]["value"], 2200 / 2000)
        self.assertAlmostEqual(got["ledger.coverage"]["value"], 1.0)

    def test_merge_pools_processes(self):
        a = record([cell("a", [3000, 1000])], trace=True)
        b = record([cell("a", [900, 5000, 2000])], trace=True)
        b["peak_rss_kb"] = 4096
        m = run.merge([a, b])
        self.assertEqual(m["cells"][0]["op_ns"], [3000, 1000, 900, 5000, 2000])
        self.assertEqual(m["cells"][0]["ledger"]["picks"], [40] * 5)
        self.assertEqual(m["setup_ns"], [300, 100, 200] * 2)
        self.assertEqual((m["attempted"], m["failed"], m["peak_rss_kb"]), (18, 0, 4096))
        self.assertAlmostEqual(run.result(m, 0)["metrics"]["op_best_ms"]["value"], 900 / 1e6)

    def test_merge_fails_processes_that_disagree(self):
        a = record([cell("a", [10])])
        b = record([cell("a", [10], events=501)])
        c = record([cell("a", [10])])
        c["cells"][0]["text_hash"] = 8
        m = run.merge([a, b, c])
        self.assertEqual(m["failed"], 2)
        self.assertFalse(run.result(m, 0)["correct"])

    def test_failures_make_the_run_incorrect(self):
        self.assertTrue(run.result(record([cell("a", [10])]), 0)["correct"])
        self.assertFalse(run.result(record([cell("a", [10])], failed=1), 0)["correct"])
        self.assertFalse(run.result(record([cell("a", [10], pkts_delivered=0)]), 0)["correct"])


class BareCheckout(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        repo = os.path.dirname(run.HERE)
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(repo, "BENCHMARK.json"), tmp)
            shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "crowd_10k", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")
        with self.assertRaises(ValueError):
            json.loads(proc.stdout)


if __name__ == "__main__":
    unittest.main()
