#!/usr/bin/env python3
"""Benchmark entry point: builds the driver, runs one workload, prints metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --aa RUNS --workload NAME [--seconds S]   # A/A self-check
    python3 perfbench/run.py --selftest                                # tests of the benchmark

Run from the repository root. The first run configures and builds
perfbench/ (the simulator library plus the mps_perf driver) into
$CARGO_TARGET_DIR, or .bench_build when that is unset. Build output goes to
stderr. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics and
--trace 1 the per-layer ones. The line before it is the run record, which
holds the diagnostics that are not gated (README.md).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_cells", "crowd_10k", "fork_k")
PHASES = ("build", "start", "run", "fork", "finish", "format")
SHARDS = 12  # driver processes per run, run one after another

# --- estimators ---------------------------------------------------------------
# Every op in a run is the same deterministic input, so op-to-op variation
# comes from the machine. The gating timing is the fastest repetition; the
# mean of the fastest tenth is kept in the run record for comparison
# (README.md, "Why the fastest op").


def fastest_index(samples):
    """Index of the op the gating estimator uses: the fastest one."""
    if not samples:
        raise ValueError("no samples")
    return min(range(len(samples)), key=samples.__getitem__)


def best(samples):
    return samples[fastest_index(samples)]


def fastest_tenth_mean(samples):
    """Mean of the fastest tenth of the samples (at least one sample)."""
    if not samples:
        raise ValueError("no samples")
    k = max(1, len(samples) // 10)
    return statistics.fmean(sorted(samples)[:k])


def quartiles(samples):
    """Q1, median and Q3 as statistics.quantiles(n=4) gives them."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def p90(samples):
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10)[-1]


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


# --- metrics ------------------------------------------------------------------


def _m(value, unit):
    return {"value": value, "unit": unit}


def _total(cells, key):
    return sum(c["counts"][key] for c in cells)


def _ratio(a, b):
    return a / b if b else 0.0


def end_to_end(rec):
    """End-to-end metrics of an untraced driver record."""
    cells = rec["cells"]
    op_ns = sum(best(c["op_ns"]) for c in cells)
    pkts = _total(cells, "pkts_delivered")
    sim_s = sum(c["counts"]["sim_s"] for c in cells)
    return {
        "setup_s": _m(statistics.median(rec["setup_ns"]) / 1e9, "s"),
        "op_best_ms": _m(op_ns / 1e6, "ms"),
        "ns_per_pkt": _m(_ratio(op_ns, pkts), "ns"),
        "sim_s_per_wall_s": _m(sim_s / (op_ns / 1e9), "1"),
        "peak_rss_mb": _m(rec["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(rec):
    """Per-layer metrics of a traced driver record.

    Phase times are those of each cell's fastest op, summed over cells (one
    pass of paper_cells). Counts are per op and repeat exactly. Scheduler
    time and empty share are per pick, over every traced op.
    """
    cells = rec["cells"]
    phase_ns = dict.fromkeys(PHASES, 0)
    op_ns = 0
    picks = all_picks = all_empty = all_pick_ns = 0
    for c in cells:
        led = c["ledger"]
        i = fastest_index(c["op_ns"])
        op_ns += c["op_ns"][i]
        for p in PHASES:
            phase_ns[p] += led[p][i]
        picks += led["picks"][i]
        all_picks += sum(led["picks"])
        all_empty += sum(led["empty_picks"])
        all_pick_ns += sum(led["pick_ns"])

    events = _total(cells, "events")
    pkts = _total(cells, "pkts_delivered")
    sent = _total(cells, "segments_sent")
    rtx = _total(cells, "retransmits")
    started = _total(cells, "flows_started")
    rss_growth = sum(max(c["ledger"]["rss_growth_bytes"]) for c in cells
                     if c["counts"]["flows_started"])
    rec_cells = [c for c in cells if c["rec_on_ns"] and c["rec_off_ns"]]
    rec_on = sum(best(c["rec_on_ns"]) for c in rec_cells)
    rec_off = sum(best(c["rec_off_ns"]) for c in rec_cells)

    def ms(ns):
        return _m(ns / 1e6, "ms")

    def count(v):
        return _m(v, "count")

    def share(v):
        return _m(v, "ratio")

    return {
        "scenario.parse_ms": ms(statistics.median(rec["parse_ns"])),
        "scenario.build_ms": ms(phase_ns["build"]),
        "exp.start_ms": ms(phase_ns["start"]),
        "exp.run_ms": ms(phase_ns["run"]),
        "exp.fork_ms": ms(phase_ns["fork"]),
        "exp.finish_ms": ms(phase_ns["finish"]),
        "exp.format_ms": ms(phase_ns["format"]),
        "exp.forks": count(_total(cells, "forks")),
        "sim.events": count(events),
        "sim.events_per_pkt": _m(_ratio(events, pkts), "1/pkt"),
        "sim.ns_per_event": _m(_ratio(phase_ns["run"], events), "ns"),
        "net.pkts_delivered": count(pkts),
        "net.drops": count(_total(cells, "drops")),
        "net.max_queue_depth": count(max(c["counts"]["max_queue_depth"] for c in cells)),
        "net.mux_orphans": count(_total(cells, "mux_orphans")),
        "fault.drops": count(_total(cells, "fault_drops")),
        "fault.reordered": count(_total(cells, "fault_reordered")),
        "tcp.segments_sent": count(sent),
        "tcp.retransmits": count(rtx),
        "tcp.rto_events": count(_total(cells, "rto_events")),
        "tcp.rtx_share": share(_ratio(rtx, sent + rtx)),
        "mptcp.segments_scheduled": count(_total(cells, "segments_scheduled")),
        "mptcp.reinjections": count(_total(cells, "reinjections")),
        "mptcp.duplicates": count(_total(cells, "duplicates")),
        "mptcp.window_stalls": count(_total(cells, "window_stalls")),
        "mptcp.useful_share": share(_ratio(_total(cells, "app_bytes"),
                                           _total(cells, "wire_bytes"))),
        "sched.picks": count(picks),
        "sched.pick_ns": _m(_ratio(all_pick_ns, all_picks), "ns"),
        "sched.empty_share": share(_ratio(all_empty, all_picks)),
        "traffic.flows_started": count(started),
        "traffic.flows_completed": count(_total(cells, "flows_completed")),
        "traffic.bytes_per_flow": _m(_ratio(rss_growth, started), "B"),
        "obs.recorder_overhead": share(_ratio(rec_on, rec_off)),
        "ledger.coverage": share(_ratio(sum(phase_ns.values()), op_ns)),
    }


def run_record(rec):
    """Diagnostics next to the gated metrics: host, build, op-time spread."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")),
                       cpu)
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    ops = {}
    for c in rec["cells"]:
        s = c["op_ns"]
        q1, q2, q3 = quartiles(s)
        ops[c["name"]] = {
            "ops": len(s),
            "best_ms": best(s) / 1e6,
            "fastest_tenth_ms": fastest_tenth_mean(s) / 1e6,
            "q1_ms": q1 / 1e6, "p50_ms": q2 / 1e6, "q3_ms": q3 / 1e6, "p90_ms": p90(s) / 1e6,
        }
    return {
        "record": {
            "workload": rec["workload"], "seed": rec["seed"], "trace": rec["trace"],
            "nproc": os.cpu_count(), "cpu_model": cpu, "machine": platform.machine(),
            "compiler": rec["compiler"], "build_type": rec["build_type"], "git_rev": rev,
            "estimator": "fastest op", "processes": SHARDS, "setup_ns_quartiles": quartiles(rec["setup_ns"]),
            "failures": rec["failures"], "ops": ops,
        }
    }


def result(rec, trace):
    metrics = per_layer(rec) if trace else end_to_end(rec)
    pkts = _total(rec["cells"], "pkts_delivered")
    correct = rec["failed"] == 0 and rec["attempted"] > 0 and pkts > 0
    return {"correct": correct, "attempted": rec["attempted"], "failed": rec["failed"],
            "metrics": metrics}


# --- build and run ------------------------------------------------------------


def jobs():
    return str(min(4, os.cpu_count() or 1))


def build(root, target="mps_perf"):
    for need in ("src/CMakeLists.txt", "scenarios", "tests/goldens"):
        if not os.path.exists(os.path.join(root, need)):
            sys.exit(f"run.py: {need} not found under {root}; run from the repository root")
    bdir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out = sys.stderr
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=out, stderr=out)
    subprocess.run(["cmake", "--build", bdir, "--target", target, "-j", jobs()],
                   check=True, stdout=out, stderr=out)
    return bdir


def drive(bdir, root, workload, seed, seconds, trace):
    """Runs the workload as SHARDS driver processes in turn, each for an equal
    slice of the budget, and merges their records (README.md, "Why several
    processes")."""
    deadline = time.monotonic() + 170
    recs = []
    for _ in range(SHARDS):
        proc = subprocess.run(
            [os.path.join(bdir, "mps_perf"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds / SHARDS), "--trace", str(trace), "--root", root],
            capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"run.py: mps_perf exited with {proc.returncode}")
        recs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return merge(recs)


def merge(recs):
    """One record from the records of several processes of the same run.

    Op times, set-ups and ledgers are pooled; peak RSS is the largest. Every
    process must report the same model counts and outcome text for a cell:
    a process that does not counts as one failed op.
    """
    out = dict(recs[0])
    for key in ("setup_ns", "parse_ns", "failures"):
        out[key] = [x for r in recs for x in r[key]]
    out["attempted"] = sum(r["attempted"] for r in recs)
    out["failed"] = sum(r["failed"] for r in recs)
    out["peak_rss_kb"] = max(r["peak_rss_kb"] for r in recs)
    cells = []
    for i, first in enumerate(recs[0]["cells"]):
        c = dict(first)
        parts = [r["cells"][i] for r in recs]
        for key in ("op_ns", "rec_on_ns", "rec_off_ns"):
            if key in first:
                c[key] = [x for p in parts for x in p[key]]
        if "ledger" in first:
            c["ledger"] = {k: [x for p in parts for x in p["ledger"][k]]
                           for k in first["ledger"]}
        for p in parts[1:]:
            if p["name"] != first["name"] or p["counts"] != first["counts"] \
                    or p["text_hash"] != first["text_hash"]:
                out["failed"] += 1
                out["failures"].append(f"{first['name']}: differs between processes")
        cells.append(c)
    out["cells"] = cells
    return out


def load_benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def aa(args):
    """Two interleaved sets of the same build. Prints each end-to-end metric's
    median ratio (second set over first) against its bound, and each set's
    spread; exits 1 if any is out of bounds."""
    spec = load_benchmark()
    seconds = args.seconds or spec["run_seconds"]
    sets = ([], [])
    for i in range(args.aa):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                 "--seed", str(args.seed + i), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                sys.exit(proc.stderr)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                sys.exit(f"run.py --aa: incorrect run: {res}")
            sets[side].append(res["metrics"])
    ok = True
    print(f"{args.workload}: {args.aa} runs per set, {seconds} s each")
    print(f"{'metric':<18} {'median A':>12} {'median B':>12} {'B/A':>7} {'bound':>6} "
          f"{'spread A':>9} {'spread B':>9}")
    for m in spec["end_to_end"]:
        name = m["name"]
        a = [r[name]["value"] for r in sets[0]]
        b = [r[name]["value"] for r in sets[1]]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb / ma - 1) if m["better"] == "lower" else (ma / mb - 1)
        sa, sb = spread(a), spread(b)
        good = worse <= m["bound"] and (name == "setup_s" or max(sa, sb) <= m["bound"])
        ok = ok and good
        print(f"{name:<18} {ma:>12.6g} {mb:>12.6g} {mb / ma:>7.3f} {m['bound']:>6.2f} "
              f"{sa:>9.4f} {sb:>9.4f} {'ok' if good else 'OUT'}")
    return 0 if ok else 1


def selftest(root):
    bdir = build(root, "perfbench_test")
    py = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s", HERE, "-p",
                         "test_*.py"])
    cc = subprocess.run([os.path.join(bdir, "perfbench_test")])
    return py.returncode or cc.returncode


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--aa", type=int, metavar="RUNS")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if args.selftest:
        return selftest(root)
    if not args.workload:
        ap.error("--workload is required")
    if args.aa:
        return aa(args)
    bdir = build(root)
    rec = drive(bdir, root, args.workload, args.seed, args.seconds or 10, args.trace)
    print(json.dumps(run_record(rec)))
    print(json.dumps(result(rec, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
