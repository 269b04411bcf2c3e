#!/usr/bin/env python3
"""End-to-end benchmark for lossburst (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (and with it the library from src/) into .bench_build/,
runs one workload in its own process, checks every entry-point call's
output, and prints one JSON object as the last line of standard output:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1,
each with the unit BENCHMARK.json gives it. Exits 1 when any call failed, 2
when the benchmark cannot be built or run.
"""

import argparse
import csv
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

SHARE_NOTE = ("note: per-tag times (*_s from the loop profiler) are shares of a "
              "profiled loop, not absolute costs: tracing adds trace.overhead_frac "
              "to an iteration's wall time")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources (src/CMakeLists.txt) next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "--parallel", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


# ---- output checks -----------------------------------------------------------


def count_ops(result, golden):
    """(attempted, failed, reasons). Each entry-point call is one operation.
    A check covers `ops` calls; it fails when a call threw, a property failed,
    or its digest differs from the golden one (recorded seed) or from the
    first iteration's (any other seed: the same seed must give the same
    output, traced or not)."""
    expected = {}
    if golden.get("seed") == result["seed"]:
        expected = dict(golden["digests"])
    attempted = failed = 0
    reasons = []
    for it in result["iterations"]:
        if it["error"]:
            attempted += result["ops_per_iteration"]
            failed += result["ops_per_iteration"]
            reasons.append(f"run {it['run']}: {it['error']}")
            continue
        for c in it["checks"]:
            attempted += c["ops"]
            want = expected.setdefault(c["label"], c["digest"])
            if not c["ok"] or c["digest"] != want:
                failed += c["ops"]
                why = c["why"] or f"digest {c['digest']} != {want}"
                reasons.append(f"run {it['run']} {c['label']}: {why}")
    for e in result["extras"]:
        attempted += e["check"]["ops"]
        if not e["check"]["ok"]:
            failed += e["check"]["ops"]
            reasons.append(f"{e['name']}: {e['check']['why']}")
    return attempted, failed, reasons


# ---- per-layer metrics (traced pass) -----------------------------------------


def read_profile(path):
    """tag -> busy seconds from a LoopProfiler report (rows after the two
    header lines: tag, count, total_ms, ...; the last row is the total)."""
    tags = {}
    if not os.path.isfile(path):
        return tags
    with open(path) as f:
        for line in f.readlines()[2:]:
            parts = line.split()
            if len(parts) >= 3 and parts[0] != "total":
                tags[parts[0]] = float(parts[2]) / 1e3
    return tags


GAUGES = ("engine.heap_high_water", "pool.high_water")


def read_intervals(path):
    """Whole-run totals from an interval CSV: counters are exported as
    per-interval deltas, so they are summed; high-water gauges take their
    largest sample."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    totals = {}
    for col, name in enumerate(rows[0][1:], start=1):
        values = [float(r[col]) for r in rows[1:]]
        totals[name] = max(values, default=0.0) if name in GAUGES else sum(values)
    return totals


def col_sum(totals, prefix="", suffix=""):
    return sum(v for k, v in totals.items() if k.startswith(prefix) and k.endswith(suffix))


def ratio(a, b):
    return a / b if b else 0.0


def entry_calls(spans, run):
    return [s for s in spans if s["args"]["run"] == run and s["args"].get("call")
            and not s["name"].startswith("setup.")]


def layer_metrics(result, spans, run, ref, setup_s):
    """Per-layer metrics of traced iteration `run`, from the loop profile and
    interval CSVs of each of its calls and from the benchmark's own spans.
    `ref` is the untraced reference iteration."""
    out_dir = result["dir"]
    ref_wall = ref["wall_s"]
    mine = [s for s in spans if s["args"]["run"] == run]
    calls = entry_calls(spans, run)

    tag_s = {}
    loop_s = 0.0
    profiled_all = True
    engine, shard_fired = {}, []
    heap_hw = pool_hw = 0.0
    for call in calls:
        prefix = os.path.join(out_dir, call["args"]["prefix"])
        profile = read_profile(prefix + "profile.txt")
        profiled_all = profiled_all and bool(profile)
        for tag, secs in profile.items():
            tag_s[tag] = tag_s.get(tag, 0.0) + secs
            loop_s += secs
        shards = sorted(glob.glob(prefix + "s[0-9]*_intervals.csv"))
        for path in shards or [prefix + "intervals.csv"]:
            totals = read_intervals(path)
            if shards:
                shard_fired.append(totals.get("engine.fired", 0.0))
            heap_hw = max(heap_hw, totals.pop("engine.heap_high_water", 0.0))
            pool_hw = max(pool_hw, totals.pop("pool.high_water", 0.0))
            for k, v in totals.items():
                engine[k] = engine.get(k, 0.0) + v

    if profiled_all:
        residual_s = sum(s["dur"] for s in calls) / 1e6 - loop_s - setup_s
    else:
        # No profiler hook (the shard campaign): everything the untraced
        # reference call spent past the fixed cost counts as loop, and the
        # residual cannot be separated.
        loop_s = sum(s["dur"] for s in entry_calls(spans, ref["run"])) / 1e6 - setup_s
        residual_s = 0.0

    def tag(*names):
        return sum(tag_s.get(n, 0.0) for n in names)

    def spans_named(name):
        return sum(s["dur"] for s in mine if s["name"] == name) / 1e6

    events = engine.get("engine.fired", 0.0)
    scheduled = engine.get("engine.scheduled", 0.0)
    cancelled = engine.get("engine.cancelled", 0.0)
    packets = col_sum(engine, "link.", ".packets_sent")
    net_s = tag("link.tx", "link.arrive", "link.batch")
    segments = col_sum(engine, "flow", ".segments_sent")
    retx = col_sum(engine, "flow", ".retransmits")
    fec_source = col_sum(engine, "fec.", ".src.source")
    epochs = sum(c["args"].get("epochs", 0) for c in calls)
    extras = {e["name"]: e["wall_s"] for e in result["extras"]}
    artifacts = glob.glob(os.path.join(out_dir, "user_*"))
    return {
        "sim.events": events,
        "sim.events_per_s": ratio(events, ref_wall),
        "sim.loop_s": loop_s,
        "sim.scheduled": scheduled,
        "sim.cancelled": cancelled,
        "sim.cancel_ratio": ratio(cancelled, scheduled),
        "sim.heap_high_water": heap_hw,
        "net.tx_s": tag("link.tx"),
        "net.arrive_s": tag("link.arrive"),
        "net.batch_s": tag("link.batch"),
        "net.packets": packets,
        "net.ns_per_packet": ratio(net_s * 1e9, packets),
        "net.batched_share": ratio(col_sum(engine, "link.", ".batched_packets"), packets),
        "net.queue_drops": col_sum(engine, "queue.", ".dropped"),
        "net.pool_high_water": pool_hw,
        "tcp.pacing_s": tag("tcp.pacing"),
        "tcp.timer_s": tag("tcp.rto", "tcp.delack"),
        "tcp.source_s": tag("source"),
        "tcp.retransmits": retx,
        "tcp.timeouts": col_sum(engine, "flow", ".timeouts"),
        "tcp.retx_ratio": ratio(retx, segments),
        "fault.edge_s": tag("fault"),
        "fault.drops": col_sum(engine, "fault.", ".gilbert_drops")
        + col_sum(engine, "fault.", ".flap_drops"),
        "fec.source_s": tag("fec.source"),
        "fec.feedback_s": tag("fec.feedback"),
        "fec.decoded": col_sum(engine, "fec.", ".rcv.decoded"),
        "fec.redundant": col_sum(engine, "fec.", ".rcv.redundant"),
        "fec.overhead": ratio(col_sum(engine, "fec.", ".src.repairs")
                              + col_sum(engine, "fec.", ".src.retx"), fec_source),
        "analysis.pdf_s": spans_named("analysis.pdf"),
        "analysis.fit_s": spans_named("analysis.fit"),
        "analysis.intervals": sum(s["args"].get("samples", 0) for s in mine),
        "obs.sample_s": tag("periodic"),
        "obs.overhead_frac": ratio(ref_wall, extras["fig7_detached"]) - 1.0
        if "fig7_detached" in extras else 0.0,
        "obs.artifact_mb": sum(os.path.getsize(p) for p in artifacts) / 1e6,
        "shard.epochs": epochs,
        "shard.events_per_epoch": ratio(events, epochs),
        "shard.efficiency": ratio(extras["shard_k1"], 2.0 * ref_wall)
        if "shard_k1" in extras else 0.0,
        "shard.balance": ratio(max(shard_fired), statistics.mean(shard_fired))
        if len(shard_fired) > 1 else 0.0,
        "core.residual_s": residual_s,
    }


def per_layer(result):
    with open(result["spans"]) as f:
        spans = json.load(f)
    setup_s = statistics.median(result["setup_s"])
    ref = [it for it in result["iterations"] if not it["traced"]][0]
    traced = [it for it in result["iterations"] if it["traced"]]
    samples = [layer_metrics(result, spans, it["run"], ref, setup_s)
               for it in traced]
    values = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    values["trace.overhead_frac"] = (
        statistics.median(it["wall_s"] for it in traced) / ref["wall_s"] - 1.0)
    return values


# ---- main --------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--golden", default=os.path.join(HERE, "golden.json"),
                    help="golden digests (default: perfbench/golden.json)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(args.golden) as f:
        goldens = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads or args.workload not in goldens:
        fail(f"unknown workload '{args.workload}' (have: {', '.join(workloads)})")
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    binary = build()
    # A run stops at the first iteration that ends after --seconds; the
    # longest iteration (traced fig2_sweep) plus the extra calls fit in 120 s.
    timeout = 2 * args.seconds + 120

    out_dir = os.path.join(BUILD, "out", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
        if proc.returncode != 0:
            fail(f"{' '.join(cmd)} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])

        attempted, failed, reasons = count_ops(result, goldens[args.workload])
        if args.trace:
            values = per_layer(result)
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            kept = os.path.join(traces, f"{args.workload}-seed{args.seed}.json")
            shutil.copyfile(result["spans"], kept)
        else:
            values = {
                "wall_s": statistics.median(it["wall_s"] for it in result["iterations"]),
                "cpu_s": statistics.median(it["cpu_s"] for it in result["iterations"]),
                "setup_s": statistics.median(result["setup_s"]),
                "peak_rss_mb": result["peak_rss_mb"],
            }
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {timeout} s")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    print("manifest: " + json.dumps(result["manifest"], sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(result['iterations'])} iterations, {len(result['setup_s'])} set-up samples")
    for reason in reasons:
        print("FAILED " + reason)
    for name, unit in units.items():
        print(f"  {name:24s} {values[name]:.6g} {unit}")
    if args.trace:
        print(SHARE_NOTE)
        print(f"spans: {os.path.relpath(kept, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
