#!/usr/bin/env python3
"""The seprec service benchmark: one command per (workload, seed) run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload warm_social --seed 1 --seconds 30 \
        --trace 0

Builds `seprec_cli` and the benchmark's two programs from source into
$CARGO_TARGET_DIR (default .bench_build), then:

  --trace 0  runs the socket load generator (perfbench_load) once and
             prints the end-to-end metrics;
  --trace 1  runs it twice more with one set-up each, the second time with
             the server's own --trace file (validated by the unchanged
             tools/validate_trace.py and folded into counts), then the
             in-process layer harness (perfbench_layers), and prints the
             per-layer metrics.

Human-readable lines (metric, unit, sample count) go to stdout first; the
last stdout line is one JSON object {correct, attempted, failed, metrics}.
A result file with provenance lands in .bench_results/. Exits 1 on any
wrong answer, 2 when the run could not be made (for example when the
seprec sources are missing).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("warm_social", "cold_paper", "churn_subscribe")
# Budget for one child process; the whole run must end within 180 s.
CHILD_TIMEOUT_S = 150

# The gated end-to-end metrics (BENCHMARK.json lists the same names).
END_TO_END = (
    ("query_p50_ms", "ms"),
    ("query_qps", "1/s"),
    ("load_p50_ms", "ms"),
    ("delta_lag_p50_ms", "ms"),
    ("setup_s", "s"),
    ("server_peak_rss_mb", "MiB"),
    ("disk_bytes_per_row", "B"),
)
# Printed with their sample counts and recorded, but not gated: on a
# shared 4-core host their quartile distance over median across seeds ran
# 17-35% (queries) and 30-70% (single-row fsync'd mutations), wider than
# any usable bound.
REPORTED_ONLY = (
    ("query_p99_ms", "ms"),
    ("load_p99_ms", "ms"),
    ("delta_lag_p99_ms", "ms"),
)

PER_LAYER = (
    ("server.decode_us", "us"),
    ("server.encode_us", "us"),
    ("server.execute_us", "us"),
    ("server.wait_ms", "ms"),
    ("server.apply_us", "us"),
    ("server.notify_ms", "ms"),
    ("server.closure_hit_ratio", "ratio"),
    ("server.plan_hit_ratio", "ratio"),
    ("server.closure_patch_ratio", "ratio"),
    ("server.trace_overhead_ms", "ms"),
    ("trace.closure_hit_ratio", "ratio"),
    ("trace.rounds_per_request", "count"),
    ("trace.probes_per_request", "count"),
    ("core.create_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("core.execute_us", "us"),
    ("core.execute_reuse_us", "us"),
    ("core.support_us", "us"),
    ("datalog.parse_us", "us"),
    ("opt.pipeline_ms", "ms"),
    ("plan.join_order_us", "us"),
    ("separable.detect_us", "us"),
    ("separable.eval_us", "us"),
    ("separable.max_relation_tuples", "count"),
    ("separable.iterations", "count"),
    ("magic.eval_us", "us"),
    ("magic.max_relation_tuples", "count"),
    ("eval.probes_per_answer", "count"),
    ("eval.seminaive_ms", "ms"),
    ("eval.dred_insert_us", "us"),
    ("eval.dred_delete_us", "us"),
    ("storage.insert_ns", "ns"),
    ("storage.dedup_novel_ratio", "ratio"),
    ("storage.index_build_ms", "ms"),
    ("storage.index_probe_ns", "ns"),
    ("storage.contains_ns", "ns"),
    ("storage.sink_insert_ns", "ns"),
    ("storage.segment_scan_ns_per_row", "ns"),
    ("storage.wal_append_us", "us"),
    ("storage.wal_bytes_per_row", "B"),
    ("storage.snapshot_save_ms", "ms"),
    ("storage.snapshot_load_ms", "ms"),
    ("loadgen.cpu_share", "ratio"),
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_child(argv, timeout=CHILD_TIMEOUT_S):
    """Runs argv in its own process group; kills the whole group (a load
    generator and its server) if it overruns. Returns (code, stdout)."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{os.path.basename(argv[0])} overran {timeout} s")
    return proc.returncode, out


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build")


def build():
    for required in ("src/CMakeLists.txt", "tools/CMakeLists.txt",
                     "tools/seprec_cli.cc", "tools/validate_trace.py"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail(f"missing {required}: run from a full seprec checkout")
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "seprec_cli", "perfbench_load", "perfbench_layers"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return {
        "cli": os.path.join(bdir, "seprec_tools", "seprec_cli"),
        "load": os.path.join(bdir, "perfbench_load"),
        "layers": os.path.join(bdir, "perfbench_layers"),
        "build_type": cache_value(bdir, "CMAKE_BUILD_TYPE"),
    }


def cache_value(bdir, key):
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def provenance():
    commit = "unknown"
    # Only the checkout's own repository counts: git would otherwise walk
    # up into whatever repository encloses the checkout.
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    # The checkout the benchmark runs in need not be a git repository, so
    # also record a digest of the sources that were built.
    digest = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "fsync": "always"}


def load_run(tools, args, work, setups, trace_file=None):
    argv = [tools["load"], "--cli", tools["cli"], "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--work", work, "--setups", str(setups)]
    if trace_file:
        argv += ["--server-trace", trace_file]
    code, out = run_child(argv)
    if code not in (0, 1) or not out.strip():
        fail(f"load generator failed (exit {code})")
    return code == 0, json.loads(out.strip().splitlines()[-1])


def end_to_end(r):
    return {
        "query_p50_ms": (r["query"]["p50_ms"], r["query"]["samples"]),
        "query_p99_ms": (r["query"]["p99_ms"], r["query"]["samples"]),
        "query_qps": (r["query_qps"], r["qps_buckets"]),
        "load_p50_ms": (r["load"]["p50_ms"], r["load"]["samples"]),
        "load_p99_ms": (r["load"]["p99_ms"], r["load"]["samples"]),
        "delta_lag_p50_ms": (r["delta_lag"]["p50_ms"],
                             r["delta_lag"]["samples"]),
        "delta_lag_p99_ms": (r["delta_lag"]["p99_ms"],
                             r["delta_lag"]["samples"]),
        "setup_s": (r["setup_median_s"], len(r["setup_s"])),
        "server_peak_rss_mb": (r["server_peak_rss_mb"], r["instances"]),
        "disk_bytes_per_row": (r["disk_bytes_per_row"], r["live_rows"]),
    }


def fold_trace(path):
    """Counts from the server's own trace: requests (one processor-cache
    event each), closure-cache outcomes, fixpoint rounds, join probes."""
    requests = closure_hit = closure_miss = rounds = probes = 0
    with open(path) as f:
        for line in f:
            ev = json.loads(line)
            kind = ev["ev"]
            if kind == "cache":
                if ev["phase"] == "processor":
                    requests += 1
                elif ev["phase"] == "closure" and ev["cause"] == "hit":
                    closure_hit += 1
                elif ev["phase"] == "closure" and ev["cause"] == "miss":
                    closure_miss += 1
            elif kind == "round_end":
                rounds += 1
            elif kind == "rule":
                probes += ev["probes"]
    lookups = closure_hit + closure_miss
    return {
        "trace.closure_hit_ratio": closure_hit / lookups if lookups else 0.0,
        "trace.rounds_per_request": rounds / max(requests, 1),
        "trace.probes_per_request": probes / max(requests, 1),
    }


def per_layer(tools, args, work):
    ok_plain, plain = load_run(tools, args, os.path.join(work, "plain"), 1)
    trace_file = os.path.join(work, "server-trace.jsonl")
    ok_traced, traced = load_run(tools, args, os.path.join(work, "traced"),
                                 1, trace_file)
    validate = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "validate_trace.py"),
         trace_file], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if validate.returncode != 0:
        fail("server trace failed tools/validate_trace.py")
    code, out = run_child([tools["layers"], "--workload", args.workload,
                           "--seed", str(args.seed), "--work",
                           os.path.join(work, "layers")])
    if code not in (0, 1) or not out.strip():
        fail(f"layer harness failed (exit {code})")
    layers = json.loads(out.strip().splitlines()[-1])
    # Keep the harness's spans beside the result file.
    os.makedirs(".bench_results", exist_ok=True)
    shutil.copy(os.path.join(work, "layers", "spans.jsonl"),
                os.path.join(".bench_results", f"{args.workload}-seed"
                             f"{args.seed}-spans.jsonl"))
    patches, drops = plain["closure_patches"], plain["closure_drops"]
    metrics = {name: layers[name] for name, _ in PER_LAYER if name in layers}
    metrics.update(fold_trace(trace_file))
    metrics.update({
        "server.wait_ms": plain["query"]["p50_ms"] -
        layers["server.execute_us"] / 1e3,
        "server.closure_hit_ratio": plain["closure_hit_ratio"],
        "server.plan_hit_ratio": plain["plan_hit_ratio"],
        "server.closure_patch_ratio":
            patches / (patches + drops) if patches + drops else 0.0,
        "server.trace_overhead_ms":
            traced["query"]["p50_ms"] - plain["query"]["p50_ms"],
        "loadgen.cpu_share": plain["loadgen_cpu_s"] / plain["window_s"],
    })
    samples = {name: 1 for name in metrics}
    samples.update({"server.wait_ms": plain["query"]["samples"],
                    "server.trace_overhead_ms": traced["query"]["samples"]})
    ok = ok_plain and ok_traced and layers["wrong"] == 0
    return ok, plain, metrics, samples


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    tools = build()
    code, _ = run_child([tools["load"], "--check-oracle",
                         os.path.join(HERE, "oracle_tiny.txt")])
    if code != 0:
        fail("the oracle disagrees with perfbench/oracle_tiny.txt")

    # Relative to the checkout root, so the server's socket path stays
    # short (sun_path holds 108 bytes) wherever the checkout lives.
    os.chdir(ROOT)
    work = os.path.join(".bench_run",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    started = time.time()
    try:
        if args.trace == 0:
            ok, run = load_run(tools, args, os.path.join(work, "e2e"), 4)
            measured = end_to_end(run)
            units = dict(END_TO_END)
            shown = dict(END_TO_END + REPORTED_ONLY)
            samples = {k: n for k, (_, n) in measured.items()}
            metrics = {k: v for k, (v, _) in measured.items()}
        else:
            ok, run, metrics, samples = per_layer(tools, args, work)
            units = shown = dict(PER_LAYER)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = run["attempted"], run["failed"]
    for name in shown:
        extra = ""
        if name.endswith("p99_ms"):
            stem = name[:-len("p99_ms")]
            key = {"query_": "query", "load_": "load",
                   "delta_lag_": "delta_lag"}[stem]
            extra = (f", each of {run[key]['p99_parts']} part(s) leaves "
                     f">= {run[key]['beyond_p99']} beyond p99")
        if name not in units:
            extra += ", not gated"
        print(f"{args.workload:16s} {name:34s} {metrics[name]:14.6f} "
              f"{shown[name]:6s} (n={samples[name]}{extra})")
    print(f"{args.workload:16s} {'failed_frac':34s} "
          f"{failed / max(attempted, 1):14.6f} ratio  "
          f"({failed}/{attempted}, {run['wrong']} wrong)")

    result = {
        "correct": ok and run["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    os.makedirs(".bench_results", exist_ok=True)
    record = dict(result)
    record.update(provenance())
    record.update({
        "reported_only": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in REPORTED_ONLY
                          if args.trace == 0},
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "build_type": tools["build_type"],
        "loadgen_cpu_s": run["loadgen_cpu_s"], "window_s": run["window_s"],
        "query_clients": run["query_clients"], "samples": samples,
        "failed_frac": failed / max(attempted, 1),
        "wall_s": time.time() - started,
    })
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(".bench_results", name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
