#!/usr/bin/env python3
"""Self-checks of the service benchmark, using existing server flags only.

Usage (from the root of a checkout):

    python3 perfbench/selfcheck.py [--seconds 10]

  oracle pin    the oracle reproduces perfbench/oracle_tiny.txt, and a copy
                with one expected tuple altered is rejected;
  failpoints    a churn_subscribe run against a server started with
                SEPREC_FAILPOINTS=wal.append:40:3 reports exactly the three
                refused loads in `failed` (none dropped, none retried) and
                no wrong answer;
  sensitivity   warm_social against `serve --max-closures 0` reads a closure
                hit ratio of 0, and its query_p50_ms is worse than the
                normal run's by more than the bound BENCHMARK.json gives it.

The traced run (server --trace validated by tools/validate_trace.py) is
part of every `run.py --trace 1` run. Exits 1 when any check fails.
"""

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build and process helpers)


def load(tools, work, workload, seconds, *extra):
    code, out = run.run_child(
        [tools["load"], "--cli", tools["cli"], "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--setups", "1",
         "--work", work, *extra])
    if not out.strip():
        sys.exit(f"selfcheck: load generator failed (exit {code})")
    return code, json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args()
    tools = run.build()
    os.chdir(run.ROOT)
    work = os.path.join(".bench_run", f"selfcheck-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    results = []

    def check(name, ok, detail):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")

    try:
        pin = os.path.join(run.HERE, "oracle_tiny.txt")
        code, _ = run.run_child([tools["load"], "--check-oracle", pin])
        altered = os.path.join(work, "altered.txt")
        with open(pin) as src, open(altered, "w") as dst:
            dst.write(src.read().replace("(p7, i14)", "(p7, i15)"))
        bad, _ = run.run_child([tools["load"], "--check-oracle", altered])
        check("oracle pin", code == 0 and bad == 1,
              f"pinned instance exit {code}, altered copy exit {bad}")

        code, r = load(tools, os.path.join(work, "failpoint"),
                       "churn_subscribe", args.seconds,
                       "--server-failpoints", "wal.append:40:3")
        ok = (code == 0 and r["mutations"] > 43 and
              r["refused_mutations"] == 3 and r["failed"] == 3 and
              r["wrong"] == 0)
        check("failpoints", ok,
              f"{r['refused_mutations']} refused of {r['mutations']} loads, "
              f"failed={r['failed']}/{r['attempted']} wrong={r['wrong']} "
              f"exit {code}")

        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bound = {m["name"]: m["bound"]
                     for m in json.load(f)["end_to_end"]}["query_p50_ms"]
        code_a, normal = load(tools, os.path.join(work, "normal"),
                              "warm_social", args.seconds)
        code_b, nocache = load(tools, os.path.join(work, "nocache"),
                               "warm_social", args.seconds,
                               "--max-closures", "0")
        ratio = nocache["query"]["p50_ms"] / normal["query"]["p50_ms"]
        ok = (code_a == 0 and code_b == 0 and
              nocache["closure_hit_ratio"] == 0 and
              nocache["window_closure_hits"] == 0 and ratio > 1 + bound and
              normal["closure_hit_ratio"] > 0.99)
        check("sensitivity", ok,
              f"closure hits {normal['closure_hit_ratio']:.3f} -> "
              f"{nocache['closure_hit_ratio']:.3f}, query_p50_ms "
              f"{normal['query']['p50_ms']:.3f} -> "
              f"{nocache['query']['p50_ms']:.3f} ({ratio:.2f}x; a "
              f"regression must exceed {1 + bound:.2f}x), exits "
              f"{code_a}/{code_b}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
