"""Steadiness report: repeat a workload over several seeds and summarise.

Run from the repository root:

    python3 perfbench/report.py --workload spectral --seeds 1-10

Each seed is one run of ``run.py`` in a fresh process, one after another.
For every end-to-end metric the report prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median and
the metric's bound from BENCHMARK.json, so bounds can be set from measured
spreads.  Each run measures ``run_seconds`` of BENCHMARK.json.  The summary is
saved to ``perfbench/out/report-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if done.returncode:
        sys.exit(f"seed {seed}: run.py exited {done.returncode}\n"
                 f"{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"seed {seed}: run reported correct = false", file=sys.stderr)
    return result


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)
            if statistics.median(values) else 0.0, "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = ap.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    results = [run(args.workload, s, seconds) for s in args.seeds]
    summary = {"workload": args.workload, "seeds": args.seeds,
               "seconds": seconds, "end_to_end": {}}
    print(f"{args.workload}: {len(args.seeds)} seeds, {seconds} s each; "
          f"failed/attempted per run: "
          + " ".join(f"{r['failed']}/{r['attempted']}" for r in results))
    print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        s = summarise([r["metrics"][name]["value"] for r in results])
        bound = bounds.get(name, {}).get("bound")
        s["bound"] = bound
        summary["end_to_end"][name] = s
        flag = "" if bound is None else (
            "ok" if s["spread"] <= bound / 3 else
            "within bound" if s["spread"] <= bound else "WIDER THAN BOUND")
        print(f"  {name:14s} {s['median']:12.6g} {s['q1']:12.6g} "
              f"{s['q3']:12.6g} {s['spread']:8.3f} {bound!s:>6s} {flag}")
    with open(os.path.join(HERE, "out", f"report-{args.workload}.json"),
              "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
