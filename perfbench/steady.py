#!/usr/bin/env python3
"""Checks that the benchmark is steady: runs every workload once per seed,
interleaving the workloads, and reports for each end-to-end metric the
median and the spread, i.e. (q3 - q1) / median over the seeds.

    python3 perfbench/steady.py --seeds 10 [--first-seed 1] [--workloads a,b]

Run from the root of a checkout. A metric passes when its spread is within
its bound in BENCHMARK.json, and is comfortable below a third of it.
Writes every run's result and record to .bench_build/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args()
    workloads = args.workloads.split(",")

    runs = {w: [] for w in workloads}
    for i in range(args.seeds):
        seed = args.first_seed + i
        # Rotate the order so no workload always runs first or last.
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            started = time.monotonic()
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(f"{w} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            record = json.loads(lines[-2])["record"]
            result = json.loads(lines[-1])
            wall = time.monotonic() - started
            runs[w].append({"seed": seed, "wall_s": wall, "record": record, "result": result})
            print(f"{w} seed {seed}: {wall:.1f} s wall, steal {record['steal_ticks']} ticks, "
                  f"ops_s {result['metrics']['ops_s']['value']:.1f}", file=sys.stderr)

    out_dir = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steady.json"), "w") as f:
        json.dump(runs, f, indent=1)

    worst = 0.0
    for w in workloads:
        print(f"\n{w} ({len(runs[w])} seeds)")
        print(f"  {'metric':<16} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs[w]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if spread <= m["bound"] / 3:
                verdict = "ok"
            elif spread <= m["bound"]:
                verdict = "within bound, not a third of it"
            else:
                verdict = "TOO NOISY"
            worst = max(worst, spread / m["bound"])
            print(f"  {m['name']:<16} {med:>12.5g} {spread:>8.4f} {m['bound']:>6}  {verdict}")
    print(f"\nworst spread / bound: {worst:.3f}")
    print("mean wall per run: " + ", ".join(
        f"{w} {statistics.mean(r['wall_s'] for r in runs[w]):.1f} s" for w in workloads))
    return 0 if worst <= 1 else 1


if __name__ == "__main__":
    sys.exit(main())
