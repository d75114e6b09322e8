#!/usr/bin/env python3
"""A/A repeatability of bench_e2e: run each workload N times, each run a fresh
process on a fresh cluster with another seed, and print per end-to-end metric
the median, the quartiles and (Q3 - Q1) / median next to the metric's bound in
BENCHMARK.json. This is how the bounds there were chosen and how they are
checked again: a spread above its bound is flagged `OVER`, one above a third of
it `wide`.

    python3 bench_e2e/aa.py [--runs 10] [--first-seed 1] [--workload NAME]...

Runs the `command` of BENCHMARK.json from the repository root, as the driver
does. Exits non-zero if a run fails, is incorrect, or a spread is over its
bound (the spread of `setup_s` is printed but not judged, as in the driver).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bad = False
    for w in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {p.returncode}", file=sys.stderr)
                bad = True
                continue
            out = json.loads(lines[-1])
            if not out["correct"] or out["failed"]:
                print(f"{w} seed {seed}: correct={out['correct']} failed={out['failed']}/{out['attempted']}", file=sys.stderr)
                bad = True
            for name, m in out["metrics"].items():
                values[name].append(m["value"])
        print(f"== {w} ({args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1})")
        print(f"{'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/med':>9}{'bound':>7}")
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > m["bound"]:
                flag = " OVER"
                bad = bad or m["name"] != "setup_s"
            elif spread > m["bound"] / 3:
                flag = " wide"
            print(f"{m['name']:<22}{med:>14.4f}{q1:>14.4f}{q3:>14.4f}{spread:>9.3f}{m['bound']:>7.2f}{flag}")
        sys.stdout.flush()
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
