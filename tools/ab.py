#!/usr/bin/env python3
"""A/B comparison of two git revisions on the BENCHMARK.json yardstick.

Checks each revision out into a git worktree of its own, builds the
benchmark there, and runs the `command` of BENCHMARK.json for N alternating
pairs per workload: pair k runs both revisions with seed `first_seed + k`,
the base first on even k and the change first on odd k, so slow drift of
the machine falls on both sides alike. For every metric it prints the per-pair
ratio change/base: the median, the interquartile range, and in how many
pairs the change moved in the metric's `better` direction.

End-to-end metrics (the default) also get a verdict against their `bound`:

* `unresolved` when the base's own spread, (Q3 - Q1) / median of its runs,
  exceeds the bound: the yardstick cannot tell a move of that size here;
* `fail` when the median ratio is worse than 1 -/+ bound;
* `pass` otherwise.

A run that reports `correct: false` or failed operations fails its
workload. With `--trace` the per-layer metrics of one traced round per run
are compared instead (no bounds, no verdict).

    python3 tools/ab.py BASE CHANGE [--pairs 5] [--first-seed 101]
        [--workload NAME]... [--trace] [--workdir DIR] [--json FILE]

Run from inside the repository. Exits non-zero if any verdict is `fail`.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile


def git(*args, cwd):
    return subprocess.run(["git", *args], cwd=cwd, check=True, stdout=subprocess.PIPE, text=True).stdout.strip()


def build_command(command):
    """The build step of a `cargo run ... -- ...` command: `cargo build`
    with the same options, so no build lands inside a timed run."""
    if command[:2] != ["cargo", "run"]:
        return None
    cut = command.index("--") if "--" in command else len(command)
    return ["cargo", "build", *command[2:cut]]


def run_once(tree, bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "1" if trace else "0"]
    p = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, timeout=1800)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None, f"exit {p.returncode}"
    out = json.loads(lines[-1])
    problem = None
    if not out["correct"] or out["failed"]:
        problem = f"correct={out['correct']} failed={out['failed']}/{out['attempted']}"
    return {name: m["value"] for name, m in out["metrics"].items()}, problem


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(metric, base, change):
    """Per-pair ratios change/base and the verdict for one metric."""
    pairs = [(b, c) for b, c in zip(base, change) if b]
    ratios = [c / b for b, c in pairs]
    if not ratios:
        return None
    higher = metric.get("better") == "higher"
    better = sum(1 for r in ratios if (r > 1 if higher else r < 1))
    q1, med, q3 = quartiles(ratios)
    bq1, bmed, bq3 = quartiles(base)
    base_spread = (bq3 - bq1) / bmed if bmed else float("inf")
    row = {"metric": metric["name"], "median_ratio": med, "ratio_q1": q1, "ratio_q3": q3,
           "pairs": len(ratios), "pairs_better": better, "base_median": bmed,
           "change_median": quartiles(change)[1], "base_spread": base_spread}
    bound = metric.get("bound")
    if bound is not None:
        worse = med < 1 - bound if higher else med > 1 + bound
        if base_spread > bound:
            row["verdict"] = "unresolved"
        elif worse:
            row["verdict"] = "fail"
        else:
            row["verdict"] = "pass"
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", action="store_true", help="compare the per-layer metrics of traced runs")
    ap.add_argument("--workdir", help="where the worktrees go (default: a fresh temporary directory)")
    ap.add_argument("--json", help="also write every run and row here")
    args = ap.parse_args()

    repo = git("rev-parse", "--show-toplevel", cwd=os.getcwd())
    workdir = args.workdir or tempfile.mkdtemp(prefix="volap-ab-")
    os.makedirs(workdir, exist_ok=True)
    trees = {}
    try:
        for side, rev in (("base", args.base), ("change", args.change)):
            sha = git("rev-parse", "--verify", rev + "^{commit}", cwd=repo)
            path = os.path.join(workdir, side)
            git("worktree", "add", "--detach", path, sha, cwd=repo)
            trees[side] = path
            print(f"{side}: {rev} = {sha[:12]} in {path}", flush=True)
        with open(os.path.join(trees["base"], "BENCHMARK.json")) as f:
            bench = json.load(f)
        build = build_command(bench["command"])
        if build:
            for side, path in trees.items():
                print(f"building {side} ...", flush=True)
                subprocess.run(build, cwd=path, check=True)
        metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
        workloads = args.workload or [w["name"] for w in bench["workloads"]]
        report = {"base": args.base, "change": args.change, "trace": args.trace, "workloads": {}}
        bad = False
        for w in workloads:
            values = {"base": [], "change": []}
            problems = []
            for k in range(args.pairs):
                seed = args.first_seed + k
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                got = {}
                for side in order:
                    m, problem = run_once(trees[side], bench, w, seed, args.trace)
                    if problem:
                        problems.append(f"{side} seed {seed}: {problem}")
                    got[side] = m
                if got["base"] is None or got["change"] is None:
                    continue
                for side in ("base", "change"):
                    values[side].append(got[side])
                if not args.trace:
                    ratio = {m["name"]: got["change"].get(m["name"], 0) / got["base"][m["name"]]
                             for m in metrics if got["base"].get(m["name"])}
                    print(f"  {w} pair {k} (seed {seed}): "
                          + ", ".join(f"{n} x{r:.3f}" for n, r in ratio.items()), flush=True)
            rows = []
            for m in metrics:
                base = [v[m["name"]] for v in values["base"] if m["name"] in v]
                change = [v[m["name"]] for v in values["change"] if m["name"] in v]
                row = compare(m, base, change)
                if row:
                    rows.append(row)
            print(f"== {w}: {len(values['base'])} pairs, seeds {args.first_seed}..{args.first_seed + args.pairs - 1}")
            print(f"{'metric':<34}{'ratio':>8}{'q1':>8}{'q3':>8}{'better':>8}{'base spread':>12}  verdict")
            for r in rows:
                print(f"{r['metric']:<34}{r['median_ratio']:>8.3f}{r['ratio_q1']:>8.3f}{r['ratio_q3']:>8.3f}"
                      f"{r['pairs_better']:>5}/{r['pairs']:<2}{r['base_spread']:>12.3f}  {r.get('verdict', '')}")
                bad = bad or r.get("verdict") == "fail"
            for p in problems:
                print(f"  FAILED RUN {p}")
            bad = bad or bool(problems)
            sys.stdout.flush()
            report["workloads"][w] = {"runs": values, "rows": rows, "problems": problems}
        if args.json:
            with open(args.json, "w") as f:
                json.dump(report, f, indent=1)
    finally:
        for path in trees.values():
            subprocess.run(["git", "worktree", "remove", "--force", path], cwd=repo)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
