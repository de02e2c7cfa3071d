#!/usr/bin/env python3
"""A/B pairs runner: the parent commit against a change, same benchmark.

    python3 perfbench/pairs.py --parent HEAD~1 --change HEAD \\
        --workloads thrash,genprog --pairs 10 --seed 1

Exports both revisions with `git archive` into a temporary directory
outside the repository, puts this directory's benchmark files into both
trees (so both sides run identical benchmark code and settings), builds
each, and runs the two sides back to back for every pair, alternating which
runs first. For every workload x end-to-end metric it reports each side's
median and quartiles, the pairs the change won, and the verdict of the
rule for claiming a gain: the change wins at least 9 of 10 pairs (ties
count for neither) and the medians differ by more than the parent's
interquartile range. Otherwise a metric whose parent spread (IQR) is
wider than its bound in BENCHMARK.json is unresolved, unless every change
run beat every parent run; a change whose median is worse than the
parent's by more than the bound is a regression. It also reports whether
both sides simulated identically (same stats digest), which a change meant
only to speed the simulator up must keep.

Every run lasts run_seconds of BENCHMARK.json, the length the bounds were
set from. Fewer than 10 pairs is refused (exit 2): the gain rule needs ten.

Re-check a claim on the held-out seed recorded in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def export(repo, rev, dest):
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", repo, "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    shutil.rmtree(os.path.join(dest, "perfbench"), ignore_errors=True)
    shutil.copytree(HERE, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    subprocess.run(["dune", "build", "--root", dest, "--cache=disabled",
                    "--display=quiet", "./perfbench/bench.exe"],
                   cwd=dest, check=True)


def run(tree, workload, seed, seconds):
    exe = os.path.join(tree, "_build", "default", "perfbench", "bench.exe")
    out = subprocess.run([exe, "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=tree, check=True, capture_output=True,
                         text=True).stdout.splitlines()
    result = json.loads(out[-1])
    digest = next(l.split()[1] for l in out if l.split()[:1] == ["stats_digest"])
    if not result["correct"] or result["failed"]:
        sys.exit(f"pairs.py: {tree}: {workload} failed: {out[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}, digest


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(parent, change, better, bound):
    n = len(parent)
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pm, pq1, pq3 = summary(parent)
    cm, _, _ = summary(change)
    gain = sign * (cm - pm)
    if wins * 10 >= 9 * n and gain > pq3 - pq1:
        return wins, "gain"
    if pq3 - pq1 > bound * abs(pm):
        separated = all(sign * (c - p) > 0 for c in change for p in parent)
        return wins, "no claim" if separated else "unresolved"
    if -gain > bound * abs(pm):
        return wins, "regression"
    return wins, "no claim"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--workloads", default="thrash,genprog,campaign-j2")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.pairs < 10:
        print("pairs.py: the gain rule needs at least 10 pairs",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    work = tempfile.mkdtemp(prefix="perfbench-pairs-")
    try:
        trees = {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            trees[side] = os.path.join(work, side)
            export(ROOT, rev, trees[side])
        for w in args.workloads.split(","):
            vals = {"parent": {}, "change": {}}
            digests = {"parent": set(), "change": set()}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    metrics, digest = run(trees[side], w, args.seed, seconds)
                    digests[side].add(digest)
                    for k, v in metrics.items():
                        vals[side].setdefault(k, []).append(v)
            same = digests["parent"] == digests["change"]
            print(f"\n{w}: {args.pairs} pairs, seed {args.seed}, "
                  f"{seconds} s per run; simulated statistics "
                  f"{'identical' if same else 'DIFFER'} on both sides")
            print(f"  {'metric':24} {'parent median [q1, q3]':34} "
                  f"{'change median [q1, q3]':34} wins  verdict")
            for k, m in spec.items():
                p, c = vals["parent"][k], vals["change"][k]
                wins, v = verdict(p, c, m["better"], m["bound"])
                fmt = "{:.5g} [{:.5g}, {:.5g}]"
                print(f"  {k:24} {fmt.format(*summary(p)):34} "
                      f"{fmt.format(*summary(c)):34} {wins:>2}/{args.pairs} {v}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
