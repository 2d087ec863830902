#!/usr/bin/env python3
"""Benchmark two checkouts of the repository in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE \\
        --pairs reference:2801-2810 bulk:2811-2813 short:2814-2816 \\
        --out BENCH_<n>.json

PARENT and CHANGE are directories that each hold a checkout (a `git
archive` of a commit, say).  For each workload and seed it runs
`python3 perfbench/run.py --workload W --seed S --seconds <run_seconds>
--trace 0` once in each checkout, with the run_seconds of CHANGE's
BENCHMARK.json: the parent first on odd seeds and the change first on
even ones, so that a drift of the machine's speed falls on both sides.
Before every run it deletes the checkout's `__pycache__` directories
and its `.perfbench` directory, so that no run reuses another's files.

The JSON written to --out holds the Python version, `nproc`, this
command, every run, and for each workload and end-to-end metric: both
medians, the change's relative move, how many pairs the change won, the
parent's quartiles, whether the gap between the medians exceeds the
parent's interquartile range, and whether the change stays within the
metric's bound.  The exit code is 1 when any run failed.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text):
    workload, _, seeds = text.partition(":")
    first, _, last = seeds.partition("-")
    return workload, list(range(int(first), int(last or first) + 1))


def clean(root):
    for cache in list(root.rglob("__pycache__")):
        shutil.rmtree(cache)
    shutil.rmtree(root / ".perfbench", ignore_errors=True)


def run_once(root, workload, seed, seconds):
    clean(root)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result.update(seed=seed, exit=proc.returncode)
    return result


def compare(metric, parent, change):
    """One end-to-end metric over the pairs where both runs report it."""
    higher, name = metric["better"] == "higher", metric["name"]
    pairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
             for a, b in zip(parent, change)
             if name in a["metrics"] and name in b["metrics"]]
    p, c = [a for a, _ in pairs], [b for _, b in pairs]
    pm, cm = statistics.median(p), statistics.median(c)
    q1, _, q3 = statistics.quantiles(p, n=4, method="inclusive")
    move = (cm - pm) / pm if pm else 0.0
    wins = sum((b > a) if higher else (b < a) for a, b in pairs)
    return {"parent_median": pm, "change_median": cm,
            "change_vs_parent": move,
            "change_better_pairs": f"{wins}/{len(p)}",
            "parent_quartiles": [q1, q3],
            "gap_exceeds_parent_iqr": abs(cm - pm) > q3 - q1,
            "bound": metric["bound"],
            "within_bound": (-move if higher else move) <= metric["bound"]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--pairs", nargs="+", type=seed_range, required=True,
                   metavar="WORKLOAD:FIRST-LAST")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs = {side: {} for side in sides}
    for workload, seeds in args.pairs:
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                result = run_once(sides[side], workload, seed,
                                  spec["run_seconds"])
                runs[side].setdefault(workload, []).append(result)
                print(f"{workload} seed {seed} {side}: exit "
                      f"{result['exit']}, failed {result['failed']}/"
                      f"{result['attempted']}", flush=True)

    report = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "command": "python3 tools/bench_pairs.py " + " ".join(
            sys.argv[1:] if argv is None else argv),
        "parent": runs["parent"], "change": runs["change"],
        "comparison": {w: {m["name"]: compare(m, runs["parent"][w],
                                              runs["change"][w])
                           for m in spec["end_to_end"]}
                       for w, _ in args.pairs},
        "fail_frac": {w: {side: "{}/{}".format(
            sum(r["failed"] for r in runs[side][w]),
            sum(r["attempted"] for r in runs[side][w])) for side in sides}
            for w, _ in args.pairs},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(r["exit"] == 0 for side in runs.values()
                    for rs in side.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
