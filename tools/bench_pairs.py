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

The JSON written to --out holds the Python version, `nproc`, whether
PYTHONDONTWRITEBYTECODE is set (non-empty: then no child writes a
bytecode cache, and each compiles `maa` from source), this command,
every run, and for each workload and end-to-end metric: both
medians, the change's relative move, how many pairs the change won, the
parent's quartiles, whether the gap between the medians exceeds the
parent's interquartile range (both null for a workload of one pair),
and whether the change stays within the metric's bound.  A run whose
last line is not a JSON object, as when it printed nothing or was killed
mid-line, counts as failed and reports no metric.  A metric that no
pair reports, as when every run of one side failed, has all of these
null but its bound.

After the pairs, `raw_children` times three CLI commands in fresh
children with the side's `src` first on PYTHONPATH: the two that run.py's
`cli_mac_s` and `selftest_s` time, `python -m maa.cli selftest --core
both` and `python -m maa.cli mac --key ... --input` on a seeded 2 KiB
file, and `python -S -m maa.cli selftest --core native`, a start with no
site module, which shows what the package itself loads.  Per command,
each side runs one uncounted warm-up child, then RAW_CHILDREN children
alternate between the sides.  Their wall times
are raw, with no speed factor: each side's median, quartiles and
times, and how many of the alternating pairs the change won.  The exit
code is 1 when any run failed or any child exited non-zero.
"""

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# fresh CLI children per side and command, after one uncounted warm-up
RAW_CHILDREN = 21

CLI = ["-m", "maa.cli"]


def seed_range(text):
    workload, _, seeds = text.partition(":")
    first, _, last = seeds.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        # a ValueError, which argparse reports as a usage error before
        # any run, not a KeyError after every other workload has run
        raise ValueError(f"no seeds in {text!r}")
    return workload, seeds


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
    last = proc.stdout.strip().rpartition("\n")[2]
    try:
        result = json.loads(last) if last.startswith("{") else None
    except ValueError:  # a line cut short, as by a child killed mid-print
        result = None
    result = result or {"correct": False, "attempted": 0, "failed": 0,
                        "metrics": {}}
    result.update(seed=seed, exit=proc.returncode)
    return result


def quartiles(values):
    return statistics.quantiles(values, n=4, method="inclusive")[::2]


def compare(metric, parent, change):
    """One end-to-end metric over the pairs where both runs report it."""
    higher, name = metric["better"] == "higher", metric["name"]
    pairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
             for a, b in zip(parent, change)
             if name in a["metrics"] and name in b["metrics"]]
    p, c = [a for a, _ in pairs], [b for _, b in pairs]
    pm = cm = move = None
    if pairs:
        pm, cm = statistics.median(p), statistics.median(c)
        move = (cm - pm) / pm if pm else 0.0
    # quartiles take two values at least: one pair reports none
    parent_quartiles = quartiles(p) if len(p) > 1 else None
    wins = sum((b > a) if higher else (b < a) for a, b in pairs)
    return {"parent_median": pm, "change_median": cm,
            "change_vs_parent": move,
            "change_better_pairs": f"{wins}/{len(p)}",
            "parent_quartiles": parent_quartiles,
            "gap_exceeds_parent_iqr": None if parent_quartiles is None
            else abs(cm - pm) > parent_quartiles[1] - parent_quartiles[0],
            "bound": metric["bound"],
            "within_bound": None if move is None
            else (-move if higher else move) <= metric["bound"]}


def cli_child(root, args):
    """(wall seconds, exit code) of `python *args` run in root, with root's
    src first on PYTHONPATH; args are interpreter flags, then `-m maa.cli`
    and the command."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args],
                          cwd=root, env=env, capture_output=True)
    return time.perf_counter() - t0, proc.returncode


def raw_children(sides, commands):
    """({command: each side's raw wall times, and the change's wins}, whether
    every child, warm-ups included, exited 0)."""
    report, ok = {}, True
    for name, args in commands.items():
        times = {side: [] for side in sides}
        for root in sides.values():
            clean(root)
            ok &= cli_child(root, args)[1] == 0  # warm-up, not counted
        for i in range(RAW_CHILDREN):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for side in order:
                wall, code = cli_child(sides[side], args)
                ok &= code == 0
                times[side].append(wall)
        print(f"raw {name}: " + ", ".join(
            f"{side} {statistics.median(t):.4f} s" for side, t in
            times.items()), flush=True)
        report[name] = {side: {"median_s": statistics.median(t),
                               "quartiles_s": quartiles(t), "runs_s": t}
                        for side, t in times.items()}
        report[name]["change_faster_pairs"] = "{}/{}".format(
            sum(c < p for p, c in zip(times["parent"], times["change"])),
            RAW_CHILDREN)
    return report, ok


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

    with tempfile.TemporaryDirectory() as tmp:
        message = Path(tmp) / "message.bin"
        message.write_bytes(random.Random(2048).randbytes(2048))
        raw, raw_ok = raw_children(sides, {
            "selftest": [*CLI, "selftest", "--core", "both"],
            "mac": [*CLI, "mac", "--key", "00FF00FF00000000", "--input",
                    str(message)],
            "selftest_no_site": ["-S", *CLI, "selftest", "--core",
                                 "native"]})

    report = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        # recorded, not changed: the runs get the environment as it is
        "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
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
        "raw_children": raw,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if raw_ok and all(r["exit"] == 0 for side in runs.values()
                               for rs in side.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
