#!/usr/bin/env python3
"""Run the benchmark on several workloads and seeds and summarise each metric.

    python3 perfbench/repeat.py                      # every workload, seed 1
    python3 perfbench/repeat.py --workloads short --seeds 1-10 [--trace 1]

Runs perfbench/run.py one workload and seed at a time, with the run_seconds
of BENCHMARK.json.  For each workload it prints every metric with its unit,
the median over the seeds and the spread: the distance between the first
and third quartiles (statistics.quantiles(values, n=4)) as a share of the
median.  With --out the runs and the summaries are also written as JSON.
The exit code is 1 when any run failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(runs):
    values = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            values.setdefault(name, (metric["unit"], []))[1].append(
                metric["value"])
    summary = {}
    for name, (unit, v) in values.items():
        median = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        summary[name] = {"unit": unit, "median": median,
                         "spread": (q3 - q1) / median if median else None,
                         "min": min(v), "max": max(v)}
    return summary


def run_once(workload, seed, trace):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result.update(seed=seed, exit=proc.returncode,
                  elapsed_s=time.perf_counter() - t0)
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(
        w["name"] for w in SPEC["workloads"]))
    p.add_argument("--seeds", default="1", type=seed_list,
                   help="one seed or a range such as 1-10")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    report = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.trace)
            ok &= result["exit"] == 0
            runs.append(result)
            print(f"{workload} seed {seed}: exit {result['exit']}, "
                  f"fail_frac {result['failed']}/{result['attempted']}, "
                  f"{result['elapsed_s']:.1f} s", flush=True)
        summary = summarise(runs)
        for name, s in summary.items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:40} {s['median']:<14.6g} {s['unit']:9} "
                  f"spread {spread}")
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        args.out.write_text(json.dumps({"trace": args.trace,
                                        "workloads": report}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
