#!/usr/bin/env python3
"""The maa benchmark: one workload per run, timed end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 8 --trace 0

Workloads (inputs come from --seed alone):

  bulk       four messages of 64 KiB to 1 MiB (every length mod 4) under
             one key, on the native byte path
             nativecore.native_mac(key, maacore.message_blocks(payload)).
  short      messages of 1-64 bytes, each under its own fresh key, on the
             same native byte path.  Closed loop, one client.
  reference  the gate core's byte path maacore.mac_message, warm, on 24
             messages of 1-24 bytes plus one of 396 blocks that straddles
             the 256-block segment boundary, under one key.

The workload decides what the timed loop drives; it runs for --seconds in
all, split over the rounds of a run.  Each round also runs the same
probes on the workload's own generated inputs: a fresh interpreter that
imports maa and loads the corpus (set-up time), the gate core on the
480-block reference sample with its memo tables cleared (cold) and then
filled (warm), `python -m maa.cli mac --input` on a generated file, and
`python -m maa.cli selftest --core both`, each CLI call in a fresh
process.  So every end-to-end metric exists on every workload.

With --trace 0 the end-to-end metrics of BENCHMARK.json are measured with
tracing off.  Every timing is scaled to a nominal machine speed by a fixed
calibration loop run around the timed part (see timed()).  With --trace 1
a fixed amount of work (independent of --seconds, so call and memo counts
repeat for a seed) runs once untraced and once traced, and the per-layer
metrics and the tracing overhead are reported; the spans are written to
.perfbench/spans-<workload>.json.gz.

Every MAC is compared with nativecore.mac_values on words this script
unpacks itself with struct; the CLI's stdout is compared the same way and
selftest must exit 0 and pass 526/526.  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}; the exit code
is 1 when any check failed, 2 on bad usage or a missing package.
"""

import argparse
import contextlib
import gc
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import struct
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
try:
    from maa import cli, kat, maacore, nativecore
    from maa.wordcore import Block
except ModuleNotFoundError:
    nativecore = None

from tracer import Memos, Tracer, layer_metric_names  # noqa: E402

WORKLOADS = ("bulk", "short", "reference")

END_TO_END = (
    ("setup_s", "s"),
    ("mib_per_s", "MiB/s"),
    ("msgs_per_s", "msg/s"),
    ("msg_p50_us", "us"),
    ("msg_p99_us", "us"),
    ("gate_cold_blocks_per_s", "blocks/s"),
    ("gate_warm_blocks_per_s", "blocks/s"),
    ("cli_mac_s", "s"),
    ("selftest_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("cli_peak_rss_mib", "MiB"),
)

SELFTEST_PASS = "selftest: 526/526 checks passed"

# `python -m maa.cli`, plus the child's own peak RSS on stderr.  VmHWM is
# read because ru_maxrss counts the parent's pages the child was forked
# with.
CLI_CODE = ("import runpy, sys\n"
            "try:\n"
            "    runpy.run_module('maa.cli', run_name='__main__', "
            "alter_sys=True)\n"
            "finally:\n"
            "    with open('/proc/self/status') as fh:\n"
            "        print(*[l for l in fh if l.startswith('VmHWM')], "
            "file=sys.stderr)\n")

SETUP_CODE = ("import time\n"
              "t = time.perf_counter()\n"
              "import maa, maa.cli\n"
              "from maa import kat\n"
              "kat.load_vectors()\n"
              "print(time.perf_counter() - t)\n")

CHILD_TIMEOUT_S = 30
CHILD_POLL_S = 0.2

# The calibration loop's time at the nominal machine speed; about what it
# takes on a 2-vCPU Xeon VM in its slower state.
CALIBRATION_NOMINAL_S = 0.0024
CALIBRATION_STEPS = 3000
SPEED_FACTORS = []


@dataclass(frozen=True)
class Sizes:
    """How much work each part of a run does."""
    rounds: int = 3
    # Lengths 1, 2, 3 and 0 mod 4 (bulk adds 1, 2, 3, 4 bytes).
    bulk_lengths: tuple = (64 << 10, 128 << 10, 256 << 10, (1 << 20) - 4)
    bulk_traced_bytes: int = 16 << 10
    short_batch: int = 1024
    gate_small: int = 24
    gate_straddler_blocks: int = 396
    setups_per_round: int = 6
    cold_per_round: int = 3
    cli_file_bytes: int = 2 << 10
    cli_per_round: int = 3
    cli_traced: int = 2


class Tally:
    """Counts checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, describe):
        """Count one operation; describe() says what failed, if it did."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(describe())


def expected_mac(key, payload):
    """The reference MAC: the native core on words unpacked here."""
    padded = payload + bytes(-len(payload) % 4)
    words = [w for (w,) in struct.iter_unpack(">I", padded)]
    return nativecore.mac_values(key.J.value, key.K.value, words)


def native_path(key, payload):
    return nativecore.native_mac(key, maacore.message_blocks(payload)).value


def gate_path(key, payload):
    return maacore.mac_message(key, payload).value


def blocks_of(messages):
    return sum(-(-len(payload) // 4) for _, payload, _ in messages)


# ----------------------------------------------------------- machine speed

class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _step(pair, x):
    return _Pair((pair.a * x + 1) & 0xFFFFFFFF, (pair.b + x) & 0xFFFFFFFF)


def calibration_loop():
    """A fixed piece of pure-Python work that does not touch maa: a call,
    32-bit arithmetic and a small new object per step, as the MAA cores
    do per block.  Of the loops tried, this one tracked the cores best
    when the machine's speed changed."""
    pair = _Pair(1, 2)
    for i in range(CALIBRATION_STEPS):
        pair = _step(pair, i | 1)
    return pair.a


def calibration_s():
    """The calibration loop's wall time: the best of three, so that one
    preemption does not count."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        calibration_loop()
        best = min(best, perf_counter() - t0)
    return best


def timed(fn, *args):
    """Run fn(*args); return (result, wall seconds, speed factor).

    The machine is a share of a host whose speed changes by up to 1.8x,
    in spells of seconds to a minute.  The calibration loop runs just
    before and just after fn; wall seconds times the factor is the time
    fn would take at the speed where the loop takes CALIBRATION_NOMINAL_S.
    """
    before = calibration_s()
    t0 = perf_counter()
    result = fn(*args)
    wall = perf_counter() - t0
    after = calibration_s()
    factor = 2 * CALIBRATION_NOMINAL_S / (before + after)
    SPEED_FACTORS.append(factor)
    return result, wall, factor


# ------------------------------------------------------------------ inputs

def random_key(rng):
    return maacore.Key(Block.from_int(rng.getrandbits(32)),
                       Block.from_int(rng.getrandbits(32)))


def with_expected(pairs):
    return [(key, payload, expected_mac(key, payload)) for key, payload in pairs]


def short_batch(rng, n):
    return with_expected((random_key(rng), rng.randbytes(rng.randint(1, 64)))
                         for _ in range(n))


def gate_sample(rng, sizes):
    """Messages of 1..gate_small bytes in seeded order, then one message
    of gate_straddler_blocks blocks; one key for all of them."""
    key = random_key(rng)
    lengths = list(range(1, sizes.gate_small + 1))
    rng.shuffle(lengths)
    lengths.append(4 * (sizes.gate_straddler_blocks - 1) + rng.randint(1, 4))
    return with_expected((key, rng.randbytes(n)) for n in lengths)


class Inputs:
    """Everything one run feeds the program, generated from the seed."""

    def __init__(self, workload, seed, sizes, traced):
        rng = random.Random(f"maa-bench:{workload}:{seed}")
        self.path_per_message = False
        self.gate = gate_sample(rng, sizes)
        key = random_key(rng)
        self.cli = with_expected(
            (key, rng.randbytes(sizes.cli_file_bytes + i))
            for i in range(sizes.cli_per_round * sizes.rounds))
        if workload == "bulk":
            key = random_key(rng)
            lengths = [n + i for i, n in enumerate(sizes.bulk_lengths, 1)]
            if traced:
                lengths = [sizes.bulk_traced_bytes + i for i in range(1, 5)]
            messages = with_expected((key, rng.randbytes(n)) for n in lengths)
            self.path = native_path
            self.batches = lambda: messages
            self.path_per_message = True
        elif workload == "short":
            self.path = native_path
            self.batches = lambda: short_batch(rng, sizes.short_batch)
        else:
            self.path = gate_path
            self.batches = lambda: self.gate


# ------------------------------------------------------------- timed parts

def mac_all(path, messages, latencies):
    """MAC each message, appending each one's wall seconds to latencies."""
    results = []
    for key, payload, _ in messages:
        t0 = perf_counter()
        z = path(key, payload)
        t1 = perf_counter()
        results.append(z)
        latencies.append(t1 - t0)
    return results


def check_macs(tally, path, messages, results):
    for (key, payload, want), got in zip(messages, results):
        tally.check(got == want, lambda: f"{path.__name__} {len(payload)} "
                                         f"bytes: got {got:08X}, want {want:08X}")


def run_messages(path, messages, tally, latencies=None):
    """MAC the messages and check them; return the pass's seconds at the
    nominal speed, and add each message's to latencies.  Every pass starts
    from a full collection, so that garbage left by the benchmark's own
    work does not fall into it."""
    own = []
    gc.collect()
    results, wall, factor = timed(mac_all, path, messages, own)
    check_macs(tally, path, messages, results)
    if latencies is not None:
        latencies.extend(t * factor for t in own)
    return wall * factor


def nearest_rank(ordered, q):
    """The q-quantile of sorted values by nearest rank: an observed value,
    so a pass of 4 or 25 messages gives its slowest one as p99."""
    return ordered[math.ceil(q * len(ordered)) - 1]


def timed_batch(inputs, tally, samples):
    """One batch of the workload's messages (a whole pass for bulk and
    reference): one sample of each throughput and latency metric.  A bulk
    message takes up to a second, so each is scaled on its own."""
    batch = inputs.batches()
    latencies = []
    chunks = [[m] for m in batch] if inputs.path_per_message else [batch]
    busy = sum(run_messages(inputs.path, chunk, tally, latencies)
               for chunk in chunks)
    nbytes = sum(len(payload) for _, payload, _ in batch)
    samples["mib_per_s"].append(nbytes / busy / 2**20)
    samples["msgs_per_s"].append(len(batch) / busy)
    latencies.sort()
    samples["msg_p50_us"].append(statistics.median(latencies) * 1e6)
    samples["msg_p99_us"].append(nearest_rank(latencies, 0.99) * 1e6)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(code, *args):
    """Run code in a fresh interpreter; (wall seconds at the nominal speed,
    speed factor, CompletedProcess or None when it timed out).

    A child runs for up to seconds, long enough for the machine's speed
    to change, so the calibration loop also runs every CHILD_POLL_S while
    the child runs, and the factor comes from the mean of all of them."""
    cals = [calibration_s()]
    argv = [sys.executable, "-c", code, *args]
    t0 = perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=child_env(), text=True,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as child:
        while True:
            try:
                out, err = child.communicate(timeout=CHILD_POLL_S)
                break
            except subprocess.TimeoutExpired:
                if perf_counter() - t0 > CHILD_TIMEOUT_S:
                    child.kill()
                    child.communicate()
                    return perf_counter() - t0, 1.0, None
                cals.append(calibration_s())
        wall = perf_counter() - t0
    cals.append(calibration_s())
    factor = CALIBRATION_NOMINAL_S / statistics.fmean(cals)
    SPEED_FACTORS.append(factor)
    return wall * factor, factor, subprocess.CompletedProcess(
        argv, child.returncode, out, err)


def setup_child(tally):
    """In-child seconds, at the nominal speed, to import maa and maa.cli
    and load the corpus, or None if the child failed."""
    _, factor, proc = run_child(SETUP_CODE)
    ok = proc is not None and proc.returncode == 0
    tally.check(ok, lambda: f"setup child: {proc and proc.stderr}")
    return float(proc.stdout.split()[-1]) * factor if ok else None


def cli_child(args):
    """`python -m maa.cli *args` in a fresh process: (wall seconds, exit
    code or None on timeout, stdout, peak RSS in MiB)."""
    wall, _, proc = run_child(CLI_CODE, *args)
    if proc is None:
        return wall, None, "", 0.0
    hwm = [line.split()[1] for line in proc.stderr.splitlines()
           if line.startswith("VmHWM")]
    return wall, proc.returncode, proc.stdout, int(hwm[-1]) / 1024 if hwm else 0.0


def write_cli_files(messages):
    folder = OUT / "inputs"
    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, (_, payload, _) in enumerate(messages):
        path = folder / f"message-{i}.bin"
        path.write_bytes(payload)
        paths.append(path)
    return paths


def key_hex(key):
    return f"{key.J.value:08X}{key.K.value:08X}"


def check_mac_output(tally, code, out, payload, want):
    tally.check(code == 0 and out.strip().upper() == f"{want:08X}",
                lambda: f"maa mac --input ({len(payload)} bytes): exit {code}, "
                        f"printed {out!r}, want {want:08X}")


def check_selftest_output(tally, code, out):
    last = out.strip().splitlines()[-1:]
    tally.check(code == 0 and last == [SELFTEST_PASS],
                lambda: f"selftest: exit {code}, last line {last}")


def timed_run(inputs, seconds, sizes, tally):
    """Measure in rounds of probes, with the timed loop and a warm gate
    pass slipped in after every probe, and report each metric as the
    median of its samples.  The machine's speed drifts by a third over a
    few seconds, so interleaving spreads every metric's samples over the
    whole run instead of leaving one metric to one stretch of it."""
    samples = {name: [] for name, _ in END_TO_END}
    child_rss = []
    memos = Memos()
    files = write_cli_files(inputs.cli)
    gate_blocks = blocks_of(inputs.gate)
    ticks = sizes.rounds * (sizes.cold_per_round + sizes.cli_per_round + 1)
    done = 0
    looped = 0.0

    def tick():
        # The timed loop's share of --seconds up to this tick, then a warm
        # gate pass (every probe before a tick has filled the memo tables).
        nonlocal done, looped
        done += 1
        while looped < seconds * done / ticks:
            t0 = perf_counter()
            timed_batch(inputs, tally, samples)
            looped += perf_counter() - t0
        samples["gate_warm_blocks_per_s"].append(
            gate_blocks / run_messages(gate_path, inputs.gate, tally))

    def cold_pass():
        memos.clear()
        samples["gate_cold_blocks_per_s"].append(
            gate_blocks / run_messages(gate_path, inputs.gate, tally))

    setup_child(tally)  # warm-up, not counted: fills the bytecode cache
    gc.collect()
    for r in range(sizes.rounds):
        for _ in range(sizes.setups_per_round):
            if (t := setup_child(tally)) is not None:
                samples["setup_s"].append(t)
        for _ in range(sizes.cold_per_round):
            cold_pass()
            tick()

        for i in range(sizes.cli_per_round * r,
                       sizes.cli_per_round * (r + 1)):
            key, payload, want = inputs.cli[i]
            wall, code, out, rss = cli_child(["mac", "--key", key_hex(key),
                                              "--input", str(files[i])])
            check_mac_output(tally, code, out, payload, want)
            samples["cli_mac_s"].append(wall)
            child_rss.append(rss)
            tick()

        wall, code, out, rss = cli_child(["selftest", "--core", "both"])
        check_selftest_output(tally, code, out)
        samples["selftest_s"].append(wall)
        child_rss.append(rss)
        tick()
    for path in files:
        path.unlink()

    metrics = {name: statistics.median(v) if v else float("nan")
               for name, v in samples.items()}
    metrics["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    metrics["cli_peak_rss_mib"] = max(child_rss)
    counts = {f"{name} samples": len(v) for name, v in samples.items() if v}
    counts["speed factor median"] = statistics.median(SPEED_FACTORS)
    return ({name: (metrics[name], unit) for name, unit in END_TO_END}, counts,
            samples)


# ------------------------------------------------------------ traced parts

def cli_in_process(argv):
    """cli.main in this process, stdout captured; (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def fixed_pass(inputs, primary, sizes, tally, memos, tracer):
    """The traced run's work: the parts of a timed run, each once, plus
    the sample on the native byte path, so that every layer has spans on
    every workload.  Each message, CLI call or selftest gets its own span
    message id."""
    ids = itertools.count()

    def each(path, messages):
        for m in messages:
            tracer.msg_id = next(ids)
            check_macs(tally, path, [m], mac_all(path, [m], []))

    memos.clear()
    each(gate_path, inputs.gate)
    each(gate_path, inputs.gate)
    each(native_path, inputs.gate)
    each(inputs.path, primary)
    traced_cli = inputs.cli[:sizes.cli_traced]
    for (key, payload, want), path in zip(traced_cli,
                                          write_cli_files(traced_cli)):
        memos.clear()
        tracer.msg_id = next(ids)
        code, out = cli_in_process(["mac", "--key", key_hex(key),
                                    "--input", str(path)])
        path.unlink()
        check_mac_output(tally, code, out, payload, want)
    memos.clear()
    tracer.msg_id = next(ids)
    check_selftest_output(tally, *cli_in_process(["selftest", "--core", "both"]))


def traced_run(workload, inputs, sizes, tally, meta):
    """Trace the corpus load, then run the fixed pass untraced and traced;
    per-layer metrics come from the traced pass's spans and memo counters,
    the overhead from the difference of the two passes' wall times, each
    scaled to the nominal speed."""
    tracer = Tracer()
    memos = Memos()
    with tracer.active():
        kat.load_vectors()
    primary = inputs.batches()
    work = (fixed_pass, inputs, primary, sizes, tally, memos, tracer)
    gc.collect()
    _, wall, factor = timed(*work)
    untraced = wall * factor
    gc.collect()
    memos.start()
    with tracer.active():
        _, wall, factor = timed(*work)
        traced = wall * factor
    memos.stop()
    tracer.write(OUT / f"spans-{workload}.json.gz", meta)

    values = {}
    for span, (calls, self_s) in tracer.layer_stats().items():
        values[f"{span}.calls"] = calls
        values[f"{span}.self_s"] = self_s
    values["maacore.message_blocks.blocks"] = tracer.blocks
    for name in memos.tables:
        hits, misses = memos.hits.get(name, 0), memos.misses.get(name, 0)
        values[f"{name}.hits"] = hits
        values[f"{name}.misses"] = misses
        values[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses \
            else 0.0
    values["trace.overhead_s"] = traced - untraced
    return ({name: (values.get(name, 0), unit)
             for name, unit, _ in layer_metric_names()},
            {"untraced_s": untraced, "traced_s": traced,
             "spans": len(tracer.name)})


# -------------------------------------------------------------------- main

def run_meta(workload, seed, seconds, trace):
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu, "commit": git_commit()}


def git_commit():
    """HEAD's commit id when the checkout is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds wants a positive whole number")
    return args


def main(argv=None, sizes=Sizes()):
    args = parse_args(argv)
    if nativecore is None or not (SRC / "maa" / "__init__.py").is_file():
        print(f"error: no maa package under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2

    meta = run_meta(args.workload, args.seed, args.seconds, args.trace)
    print("meta " + json.dumps(meta))
    tally = Tally()
    inputs = Inputs(args.workload, args.seed, sizes, bool(args.trace))
    if args.trace:
        metrics, extra = traced_run(args.workload, inputs, sizes, tally, meta)
    else:
        metrics, extra, samples = timed_run(inputs, args.seconds, sizes, tally)
        OUT.mkdir(exist_ok=True)
        (OUT / f"samples-{args.workload}.json").write_text(
            json.dumps({"meta": meta, "samples": samples}))
    for name, (value, unit) in metrics.items():
        print(f"{name:40} {value:14.6g} {unit}")
    for name, value in extra.items():
        print(f"{name:40} {value}")
    print(f"{'fail_frac':40} {tally.failed}/{tally.attempted}"
          f" = {tally.failed / tally.attempted:g}")
    for note in tally.notes:
        print(f"FAIL {note}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
