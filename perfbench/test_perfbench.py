"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = run.Sizes(rounds=1, bulk_lengths=(1024, 2048, 3072, 4096),
                 bulk_traced_bytes=1100, short_batch=64, gate_small=4,
                 gate_straddler_blocks=257, setups_per_round=1,
                 cli_file_bytes=64, cli_per_round=2, cli_traced=1,
                 cold_per_round=2)


def bench(capsys, workload, trace, seed=7):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace)], sizes=TINY)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_names_match_the_script():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == run.layer_metric_names()


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_emits_every_metric(capsys, workload, trace):
    code, result = bench(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        # The tracing overhead is a difference of two wall times; at these
        # sizes it is smaller than the machine's drift and may be negative.
        if name != "trace.overhead_s":
            assert metric["value"] > 0, name


def test_trace_counts_repeat_for_a_seed(capsys):
    counts = []
    for _ in range(2):
        code, result = bench(capsys, "short", 1)
        assert code == 0
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if k.endswith((".calls", ".hits", ".misses", ".blocks"))})
    assert counts[0] == counts[1]


def test_wrong_expected_mac_fails_the_run(capsys, monkeypatch):
    honest = run.expected_mac
    calls = []

    def one_wrong(key, payload):
        calls.append(1)
        return honest(key, payload) ^ (1 if len(calls) == 1 else 0)

    monkeypatch.setattr(run, "expected_mac", one_wrong)
    code, result = bench(capsys, "bulk", 0)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "bulk", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
