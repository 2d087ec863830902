"""The repository's own tooling: the pytest settings that tier-1 runs
under, and tools/bench_pairs.py's comparison of two checkouts."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_a_failing_property_test_prints_its_example(tmp_path, child_env):
    # the warnings that tier-1 turns into errors must not reach Hypothesis's
    # own reporting: a failing @given test prints its falsifying example,
    # not an INTERNALERROR and a bare "1 failed"
    test = tmp_path / "test_fails.py"
    test.write_text("from hypothesis import given, strategies as st\n\n\n"
                    "@given(st.integers())\n"
                    "def test_fails(n):\n"
                    "    assert n < 5\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", str(test)],
        cwd=tmp_path, capture_output=True, text=True, env=child_env)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(*values):
    # None is a failed run, which reports no metric
    return [{"metrics": {} if v is None else {"mib_per_s": {"value": v}}}
            for v in values]


METRIC = {"name": "mib_per_s", "better": "higher", "bound": 0.24}


def test_bench_pairs_compares_one_pair_without_quartiles():
    got = _bench_pairs().compare(METRIC, _runs(2.0), _runs(2.5))
    assert got["change_vs_parent"] == pytest.approx(0.25)
    assert got["change_better_pairs"] == "1/1"
    assert got["parent_quartiles"] is None
    assert got["gap_exceeds_parent_iqr"] is None
    assert got["within_bound"] is True


def test_bench_pairs_compares_two_pairs_with_quartiles():
    got = _bench_pairs().compare(METRIC, _runs(2.0, 4.0), _runs(2.0, 1.0))
    assert got["parent_median"] == 3.0 and got["change_median"] == 1.5
    assert got["change_better_pairs"] == "0/2"
    assert got["parent_quartiles"] == [2.5, 3.5]
    assert got["gap_exceeds_parent_iqr"] is True
    assert got["within_bound"] is False


def test_bench_pairs_compares_no_pair_as_nulls():
    got = _bench_pairs().compare(METRIC, _runs(2.0, 4.0), _runs(None, None))
    assert (got.pop("change_better_pairs"), got.pop("bound")) == ("0/0", 0.24)
    assert set(got.values()) == {None}


def test_bench_pairs_refuses_an_empty_seed_range(tmp_path):
    bench = _bench_pairs()
    assert bench.seed_range("bulk:9-10") == ("bulk", [9, 10])
    with pytest.raises(ValueError, match="no seeds in 'reference:10-1'"):
        bench.seed_range("reference:10-1")
    # which argparse makes a usage error, before any run
    with pytest.raises(SystemExit) as info:
        bench.main([str(tmp_path), str(tmp_path), "--out", "x.json",
                    "--pairs", "bulk:1-2", "reference:10-1"])
    assert info.value.code == 2


def _stub_checkout(root, cli_exit=0):
    """A checkout whose run.py reports one metric and the bytecode setting
    it saw, and whose `maa.cli` exits with cli_exit; where CLI_LOG names a
    file, it appends its checkout, argv, PYTHONPATH, input size and
    whether it runs without the site module (-S)."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        "import json, os\n"
        "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0, "
        "'metrics': {'mib_per_s': {'value': 1.0}}, "
        "'seen': os.environ.get('PYTHONDONTWRITEBYTECODE')}))\n")
    (root / "BENCHMARK.json").write_text(
        f'{{"run_seconds": 1, "end_to_end": [{json.dumps(METRIC)}]}}')
    (root / "src" / "maa").mkdir(parents=True)
    (root / "src" / "maa" / "__init__.py").write_text("")
    (root / "src" / "maa" / "cli.py").write_text(
        "import json, os, sys\n"
        "if 'CLI_LOG' in os.environ:\n"
        "    size = os.path.getsize(sys.argv[-1]) if sys.argv[1] == 'mac' "
        "else None\n"
        "    with open(os.environ['CLI_LOG'], 'a') as f:\n"
        f"        print(json.dumps([{root.name!r}, sys.argv[1:], "
        "os.environ['PYTHONPATH'], size, sys.flags.no_site]), file=f)\n"
        f"sys.exit({cli_exit})\n")
    return root


@pytest.mark.parametrize("setting, recorded", [(None, False), ("", False),
                                               ("1", True)])
def test_bench_pairs_records_the_bytecode_cache_setting(
        tmp_path, monkeypatch, setting, recorded):
    bench = _bench_pairs()
    monkeypatch.setattr(bench, "RAW_CHILDREN", 2)
    _stub_checkout(tmp_path)
    if setting is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", setting)
    out = tmp_path / "out.json"
    assert bench.main([str(tmp_path), str(tmp_path), "--out", str(out),
                       "--pairs", "bulk:1"]) == 0
    report = json.loads(out.read_text())
    assert report["dont_write_bytecode"] is recorded
    # recorded only: both runs get the environment as it is
    assert [r["seen"] for side in ("parent", "change")
            for r in report[side]["bulk"]] == [setting, setting]


def test_bench_pairs_times_raw_cli_children_on_each_side(
        tmp_path, monkeypatch):
    # after the pairs: per command, one warm-up child per side, then
    # RAW_CHILDREN children alternating between the sides, each with its
    # side's src first on PYTHONPATH
    bench = _bench_pairs()
    monkeypatch.setattr(bench, "RAW_CHILDREN", 3)
    log = tmp_path / "calls"
    monkeypatch.setenv("CLI_LOG", str(log))
    sides = {side: _stub_checkout(tmp_path / side).resolve()
             for side in ("parent", "change")}
    out = tmp_path / "out.json"
    assert bench.main([str(sides["parent"]), str(sides["change"]), "--out",
                       str(out), "--pairs", "bulk:1"]) == 0
    calls = [json.loads(line) for line in log.read_text().splitlines()]
    order = ["parent", "change", "change", "parent", "parent", "change",
             "change", "parent"]
    assert [side for side, *_ in calls] == order * 3
    assert [argv[0] for _, argv, *_ in calls] == ["selftest"] * 8 + \
        ["mac"] * 8 + ["selftest"] * 8
    # only the third command starts without the site module
    assert [no_site for *_, no_site in calls] == [0] * 16 + [1] * 8
    assert calls[0][1] == ["selftest", "--core", "both"]
    assert calls[15][1][:2] == ["mac", "--key"]
    assert calls[15][1][3] == "--input" and calls[15][3] == 2048
    assert calls[-1][1] == ["selftest", "--core", "native"]
    for side, _, path, *_ in calls:
        assert path.split(os.pathsep)[0] == str(sides[side] / "src")
    raw = json.loads(out.read_text())["raw_children"]
    assert set(raw) == {"selftest", "mac", "selftest_no_site"}
    for times in raw.values():
        assert times["change_faster_pairs"].endswith("/3")
        for side in sides:
            runs = times[side]["runs_s"]
            assert len(runs) == 3 and all(t > 0 for t in runs)
            assert times[side]["median_s"] == sorted(runs)[1]
            q1, q3 = times[side]["quartiles_s"]
            assert q1 <= times[side]["median_s"] <= q3


def test_bench_pairs_fails_when_a_cli_child_fails(tmp_path, monkeypatch):
    # the report is still written, and the command exits 1
    bench = _bench_pairs()
    monkeypatch.setattr(bench, "RAW_CHILDREN", 2)
    parent = _stub_checkout(tmp_path / "parent")
    change = _stub_checkout(tmp_path / "change", cli_exit=1)
    out = tmp_path / "out.json"
    assert bench.main([str(parent), str(change), "--out", str(out),
                       "--pairs", "bulk:1"]) == 1
    assert set(json.loads(out.read_text())["raw_children"]) == {
        "selftest", "mac", "selftest_no_site"}


def test_bench_pairs_counts_a_cut_json_line_as_a_failed_run(
        tmp_path, monkeypatch):
    # a child killed mid-print leaves a last line that starts with "{" but
    # is not JSON: that run failed, and the report is still written
    bench = _bench_pairs()
    monkeypatch.setattr(bench, "RAW_CHILDREN", 2)
    parent = _stub_checkout(tmp_path / "parent")
    change = _stub_checkout(tmp_path / "change")
    (change / "perfbench" / "run.py").write_text(
        "import os, signal\n"
        "print('{\"correct\": tr', flush=True)\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n")
    out = tmp_path / "out.json"
    assert bench.main([str(parent), str(change), "--out", str(out),
                       "--pairs", "bulk:1"]) == 1
    report = json.loads(out.read_text())
    assert report["change"]["bulk"] == [
        {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
         "seed": 1, "exit": -9}]
    assert report["parent"]["bulk"][0]["correct"] is True
    assert report["comparison"]["bulk"]["mib_per_s"]["change_median"] is None
