"""The repository's own tooling: the pytest settings that tier-1 runs
under, and tools/bench_pairs.py's comparison of two checkouts."""

import importlib.util
import json
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


@pytest.mark.parametrize("setting, recorded", [(None, False), ("", False),
                                               ("1", True)])
def test_bench_pairs_records_the_bytecode_cache_setting(
        tmp_path, monkeypatch, setting, recorded):
    # a checkout whose run.py reports one metric, and the setting it saw
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, os\n"
        "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0, "
        "'metrics': {'mib_per_s': {'value': 1.0}}, "
        "'seen': os.environ.get('PYTHONDONTWRITEBYTECODE')}))\n")
    (tmp_path / "BENCHMARK.json").write_text(
        f'{{"run_seconds": 1, "end_to_end": [{json.dumps(METRIC)}]}}')
    if setting is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", setting)
    out = tmp_path / "out.json"
    assert _bench_pairs().main([str(tmp_path), str(tmp_path), "--out",
                                str(out), "--pairs", "bulk:1"]) == 0
    report = json.loads(out.read_text())
    assert report["dont_write_bytecode"] is recorded
    # recorded only: both runs get the environment as it is
    assert [r["seen"] for side in ("parent", "change")
            for r in report[side]["bulk"]] == [setting, setting]
