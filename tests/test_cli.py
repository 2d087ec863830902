"""The command line, driven in process through main(argv)."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from maa import cli, maacore, nativecore
from maa.maacore import (
    EmptyMessageError, MESSAGE_BLOCK_LIMIT, MessageLimitError, SEGMENT_BLOCKS,
)

KEY = "00FF00FF" "00000000"

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mac_hex(capsys):
    code, out, _ = run(capsys, "mac", "--key", KEY,
                       "--hex", "55555555AAAAAAAA")
    assert code == 0
    assert out == "F14D6E28\n"


def test_mac_accepts_spaced_lowercase_hex(capsys):
    code, out, _ = run(capsys, "mac", "--key", KEY.lower(),
                       "--hex", "55 5555 55aaaaaaaa")
    assert code == 0 and out == "F14D6E28\n"


def test_mac_file(tmp_path, capsys):
    path = tmp_path / "msg.bin"
    path.write_bytes(bytes.fromhex("55555555AAAAAAAA"))
    code, out, _ = run(capsys, "mac", "--key", KEY, "--input", str(path))
    assert code == 0 and out == "F14D6E28\n"


def test_mac_pads_short_files(tmp_path, capsys):
    # a 5-byte file MACs like its zero-padded 8-byte extension
    path = tmp_path / "short.bin"
    path.write_bytes(b"\x55\x55\x55\x55\xaa")
    code, out, _ = run(capsys, "mac", "--key", KEY, "--input", str(path))
    code2, out2, _ = run(capsys, "mac", "--key", KEY,
                         "--hex", "55555555AA000000")
    assert code == code2 == 0
    assert out == out2


def test_mac_rejects_bad_inputs(tmp_path, capsys):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    too_long = tmp_path / "too_long.bin"
    too_long.write_bytes(bytes(4 * MESSAGE_BLOCK_LIMIT + 1))
    cases = [
        (("--key", "123", "--hex", "00"), "wants 16 hex digits"),
        (("--key", "X" * 16, "--hex", "00"), "--key is not hex"),
        (("--key", "00FF00F 00000000", "--hex", "55555555AAAAAAAA"),
         "--key is not hex"),
        (("--key", "0x00FF000x000000", "--hex", "00"), "--key is not hex"),
        (("--key", "00_FF_0000000000", "--hex", "00"), "--key is not hex"),
        (("--key", "+0FF00FF00000000", "--hex", "00"), "--key is not hex"),
        (("--key", KEY, "--hex", "0"), "even number of digits"),
        (("--key", KEY, "--hex", "GG"), "--hex is not hex"),
        (("--key", KEY, "--hex", ""), "empty message"),
        (("--key", KEY, "--input", "/no/such/file"), "cannot read"),
        (("--key", KEY, "--input", str(tmp_path)), "cannot read"),
        (("--key", KEY, "--input", str(empty)), "empty message"),
        (("--key", KEY, "--input", str(too_long)),
         f"exceeds the {MESSAGE_BLOCK_LIMIT}-block limit"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, "mac", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and message in err, (argv, err)


def test_empty_message_is_refused_alike_by_mac_and_trace(tmp_path, capsys):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    for command in ("mac", "trace"):
        for source in (("--hex", ""), ("--input", str(empty))):
            code, out, err = run(capsys, command, "--key", KEY, *source)
            assert (code, out) == (2, ""), (command, source)
            assert err == f"error: {EmptyMessageError()}\n", (command, source)


def test_mac_takes_the_all_ones_key(capsys):
    code, out, _ = run(capsys, "mac", "--key", "F" * 16,
                       "--hex", "00000000FFFFFFFF12345678")
    assert (code, out) == (0, "E91EA110\n")


def test_over_limit_file_is_refused_unread(tmp_path, capsys, monkeypatch):
    # a regular file's size is known at open, so not one block of an
    # over-limit file reaches the MAC
    too_long = tmp_path / "too_long.bin"
    too_long.write_bytes(bytes(4 * MESSAGE_BLOCK_LIMIT + 1))

    def mac_no_block(j, k, values, limit=MESSAGE_BLOCK_LIMIT):
        for _ in values:
            raise AssertionError("a block of the over-limit file was MAC'd")

    monkeypatch.setattr(nativecore, "mac_values", mac_no_block)
    code, out, err = run(capsys, "mac", "--key", KEY,
                         "--input", str(too_long))
    assert (code, out) == (2, "")
    assert err == f"error: {MessageLimitError(MESSAGE_BLOCK_LIMIT)}\n"


def _three_macs(tmp_path, capsys, nbytes):
    """MAC of one random file by `maa mac`, by the gate core's
    mac_message, and from the last line of `maa trace`."""
    payload = random.Random(nbytes).randbytes(nbytes)
    path = tmp_path / "msg.bin"
    path.write_bytes(payload)
    code, out, _ = run(capsys, "mac", "--key", KEY, "--input", str(path))
    assert code == 0
    key = maacore.Key.from_hex(KEY[:8], KEY[8:])
    gate = maacore.mac_message(key, payload).hex()
    code, trace, _ = run(capsys, "trace", "--key", KEY, "--input", str(path))
    assert code == 0
    return out.strip(), gate, trace.splitlines()[-1].removeprefix("MAC ")


@pytest.mark.parametrize("nbytes", [1, 2, 7, 29, 4 * 255 - 1, 4 * 256 + 3,
                                    4 * 512 + 2])
def test_mac_file_matches_gate_core_and_trace(tmp_path, capsys, nbytes):
    # unaligned files of 1-8 and of 255-513 blocks, across the segment
    # boundary: the native byte path against the gate core's
    cli_mac, gate_mac, trace_mac = _three_macs(tmp_path, capsys, nbytes)
    assert cli_mac == gate_mac == trace_mac


def test_differential_catches_a_left_padding_mutant(tmp_path, capsys,
                                                    monkeypatch):
    words = cli.words

    def left_padded(chunks):
        data = b"".join(chunks)
        cut = len(data) - len(data) % 4
        yield from words([data[:cut]])
        if cut < len(data):
            yield int.from_bytes(data[cut:], "big")

    monkeypatch.setattr(cli, "words", left_padded)
    for nbytes in (1, 4 * 256 + 3):
        with pytest.raises(AssertionError):
            test_mac_file_matches_gate_core_and_trace(tmp_path, capsys, nbytes)


def test_trace_shows_registers_and_mac(capsys):
    code, out, _ = run(capsys, "trace", "--key", KEY,
                       "--hex", "55555555AAAAAAAA")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key    J=00FF00FF K=00000000"
    assert "X0=4A645A01" in lines[1] and "W=FECCAA6E" in lines[1]
    assert "48B204D6" in out and "5834A585" in out    # after block 1
    assert "4F998E01" in out and "BE9F0917" in out    # after block 2
    assert lines[-1] == "MAC F14D6E28"


def test_trace_prints_rows_before_the_input_ends(capsys, monkeypatch):
    # trace streams: the rows of the first chunk are out before the
    # second chunk is asked for
    def one_chunk_then_fail(args):
        yield bytes.fromhex("55555555AAAAAAAA")
        raise cli._UsageError("read failed")

    monkeypatch.setattr(cli, "_chunks", one_chunk_then_fail)
    code, out, err = run(capsys, "trace", "--key", KEY, "--input", "x")
    assert (code, err) == (2, "error: read failed\n")
    rows = out.splitlines()[3:]
    assert [r.split()[0] for r in rows] == ["1", "2"]
    assert rows[-1].endswith("F14D6E28")


def test_trace_z_matches_native_across_a_segment_boundary(capsys):
    # each row's Z is the MAC of the message so far; rows 257 and 258
    # come after the first segment's MAC has been absorbed
    rng = random.Random(258)
    values = [rng.getrandbits(32) for _ in range(SEGMENT_BLOCKS + 2)]
    payload = b"".join(v.to_bytes(4, "big") for v in values)
    code, out, _ = run(capsys, "trace", "--key", KEY, "--hex", payload.hex())
    assert code == 0
    rows = out.splitlines()[3:]
    assert len(rows) == len(values) + 1
    j, k = int(KEY[:8], 16), int(KEY[8:], 16)
    for n, row in enumerate(rows[:-1], start=1):
        fields = row.split()
        assert (int(fields[0]), int(fields[1], 16)) == (n, values[n - 1])
        assert int(fields[-1], 16) == nativecore.mac_values(j, k, values[:n])
    assert rows[-1] == f"MAC {nativecore.mac_values(j, k, values):08X}"


def test_selftest_single_suite(capsys):
    code, out, _ = run(capsys, "selftest", "--suite", "t1",
                       "--core", "native")
    assert code == 0
    assert "T1       native  54/54 ok" in out
    assert "selftest: 54/54 checks passed" in out


def test_selftest_both_prints_one_row_per_core(capsys):
    code, out, _ = run(capsys, "selftest", "--suite", "t1", "--core", "both")
    assert code == 0
    assert out.splitlines() == [
        "T1       gate    54/54 ok",
        "T1       native  54/54 ok",
        "note: T1: corpus splits the published rows into 54 checks "
        "(the tables list 36)",
        "selftest: 108/108 checks passed",
    ]


def test_selftest_reports_failures(capsys, monkeypatch):
    monkeypatch.setattr(nativecore, "q", lambda p: 0)
    code, out, _ = run(capsys, "selftest", "--suite", "t1",
                       "--core", "native")
    assert code == 1
    lines = out.splitlines()
    failed = [l for l in lines if l.startswith("FAIL native:T1/")]
    assert failed and lines[0] == (f"T1       native  {54 - len(failed)}/54 "
                                   f"{len(failed)} FAILED")
    assert lines[-1] == f"selftest: {54 - len(failed)}/54 checks passed"


def test_selftest_all_native(capsys):
    code, out, _ = run(capsys, "selftest", "--suite", "all",
                       "--core", "native")
    assert code == 0
    assert out == (
        "T1       native  54/54 ok\n"
        "note: T1: corpus splits the published rows into 54 checks "
        "(the tables list 36)\n"
        "T2       native  78/78 ok\n"
        "note: T2: corpus splits the published rows into 78 checks "
        "(the tables list 56)\n"
        "T3       native  64/64 ok\n"
        "T4       native  45/45 ok\n"
        "ANNEX_E  native  18/18 ok\n"
        "LONG     native  4/4 ok\n"
        "selftest: 263/263 checks passed\n"
    )


def test_selftest_json_is_one_object(capsys, monkeypatch):
    # the counts per suite and core, the notes and the corpus's seal, and
    # nothing else on stdout, so that two runs can be diffed
    code, out, _ = run(capsys, "selftest", "--suite", "t1", "--json")
    assert code == 0
    report = json.loads(out)
    raw = resources.files("maa").joinpath("vectors.txt").read_bytes()
    assert report == {
        "passed": 108, "failed": 0,
        "suites": [{"suite": "T1", "core": core, "passed": 54, "failed": 0}
                   for core in ("gate", "native")],
        "failures": [],
        "notes": ["T1: corpus splits the published rows into 54 checks "
                  "(the tables list 36)"],
        "corpus_sha256": hashlib.sha256(raw).hexdigest(),
    }
    # a failing check is listed with its record, want and got; exit 1
    monkeypatch.setattr(nativecore, "q", lambda p: 0)
    code, out, _ = run(capsys, "selftest", "--suite", "t1", "--core",
                       "native", "--json")
    report = json.loads(out)
    failed = report["failures"]
    assert code == 1 and failed and report["failed"] == len(failed)
    assert report["suites"] == [{"suite": "T1", "core": "native",
                                 "passed": 54 - len(failed),
                                 "failed": len(failed)}]
    assert set(failed[0]) == {"suite", "record", "check", "core", "want",
                              "got"}
    assert all(f["core"] == "native" and f["want"] != f["got"]
               for f in failed)


def test_selftest_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["selftest", "--suite", "t7"])
    assert exc.value.code == 2


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_scenario_walkthrough(tmp_path, capsys):
    path = tmp_path / "demo.scenario"
    # a comment line, then the README's script as written
    section = README.read_text().split("### Scenario files\n", 1)[1]
    script = re.search(r"```\n(.*?)```", section, re.S).group(1)
    path.write_text("# two-block walkthrough\n" + script)
    code, out, _ = run(capsys, "scenario", str(path))
    assert code == 0
    assert out == ("line 4: expect X 48B204D6 ok\n"
                   "line 5: expect Y 5834A585 ok\n"
                   "line 8: expect Z F14D6E28 ok\n"
                   "scenario: 3 passed, 0 failed\n")


def test_scenario_cycle_count_and_reset(tmp_path, capsys):
    path = tmp_path / "reset.scenario"
    path.write_text(
        "key 80018001 80018000\n"
        "block 00000000\n"
        "expect X 55DD063F\n"   # X after two zero blocks
        "cycle 2\n"
        "reset\n"
        "expect X 303FF4AA\n"   # back to the first-iteration value
        "cycle\n"
    )
    code, out, _ = run(capsys, "scenario", str(path))
    assert code == 0
    assert "scenario: 2 passed, 0 failed" in out


def test_scenario_failure_sets_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.scenario"
    path.write_text(
        "key 00FF00FF 00000000\n"
        "block 55555555\n"
        "expect X 00000000\n"
    )
    code, out, _ = run(capsys, "scenario", str(path))
    assert code == 1
    assert "FAILED (got 48B204D6)" in out
    assert "scenario: 0 passed, 1 failed" in out


def test_scenario_parse_errors(tmp_path, capsys):
    cases = [
        ("cycle\n", "line 1: cycle before key"),
        ("key 00FF00FF 00000000\ncycle\n", "line 2: cycle before block"),
        ("key 00FF00FF\n", "line 1"),
        ("key 00FF00FF 0000000Z\n", "line 1"),
        ("block 123\n", "line 1"),
        ("key 00FF00FF 00000000\nblock 55555555\nexpect Q 00000000\n",
         "line 3"),
        ("key 00FF00FF 00000000\nblock 55555555\ncycle zero\n", "line 3"),
        ("reset\n", "line 1: reset before key"),
        ("launch\n", "line 1: unknown command"),
        ("key 0x00FF00 00000000\n", "line 1: J wants 8 hex digits"),
        ("key 00FF00FF 00_00_00\n", "line 1: K wants 8 hex digits"),
        ("key 00FF00FF 00000000\nblock +5555555\n",
         "line 2: block wants 8 hex digits"),
        ("key 00FF00FF 00000000\nblock 55555555\nexpect X 0x000000\n",
         "line 3: X wants 8 hex digits"),
        # each command's argument count, checked before the words
        ("key 00FF00FF 00000000 00000000\n",
         "line 1: key wants two 8-digit words (J K)"),
        ("block\n", "line 1: block wants one 8-digit word"),
        ("expect X\n", "line 1: expect wants a register and a word"),
        ("cycle 1 2\n", "line 1: cycle wants at most one count"),
        ("reset now\n", "line 1: reset takes no arguments"),
    ]
    for body, expected in cases:
        path = tmp_path / "case.scenario"
        path.write_text(body)
        code, _, err = run(capsys, "scenario", str(path))
        assert code == 2, body
        assert expected in err, (body, err)


def test_scenario_refuses_an_over_limit_cycle_before_it_runs(
        tmp_path, capsys, spy):
    calls = spy(maacore, "main_loop")
    head = "key 00FF00FF 00000000\nblock 55555555\n"
    path = tmp_path / "long.scenario"
    # positive control: the patch sees every cycle of an accepted run
    path.write_text(head + "cycle 3\n")
    assert run(capsys, "scenario", str(path)) == (
        0, "scenario: 0 passed, 0 failed\n", "")
    assert len(calls) == 3
    calls.clear()
    path.write_text(head + f"cycle {2 * MESSAGE_BLOCK_LIMIT}\n")
    code, out, err = run(capsys, "scenario", str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: scenario line 3: "
                   f"{MessageLimitError(MESSAGE_BLOCK_LIMIT)}\n")
    assert calls == []


def test_scenario_missing_file(capsys):
    assert run(capsys, "scenario", "/no/such/file.scenario")[0] == 2


def test_bench(capsys):
    code, out, _ = run(capsys, "bench", "--blocks", "64")
    assert code == 0
    lines = [l for l in out.splitlines() if "MAC" in l]
    assert len(lines) == 2
    assert all("median of 5 passes" in l and "(range " in l for l in lines)
    macs = {l.split()[-1] for l in lines}
    assert len(macs) == 1    # both cores agree
    assert out.splitlines() == lines    # one line per core, nothing else
    assert run(capsys, "bench", "--blocks", "0")[0] == 2


def test_bench_exits_1_when_the_cores_disagree(capsys, monkeypatch):
    real = nativecore.mac_values
    monkeypatch.setattr(nativecore, "mac_values",
                        lambda *args, **kwargs: real(*args, **kwargs) ^ 1)
    code, _, err = run(capsys, "bench", "--blocks", "3")
    assert code == 1 and err == "cores disagree\n"


def _cli_child(child_env, report, *argv):
    """`python -m maa.cli *argv` in a child; finally, `report` to stderr."""
    return subprocess.run(
        [sys.executable, "-c", "import runpy, sys\ntry:\n    runpy.run_module("
         "'maa.cli', run_name='__main__', alter_sys=True)\nfinally:\n"
         f"    print({report}, file=sys.stderr)\n", *argv],
        capture_output=True, text=True, env=child_env)


_GATE_MODULES = {"maa.wordcore", "maa.maaops", "maa.maacore"}


@pytest.mark.parametrize("argv, last_line, loads, skips", [
    (["mac", "--key", KEY, "--hex", "55555555AAAAAAAA"], "F14D6E28",
     {"maa", "maa.nativecore"}, _GATE_MODULES | {"maa.kat"}),
    (["selftest", "--core", "native"], "selftest: 263/263 checks passed",
     {"maa.nativecore", "maa.kat"}, _GATE_MODULES),
    (["selftest", "--suite", "long", "--core", "native"],
     "selftest: 4/4 checks passed", {"maa.nativecore", "maa.kat"},
     _GATE_MODULES),
    (["selftest"], "selftest: 526/526 checks passed", {"maa.maacore"}, set()),
    (["selftest", "--core", "gate"], "selftest: 263/263 checks passed",
     {"maa.maacore"}, set()),
    (["trace", "--key", KEY, "--hex", "55555555AAAAAAAA"], "MAC F14D6E28",
     {"maa.maacore"}, set()),
    (["scenario", "{script}"], "scenario: 0 passed, 0 failed",
     {"maa.maacore"}, set()),
], ids=["mac", "selftest-native", "selftest-long-native", "selftest",
        "selftest-gate", "trace", "scenario"])
def test_each_command_loads_only_what_it_runs(argv, last_line, loads, skips,
                                              tmp_path, child_env):
    # maa.cli runs as __main__, as under `python -m`.  No command loads
    # dataclasses, which brings inspect, ast, dis, tokenize and more that
    # no line of maa uses (about 0.6 MiB of the selftest child's peak
    # RSS); mac and the native selftest load no gate module
    script = tmp_path / "one.scenario"
    script.write_text(f"key {KEY[:8]} {KEY[8:]}\n")
    proc = _cli_child(child_env, "*sorted(sys.modules)",
                      *(arg.format(script=script) for arg in argv))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == last_line
    loaded = set(proc.stderr.split())
    assert loads <= loaded
    assert not loaded & (skips | {"dataclasses", "inspect"})


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from Linux /proc")
def test_mac_memory_does_not_grow_with_the_file(tmp_path, child_env):
    # 2 KiB and 2 MiB files: a MAC that held the file, or its words, would
    # peak (VmHWM, in KiB) tens of MiB higher on the large one
    peaks = []
    for nbytes in (2 << 10, 2 << 20):
        path = tmp_path / f"{nbytes}.bin"
        path.write_bytes(bytes(range(256)) * (nbytes // 256))
        proc = _cli_child(
            child_env, "__import__('pathlib').Path('/proc/self/status')"
            ".read_text().split('VmHWM:')[1].split()[0]",
            "mac", "--key", KEY, "--input", str(path))
        assert proc.returncode == 0 and len(proc.stdout) == 9
        peaks.append(int(proc.stderr))
    assert peaks[1] - peaks[0] < 4 << 10


def test_closed_pipe_ends_quietly_with_sigpipe_status(child_env):
    # a reader that stops early (`maa trace ... | head -1`) is not an error
    # worth a traceback, nor a success: the status is 128 + SIGPIPE
    path = os.path.join(os.path.dirname(maacore.__file__), "vectors.txt")
    with subprocess.Popen(
            [sys.executable, "-m", "maa.cli", "trace", "--key", KEY,
             "--input", path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=child_env) as proc:
        assert proc.stdout.readline().startswith(b"key ")
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 141
