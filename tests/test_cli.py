"""The command line, driven in process through main(argv)."""

import os
import random
import subprocess
import sys

import pytest

from maa import cli, maacore, nativecore, wordcore
from maa.maacore import (
    EmptyMessageError, MESSAGE_BLOCK_LIMIT, MessageLimitError, SEGMENT_BLOCKS,
)

KEY = "00FF00FF" "00000000"


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
    words = nativecore.words

    def left_padded(chunks):
        data = b"".join(chunks)
        cut = len(data) - len(data) % 4
        yield from words([data[:cut]])
        if cut < len(data):
            yield int.from_bytes(data[cut:], "big")

    monkeypatch.setattr(nativecore, "words", left_padded)
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
    assert "selftest: 263/263 checks passed" in out
    assert "ANNEX_E" in out and "LONG" in out
    assert "note:" in out


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
    path.write_text(
        "# two-block walkthrough\n"
        "key 00FF00FF 00000000\n"
        "block 55555555\n"
        "expect X 48B204D6\n"
        "expect Y 5834A585\n"
        "cycle\n"
        "block AAAAAAAA\n"
        "expect Z F14D6E28   # MAC after the second block\n"
    )
    code, out, _ = run(capsys, "scenario", str(path))
    assert code == 0
    assert "line 4: expect X 48B204D6 ok" in out
    assert "line 8: expect Z F14D6E28 ok" in out
    assert "scenario: 3 passed, 0 failed" in out


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
    ]
    for body, expected in cases:
        path = tmp_path / "case.scenario"
        path.write_text(body)
        code, _, err = run(capsys, "scenario", str(path))
        assert code == 2, body
        assert expected in err, (body, err)


def test_scenario_refuses_an_over_limit_cycle_before_it_runs(
        tmp_path, capsys, monkeypatch):
    def no_cycle(*args):
        raise AssertionError("a cycle ran")

    monkeypatch.setattr(maacore, "main_loop", no_cycle)
    path = tmp_path / "long.scenario"
    path.write_text("key 00FF00FF 00000000\nblock 55555555\n"
                    f"cycle {2 * MESSAGE_BLOCK_LIMIT}\n")
    code, out, err = run(capsys, "scenario", str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: scenario line 3: "
                   f"{MessageLimitError(MESSAGE_BLOCK_LIMIT)}\n")


def test_scenario_missing_file(capsys):
    assert run(capsys, "scenario", "/no/such/file.scenario")[0] == 2


def test_bench(capsys):
    code, out, _ = run(capsys, "bench", "--blocks", "64")
    assert code == 0
    lines = [l for l in out.splitlines() if "MAC" in l]
    assert len(lines) == 2
    macs = {l.split()[-1] for l in lines}
    assert len(macs) == 1    # both cores agree
    memo = {l.split()[1]: l.split() for l in out.splitlines()
            if l.startswith("memo ")}
    tables = [n for m in (wordcore, maacore) for n, f in vars(m).items()
              if hasattr(f, "cache_info")]
    assert "prelude" in tables and sorted(memo) == sorted(tables)
    for fields in memo.values():    # memo NAME N entries H hits M misses ...
        hits, misses = (int(fields[i].replace(",", "")) for i in (4, 6))
        assert hits + misses > 0
    assert run(capsys, "bench", "--blocks", "0")[0] == 2


def child_env():
    """The environment with this checkout's package first on PYTHONPATH;
    pytest's own pythonpath setting does not reach a child interpreter."""
    src = os.path.dirname(os.path.dirname(maacore.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "maa.cli", "selftest", "--suite", "long",
         "--core", "native"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert "LONG" in proc.stdout


def test_closed_pipe_ends_quietly_with_sigpipe_status():
    # a reader that stops early (`maa trace ... | head -1`) is not an error
    # worth a traceback, nor a success: the status is 128 + SIGPIPE
    path = os.path.join(os.path.dirname(maacore.__file__), "vectors.txt")
    proc = subprocess.Popen(
        [sys.executable, "-m", "maa.cli", "trace", "--key", KEY,
         "--input", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    assert proc.stdout.readline().startswith(b"key ")
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait(timeout=60) == 141
