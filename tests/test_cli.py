"""The command line, driven in process through main(argv)."""

import random
import subprocess
import sys

import pytest

from maa import cli, nativecore
from maa.maacore import SEGMENT_BLOCKS

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


def test_mac_rejects_bad_inputs(capsys):
    assert run(capsys, "mac", "--key", "123", "--hex", "00")[0] == 2
    assert run(capsys, "mac", "--key", "X" * 16, "--hex", "00")[0] == 2
    assert run(capsys, "mac", "--key", KEY, "--hex", "0")[0] == 2
    assert run(capsys, "mac", "--key", KEY, "--hex", "GG")[0] == 2
    assert run(capsys, "mac", "--key", KEY, "--hex", "")[0] == 2
    assert run(capsys, "mac", "--key", KEY, "--input", "/no/such/file")[0] == 2
    _, _, err = run(capsys, "mac", "--key", KEY, "--hex", "")
    assert "error:" in err


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
    ]
    for body, expected in cases:
        path = tmp_path / "case.scenario"
        path.write_text(body)
        code, _, err = run(capsys, "scenario", str(path))
        assert code == 2, body
        assert expected in err, (body, err)


def test_scenario_missing_file(capsys):
    assert run(capsys, "scenario", "/no/such/file.scenario")[0] == 2


def test_bench(capsys):
    code, out, _ = run(capsys, "bench", "--blocks", "64")
    assert code == 0
    lines = [l for l in out.splitlines() if "MAC" in l]
    assert len(lines) == 2
    macs = {l.split()[-1] for l in lines}
    assert len(macs) == 1    # both cores agree
    assert run(capsys, "bench", "--blocks", "0")[0] == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "maa.cli", "selftest", "--suite", "long",
         "--core", "native"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "LONG" in proc.stdout
