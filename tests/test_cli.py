"""The command line, driven in process through main(argv)."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import zipfile
from importlib import resources
from pathlib import Path

import pytest

from maa import SEGMENT_BLOCKS, cli, maacore, nativecore
from maa.maacore import MESSAGE_BLOCK_LIMIT, MessageLimitError
from test_kat import CORPUS_SHA256

KEY = "00FF00FF" "00000000"

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# T3 record twoblock-5555-aaaa: key KEY, message TWO_BLOCKS, MAC F14D6E28
TWO_BLOCKS = "55555555AAAAAAAA"
MAC = ["mac", "--key", KEY]
SCENARIO = ["scenario", "{s}"]
EMPTY = "the MAC of an empty message is undefined"
_T1_NOTE = ("note: T1: corpus splits the published rows into 54 checks "
            "(the tables list 36)\n")
_HEAD = b"key 00FF00FF 00000000\nblock 55555555\n"


def _gate(key, message):
    """The gate core's MAC of a hex message under a 16-digit key."""
    key = maacore.Key.from_hex(key[:8], key[8:])
    return maacore.mac_message(key, bytes.fromhex(message)).hex()


def _trace_two_blocks():
    # the prelude, each X and Y and the MAC are T3's; V turns left one bit
    # a block from V0, and Z after block 1 is the gate core's
    v0 = 0x5CCA3239
    v1, v2 = ((v0 << n | v0 >> 32 - n) & 0xFFFFFFFF for n in (1, 2))
    return ("key    J=00FF00FF K=00000000\nX0=4A645A01 Y0=50DEC930 "
            "V0=5CCA3239 W=FECCAA6E S=51EDE9C7 T=24B66FB5\n"
            "     n  block     X         Y         V         Z       \n"
            f"     1  55555555  48B204D6  5834A585  {v1:08X}  "
            f"{_gate(KEY, '55555555')}\n     2  AAAAAAAA  4F998E01  "
            f"BE9F0917  {v2:08X}  F14D6E28\nMAC F14D6E28\n")


def _readme_script():
    # a comment line, then the README's script as written
    section = README.read_text().split("### Scenario files\n", 1)[1]
    return b"# two-block walkthrough\n" + re.search(
        r"```\n(.*?)```", section, re.S).group(1).encode()


def _refused(id, argv, text, files={}):
    return id, argv, files, 2, "", f"error: {text}\n"


# (id, argv, files, exit, stdout, stderr).  Each file is written under
# tmp_path and named in the argv as {name}; {dir} is tmp_path itself.  A
# file or stdout may be a callable, run with the row.  stderr is None for
# argparse's refusals, whose texts differ across Python versions
ROWS = [
    ("mac-hex", [*MAC, "--hex", TWO_BLOCKS], {}, 0, "F14D6E28\n", ""),
    ("mac-spaced-lowercase", ["mac", "--key", KEY.lower(), "--hex",
                              "55 5555 55aaaaaaaa"], {}, 0, "F14D6E28\n", ""),
    ("mac-file", [*MAC, "--input", "{m}"], {"m": bytes.fromhex(TWO_BLOCKS)},
     0, "F14D6E28\n", ""),
    # a 5-byte file MACs like its zero-padded 8-byte extension
    ("mac-file-5-bytes", [*MAC, "--input", "{m}"],
     {"m": bytes.fromhex("55555555AA")}, 0,
     lambda: _gate(KEY, "55555555AA000000") + "\n", ""),
    ("mac-hex-padded", [*MAC, "--hex", "55555555AA000000"], {}, 0,
     lambda: _gate(KEY, "55555555AA000000") + "\n", ""),
    ("mac-all-ones-key",
     ["mac", "--key", "F" * 16, "--hex", "00000000FFFFFFFF12345678"], {}, 0,
     lambda: _gate("F" * 16, "00000000FFFFFFFF12345678") + "\n", ""),
    _refused("mac-key-short", ["mac", "--key", "123", "--hex", "00"],
             "--key wants 16 hex digits (J then K), got 3"),
    *(_refused(f"mac-key-{id}", ["mac", "--key", key, "--hex", message],
               f"--key is not hex: {key!r}") for id, key, message in [
        ("letters", "X" * 16, "00"), ("0x", "0x00FF000x000000", "00"),
        ("inner-space", "00FF00F 00000000", TWO_BLOCKS),
        ("underscores", "00_FF_0000000000", "00"),
        ("plus", "+0FF00FF00000000", "00")]),
    *(_refused(f"mac-{id}", [*MAC, *source], text) for id, source, text in [
        ("hex-odd", ["--hex", "0"], "--hex wants an even number of digits"),
        ("hex-not-hex", ["--hex", "GG"], "--hex is not hex: 'GG'"),
        ("missing-file", ["--input", "/no/such/file"],
         "cannot read /no/such/file: No such file or directory"),
        ("dir", ["--input", "{dir}"], "cannot read {dir}: Is a directory")]),
    _refused("mac-over-limit-file", [*MAC, "--input", "{m}"], "message exceeds"
             " the 1000000-block limit (ISO 8731-2 default is 1000000)",
             {"m": lambda: bytes(4 * MESSAGE_BLOCK_LIMIT + 1)}),
    *(_refused(f"{cmd}-empty-{src[0][2:]}", [cmd, "--key", KEY, *src], EMPTY,
               {"e": b""}) for cmd in ("mac", "trace")
      for src in (["--hex", ""], ["--input", "{e}"])),
    ("trace-hex", ["trace", "--key", KEY, "--hex", TWO_BLOCKS], {}, 0,
     _trace_two_blocks, ""),
    ("selftest-t1-native", ["selftest", "--suite", "t1", "--core", "native"],
     {}, 0, f"T1       native  54/54 ok\n{_T1_NOTE}"
     "selftest: 54/54 checks passed\n", ""),
    ("selftest-t1-both", ["selftest", "--suite", "t1", "--core", "both"], {},
     0, f"T1       gate    54/54 ok\nT1       native  54/54 ok\n{_T1_NOTE}"
     "selftest: 108/108 checks passed\n", ""),
    ("selftest-all-native",
     ["selftest", "--suite", "all", "--core", "native"], {}, 0,
     f"T1       native  54/54 ok\n{_T1_NOTE}T2       native  78/78 ok\n"
     "note: T2: corpus splits the published rows into 78 checks (the tables "
     "list 56)\nT3       native  64/64 ok\nT4       native  45/45 ok\n"
     "ANNEX_E  native  18/18 ok\nLONG     native  4/4 ok\n"
     "selftest: 263/263 checks passed\n", ""),
    ("selftest-unknown-suite", ["selftest", "--suite", "t7"], {}, 2, "", None),
    ("no-subcommand", [], {}, 2, "", None),
    _refused("bench-zero-blocks", ["bench", "--blocks", "0"],
             "--blocks wants a positive count"),
    ("scenario-readme", SCENARIO, {"s": _readme_script}, 0,
     "line 4: expect X 48B204D6 ok\nline 5: expect Y 5834A585 ok\n"
     "line 8: expect Z F14D6E28 ok\nscenario: 3 passed, 0 failed\n", ""),
    # T4 chain20-zeros: X after two zero blocks, then after one
    ("scenario-cycle-and-reset", SCENARIO,
     {"s": b"key 80018001 80018000\nblock 00000000\nexpect X 55DD063F\n"
           b"cycle 2\nreset\nexpect X 303FF4AA\ncycle\n"}, 0,
     "line 3: expect X 55DD063F ok\nline 6: expect X 303FF4AA ok\n"
     "scenario: 2 passed, 0 failed\n", ""),
    ("scenario-failure", SCENARIO, {"s": _HEAD + b"expect X 00000000\n"}, 1,
     "line 3: expect X 00000000 FAILED (got 48B204D6)\n"
     "scenario: 0 passed, 1 failed\n", ""),
    *(_refused(f"scenario-{id}", SCENARIO, f"scenario line {text}",
               {"s": body}) for id, body, text in [
        ("cycle-before-key", b"cycle\n", "1: cycle before key"),
        ("cycle-before-block", b"key 00FF00FF 00000000\ncycle\n",
         "2: cycle before block"),
        ("end-before-key", b"expect X 00000000\n", "end: cycle before key"),
        ("cycle-zero", _HEAD + b"cycle 0\n", "3: bad cycle count '0'"),
        ("cycle-word", _HEAD + b"cycle zero\n", "3: bad cycle count 'zero'"),
        ("reset-before-key", b"reset\n", "1: reset before key"),
        ("unknown-command", b"launch\n", "1: unknown command 'launch'"),
        ("no-register", _HEAD + b"expect Q 00000000\n",
         "3: no register 'Q' (X, Y, V or Z)"),
        ("j-0x", b"key 0x00FF00 00000000\n",
         "1: J wants 8 hex digits, got '0x00FF00'"),
        ("k-not-hex", b"key 00FF00FF 0000000Z\n",
         "1: K wants 8 hex digits, got '0000000Z'"),
        ("k-underscores", b"key 00FF00FF 00_00_00\n",
         "1: K wants 8 hex digits, got '00_00_00'"),
        ("block-short", b"block 123\n",
         "1: block wants 8 hex digits, got '123'"),
        ("block-plus", b"key 00FF00FF 00000000\nblock +5555555\n",
         "2: block wants 8 hex digits, got '+5555555'"),
        ("expect-0x", _HEAD + b"expect X 0x000000\n",
         "3: X wants 8 hex digits, got '0x000000'"),
        # each command's argument count, checked before the words
        ("key-one-word", b"key 00FF00FF\n",
         "1: key wants two 8-digit words (J K)"),
        ("key-three-words", b"key 00FF00FF 00000000 00000000\n",
         "1: key wants two 8-digit words (J K)"),
        ("block-no-word", b"block\n", "1: block wants one 8-digit word"),
        ("expect-one-word", b"expect X\n",
         "1: expect wants a register and a word"),
        ("cycle-two-counts", b"cycle 1 2\n",
         "1: cycle wants at most one count"),
        ("reset-with-word", b"reset now\n", "1: reset takes no arguments")]),
    _refused("scenario-not-ascii", SCENARIO, "cannot read {s}: 'ascii' codec "
             "can't decode byte 0xe9 in position 22: ordinal not in "
             "range(128)", {"s": b"key 00FF00FF 00000000 \xe9\n"}),
    _refused("scenario-missing-file", ["scenario", "/no/such/file.scenario"],
             "cannot read /no/such/file.scenario: [Errno 2] No such file or "
             "directory: '/no/such/file.scenario'"),
]


@pytest.mark.parametrize("argv, files, code, out, err", [r[1:] for r in ROWS],
                         ids=[r[0] for r in ROWS])
def test_each_command_prints_exactly(argv, files, code, out, err, tmp_path,
                                     capsys):
    paths = {"dir": tmp_path}
    for name, body in files.items():
        paths[name] = tmp_path / name
        paths[name].write_bytes(body() if callable(body) else body)
    try:
        got = cli.main([arg.format(**paths) for arg in argv])
    except SystemExit as exc:    # argparse's refusals
        got = exc.code
    captured = capsys.readouterr()
    assert (got, captured.out) == (code, out() if callable(out) else out)
    if err is not None:
        assert captured.err == err.format(**paths)


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


def test_bench(capsys):
    code, out, _ = run(capsys, "bench", "--blocks", "64")
    assert code == 0
    lines = [l for l in out.splitlines() if "MAC" in l]
    assert len(lines) == 2
    assert all("median of 5 passes" in l and "(range " in l for l in lines)
    macs = {l.split()[-1] for l in lines}
    assert len(macs) == 1    # both cores agree
    assert out.splitlines() == lines    # one line per core, nothing else


def test_bench_exits_1_when_the_cores_disagree(capsys, monkeypatch):
    real = nativecore.mac_values
    monkeypatch.setattr(nativecore, "mac_values",
                        lambda *args, **kwargs: real(*args, **kwargs) ^ 1)
    code, _, err = run(capsys, "bench", "--blocks", "3")
    assert code == 1 and err == "cores disagree\n"


def _cli_child(child_env, report, *argv, flags=()):
    """`python *flags -m maa.cli *argv` in a child; finally, `report` to
    stderr."""
    return subprocess.run(
        [sys.executable, *flags, "-c",
         "import runpy, sys\ntry:\n    runpy.run_module("
         "'maa.cli', run_name='__main__', alter_sys=True)\nfinally:\n"
         f"    print({report}, file=sys.stderr)\n", *argv],
        capture_output=True, text=True, env=child_env)


_GATE_MODULES = {"maa.wordcore", "maa.maaops", "maa.maacore"}

# no command loads these: dataclasses brings inspect, ast, dis, tokenize
# and more that no line of maa uses (about 0.6 MiB of the selftest
# child's peak RSS); importlib.resources brings pathlib and zipfile, which
# the corpus loader does without; only bench uses random
_NEVER = {"dataclasses", "inspect", "importlib.resources", "pathlib",
          "zipfile", "random"}


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
     {"maa.maacore"}, {"maa.nativecore"}),
    (["trace", "--key", KEY, "--hex", "55555555AAAAAAAA"], "MAC F14D6E28",
     {"maa.maacore"}, {"maa.nativecore"}),
    (["scenario", "{script}"], "scenario: 0 passed, 0 failed",
     {"maa.maacore"}, {"maa.nativecore"}),
], ids=["mac", "selftest-native", "selftest-long-native", "selftest",
        "selftest-gate", "trace", "scenario"])
def test_each_command_loads_only_what_it_runs(argv, last_line, loads, skips,
                                              tmp_path, child_env):
    # maa.cli runs as __main__, as under `python -m`, and under -S, so
    # that no site .pth file loads a module first.  No core loads until a
    # command runs it: mac and the native selftest load no gate module,
    # and trace, scenario and the gate selftest no native one
    script = tmp_path / "one.scenario"
    script.write_text(f"key {KEY[:8]} {KEY[8:]}\n")
    proc = _cli_child(child_env, "*sorted(sys.modules)",
                      *(arg.format(script=script) for arg in argv),
                      flags=["-S"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == last_line
    loaded = set(proc.stderr.split())
    assert loads <= loaded
    assert not loaded & (skips | _NEVER)


def test_the_cli_reads_the_corpus_from_a_zip_import(tmp_path, child_env):
    # kat reads vectors.txt through its own module's loader, which a zip
    # archive on the path provides as a directory does
    src = Path(cli.__file__).parent
    archive = tmp_path / "maa.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in [*src.glob("*.py"), src / "vectors.txt"]:
            zf.write(path, f"maa/{path.name}")
    env = {**child_env, "PYTHONPATH": str(archive)}
    where = "sys.modules['maa.kat'].__file__"
    proc = _cli_child(env, where, "selftest", "--suite", "long", "--core",
                      "native", flags=["-S"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest: 4/4 checks passed"
    assert proc.stderr.strip() == str(archive / "maa" / "kat.py")
    proc = _cli_child(env, where, "selftest", "--suite", "t1", "--json",
                      flags=["-S"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["corpus_sha256"] == CORPUS_SHA256


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
