"""Command line front end.

Exit codes: 0 success, 1 a check or comparison failed, 2 bad usage or
bad input (malformed hex, unreadable file, empty message, scenario
parse errors).
"""

import argparse
import random
import sys
import time

from . import kat
from .maacore import (
    EmptyMessageError, Key, MacStream, MessageLimitError, mac_message,
    message_blocks,
)
from .wordcore import Block

_SUITE_FLAGS = {s.lower().replace("_", ""): s for s in (*kat.SUITES, "ALL")}

_BENCH_KEY = (0x80018001, 0x80018000)


class _UsageError(Exception):
    pass


def _parse_key(text):
    t = text.strip()
    if len(t) != 16:
        raise _UsageError(f"--key wants 16 hex digits (J then K), "
                          f"got {len(t)}")
    try:
        return Key.from_hex(t[:8], t[8:])
    except ValueError:
        raise _UsageError(f"--key is not hex: {text!r}")


def _read_payload(args):
    if args.hex_data is not None:
        t = "".join(args.hex_data.split())
        if len(t) % 2:
            raise _UsageError("--hex wants an even number of digits")
        try:
            return bytes.fromhex(t)
        except ValueError:
            raise _UsageError(f"--hex is not hex: {args.hex_data!r}")
    try:
        with open(args.input, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise _UsageError(f"cannot read {args.input}: {e.strerror}")


def cmd_mac(args):
    key = _parse_key(args.key)
    payload = _read_payload(args)
    try:
        z = mac_message(key, payload)
    except (EmptyMessageError, MessageLimitError) as e:
        raise _UsageError(str(e))
    print(z.hex())
    return 0


def cmd_trace(args):
    key = _parse_key(args.key)
    payload = _read_payload(args)
    try:
        blocks = message_blocks(payload)
    except EmptyMessageError as e:
        raise _UsageError(str(e))
    stream = MacStream(key)
    x0, y0, v0, w, s, t = stream.prelude
    print(f"key    J={key.J.hex()} K={key.K.hex()}")
    print(f"X0={x0.hex()} Y0={y0.hex()} V0={v0.hex()} "
          f"W={w.hex()} S={s.hex()} T={t.hex()}")
    print(f"{'n':>6}  {'block':8}  {'X':8}  {'Y':8}  {'V':8}  {'Z':8}")
    try:
        for block in blocks:
            x, y, v = stream.push(block)
            print(f"{stream.total_blocks:>6}  {block.hex()}  {x.hex()}"
                  f"  {y.hex()}  {v.hex()}  {stream.mac().hex()}")
    except MessageLimitError as e:
        raise _UsageError(str(e))
    print(f"MAC {stream.mac().hex()}")
    return 0


def cmd_selftest(args):
    suite = _SUITE_FLAGS[args.suite]
    suites = kat.SUITES if suite == "ALL" else (suite,)
    failures = []
    total = 0
    for s in suites:
        report = kat.run_suite(s, args.core)
        total += len(report.checks)
        failures.extend(report.failures())
        by_core = {}
        for c in report.checks:
            by_core.setdefault(c.core, [0, 0])
            by_core[c.core][c.ok is False] += 1
        for core_name, (good, bad) in by_core.items():
            tag = "ok" if bad == 0 else f"{bad} FAILED"
            print(f"{s:8} {core_name:7} {good}/{good + bad} {tag}")
        for note in report.notes:
            print(f"note: {note}")
    for c in failures:
        print(f"FAIL {c.label}: expected {c.want}, got {c.got}")
    print(f"selftest: {total - len(failures)}/{total} checks passed")
    return 0 if not failures else 1


def _scenario_error(line_no, message):
    raise _UsageError(f"scenario line {line_no}: {message}")


def _scenario_word(token, line_no, what):
    try:
        return Block.from_hex(token)
    except ValueError:
        _scenario_error(line_no, f"{what} wants 8 hex digits, got {token!r}")


class _ScenarioRun:
    """Cycle-by-cycle register checks driven by a small script.

    key J K   set the key; the next cycle starts a fresh computation
    block M   set the message block fed on every following cycle
    expect R H  queue a check of register R (X, Y, V or Z) against H,
              evaluated after the next cycle completes
    cycle [n] run n cycles (default 1), then judge queued expects
    reset     restart from the prelude with the same key

    A file that ends with queued expects gets one implicit final cycle.
    """

    def __init__(self, out=None):
        self.out = out or sys.stdout
        self.key = None
        self.stream = None
        self.block = None
        self.pending = []
        self.passed = 0
        self.failed = 0

    def run(self, text):
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            self._command(line.split(), line_no)
        if self.pending:
            self._cycle(1, line_no="end")
        return self.failed == 0

    def _command(self, fields, line_no):
        word, args = fields[0], fields[1:]
        if word == "key":
            if len(args) != 2:
                _scenario_error(line_no, "key wants two 8-digit words (J K)")
            j = _scenario_word(args[0], line_no, "J")
            k = _scenario_word(args[1], line_no, "K")
            self.key = Key(j, k)
            self.stream = None
        elif word == "block":
            if len(args) != 1:
                _scenario_error(line_no, "block wants one 8-digit word")
            self.block = _scenario_word(args[0], line_no, "block")
        elif word == "expect":
            if len(args) != 2:
                _scenario_error(line_no, "expect wants a register and a word")
            reg = args[0].upper()
            if reg not in ("X", "Y", "V", "Z"):
                _scenario_error(line_no, f"no register {args[0]!r} "
                                         "(X, Y, V or Z)")
            want = _scenario_word(args[1], line_no, reg)
            self.pending.append((line_no, reg, want))
        elif word == "cycle":
            if len(args) > 1:
                _scenario_error(line_no, "cycle wants at most one count")
            count = 1
            if args:
                if not args[0].isdigit() or int(args[0]) < 1:
                    _scenario_error(line_no, f"bad cycle count {args[0]!r}")
                count = int(args[0])
            self._cycle(count, line_no)
        elif word == "reset":
            if args:
                _scenario_error(line_no, "reset takes no arguments")
            if self.key is None:
                _scenario_error(line_no, "reset before key")
            self.stream = None
        else:
            _scenario_error(line_no, f"unknown command {word!r}")

    def _cycle(self, count, line_no):
        if self.key is None:
            _scenario_error(line_no, "cycle before key")
        if self.block is None:
            _scenario_error(line_no, "cycle before block")
        if self.stream is None:
            self.stream = MacStream(self.key)
        try:
            for _ in range(count):
                x, y, v = self.stream.push(self.block)
        except MessageLimitError as e:
            _scenario_error(line_no, str(e))
        regs = {"X": x, "Y": y, "V": v}
        for at, reg, want in self.pending:
            got = regs[reg] if reg != "Z" else self.stream.mac()
            if got == want:
                self.passed += 1
                print(f"line {at}: expect {reg} {want.hex()} ok",
                      file=self.out)
            else:
                self.failed += 1
                print(f"line {at}: expect {reg} {want.hex()} FAILED "
                      f"(got {got.hex()})", file=self.out)
        self.pending.clear()


def cmd_scenario(args):
    try:
        with open(args.path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise _UsageError(f"cannot read {args.path}: {e}")
    run = _ScenarioRun()
    ok = run.run(text)
    print(f"scenario: {run.passed} passed, {run.failed} failed")
    return 0 if ok else 1


def cmd_bench(args):
    if args.blocks < 1:
        raise _UsageError("--blocks wants a positive count")
    rng = random.Random(0x1D1A)
    values = [rng.getrandbits(32) for _ in range(args.blocks)]
    macs = set()
    for name, core in kat._CORES.items():
        t0 = time.perf_counter()
        z = core.mac_values(*_BENCH_KEY, values, limit=args.blocks)
        dt = time.perf_counter() - t0
        rate = args.blocks / dt if dt > 0 else float("inf")
        print(f"{name:7} {args.blocks} blocks in {dt:.4f}s "
              f"({rate:,.0f} blocks/s)  MAC {z:08X}")
        macs.add(z)
    if len(macs) > 1:
        print("cores disagree", file=sys.stderr)
        return 1
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="maa",
        description="ISO 8731-2 Message Authenticator Algorithm, with a "
                    "gate-level core and a native-integer core.")
    sub = parser.add_subparsers(dest="command", required=True)

    keyed = argparse.ArgumentParser(add_help=False)
    keyed.add_argument("--key", required=True, metavar="HEX16",
                       help="64-bit key as 16 hex digits, J first then K")
    g = keyed.add_mutually_exclusive_group(required=True)
    g.add_argument("--input", metavar="PATH", help="message file")
    g.add_argument("--hex", dest="hex_data", metavar="HEX",
                   help="message as hex digits")

    p = sub.add_parser("mac", parents=[keyed], help="MAC a message")
    p.set_defaults(func=cmd_mac)

    p = sub.add_parser("trace", parents=[keyed],
                       help="MAC a message, printing X, Y, V "
                            "and the running Z per block")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("selftest", help="run the known-answer corpus")
    p.add_argument("--suite", choices=sorted(_SUITE_FLAGS), default="all")
    p.add_argument("--core", choices=kat.CORES, default="both")
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("scenario", help="run a register-check script")
    p.add_argument("path", help="scenario file")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("bench", help="time both cores on one message")
    p.add_argument("--blocks", type=int, default=4100, metavar="N")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
