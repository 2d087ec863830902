"""Command line front end.

Exit codes: 0 success, 1 a check or comparison failed, 2 bad usage or
bad input (malformed hex, unreadable file, empty message, scenario
parse errors), 141 the reader closed stdout before the output ended
(128 + SIGPIPE, as a filter killed by the signal reports).
"""

import argparse
import os
import stat
import struct
import sys
from itertools import chain

from . import CORES, EmptyMessageError, MessageLimitError, SUITES
from . import MESSAGE_BLOCK_LIMIT, words

_SUITE_FLAGS = {s.lower().replace("_", ""): s for s in (*SUITES, "ALL")}

_BENCH_KEY = (0x80018001, 0x80018000)

_CHUNK_BYTES = 64 << 10

_BENCH_PASSES = 5


class _UsageError(Exception):
    pass


def _parse_key(text):
    """The key halves (J, K) as ints, from exactly 16 hex digits."""
    t = text.strip()
    if len(t) != 16:
        raise _UsageError(f"--key wants 16 hex digits (J then K), "
                          f"got {len(t)}")
    try:
        return struct.unpack(">II", bytes.fromhex(t))
    except (ValueError, struct.error):  # fromhex skips spaces: "00 FF 0000"
        raise _UsageError(f"--key is not hex: {text!r}")


def _chunks(args):
    """The message as byte chunks: --hex in one, --input _CHUNK_BYTES at
    a time, once a regular file's size shows it is within the limit."""
    if args.hex_data is not None:
        t = "".join(args.hex_data.split())
        if len(t) % 2:
            raise _UsageError("--hex wants an even number of digits")
        try:
            yield bytes.fromhex(t)
        except ValueError:
            raise _UsageError(f"--hex is not hex: {args.hex_data!r}")
        return
    try:
        with open(args.input, "rb") as fh:
            st = os.fstat(fh.fileno())
            if (stat.S_ISREG(st.st_mode)
                    and (st.st_size + 3) // 4 > MESSAGE_BLOCK_LIMIT):
                raise MessageLimitError(MESSAGE_BLOCK_LIMIT)
            while chunk := fh.read(_CHUNK_BYTES):
                yield chunk
    except OSError as e:
        raise _UsageError(f"cannot read {args.input}: {e.strerror}")


def cmd_mac(args):
    from . import nativecore
    z = nativecore.mac_values(*_parse_key(args.key), words(_chunks(args)))
    print(f"{z:08X}")
    return 0


def cmd_trace(args):
    from .maacore import Key, MacStream
    from .wordcore import Block
    key = Key(*map(Block, _parse_key(args.key)))
    values = words(_chunks(args))
    first = next(values, None)
    if first is None:
        raise EmptyMessageError()
    stream = MacStream(key)
    x0, y0, v0, w, s, t = stream.prelude
    print(f"key    J={key.J.hex()} K={key.K.hex()}")
    print(f"X0={x0.hex()} Y0={y0.hex()} V0={v0.hex()} "
          f"W={w.hex()} S={s.hex()} T={t.hex()}")
    print(f"{'n':>6}  {'block':8}  {'X':8}  {'Y':8}  {'V':8}  {'Z':8}")
    for block in map(Block, chain((first,), values)):
        x, y, v = stream.push(block)
        print(f"{stream.total_blocks:>6}  {block.hex()}  {x.hex()}"
              f"  {y.hex()}  {v.hex()}  {stream.mac().hex()}")
    print(f"MAC {stream.mac().hex()}")
    return 0


def cmd_selftest(args):
    from . import kat
    suite = _SUITE_FLAGS[args.suite]
    suites = SUITES if suite == "ALL" else (suite,)
    cores = (args.core,) if args.core in CORES else CORES
    say = print if not args.json else lambda line: None
    counts, failures, notes = [], [], []
    for s in suites:
        for core in cores:
            report = kat.run_suite(s, core)
            counts.append({"suite": s, "core": core, "passed": report.passed,
                           "failed": report.failed})
            failures.extend(report.failures())
            tag = "ok" if report.failed == 0 else f"{report.failed} FAILED"
            say(f"{s:8} {core:7} {report.passed}/{len(report.checks)} {tag}")
        notes.extend(report.notes)
        for note in report.notes:
            say(f"note: {note}")
    for c in failures:
        say(f"FAIL {c.label}: expected {c.want}, got {c.got}")
    passed = sum(c["passed"] for c in counts)
    say(f"selftest: {passed}/{passed + len(failures)} checks passed")
    if args.json:
        import hashlib, json
        print(json.dumps({
            "passed": passed, "failed": len(failures), "suites": counts,
            "failures": [c._asdict() for c in failures], "notes": notes,
            "corpus_sha256": hashlib.sha256(kat.corpus_bytes())
            .hexdigest()}, indent=1))
    return 0 if not failures else 1


def _scenario_error(line_no, message):
    raise _UsageError(f"scenario line {line_no}: {message}")


def _scenario_word(token, line_no, what):
    from .wordcore import Block
    try:
        return Block.from_hex(token)
    except ValueError:
        _scenario_error(line_no, f"{what} wants 8 hex digits, got {token!r}")


# Each scenario command: the argument counts it takes, and its usage text
_SCENARIO_USAGE = {
    "key": ((2,), "key wants two 8-digit words (J K)"),
    "block": ((1,), "block wants one 8-digit word"),
    "expect": ((2,), "expect wants a register and a word"),
    "cycle": ((0, 1), "cycle wants at most one count"),
    "reset": ((0,), "reset takes no arguments"),
}


def cmd_scenario(args):
    """Cycle-by-cycle register checks driven by a small script.

    key J K   set the key; the next cycle starts a fresh computation
    block M   set the message block fed on every following cycle
    expect R H  queue a check of register R (X, Y, V or Z) against H,
              evaluated after the next cycle completes
    cycle [n] run n cycles (default 1), then judge queued expects
    reset     restart from the prelude with the same key

    A file that ends with queued expects gets one implicit final cycle.
    """
    from .maacore import Key, MacStream
    try:
        with open(args.path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise _UsageError(f"cannot read {args.path}: {e}")
    key = stream = block = None
    pending, verdicts = [], []

    def cycle(count, at):
        nonlocal stream
        if key is None:
            _scenario_error(at, "cycle before key")
        if block is None:
            _scenario_error(at, "cycle before block")
        if stream is None:
            stream = MacStream(key)
        if stream.total_blocks + count > stream.limit:
            _scenario_error(at, str(MessageLimitError(stream.limit)))
        for _ in range(count):
            x, y, v = stream.push(block)
        regs = {"X": x, "Y": y, "V": v}
        for line_no, reg, want in pending:
            got = regs[reg] if reg != "Z" else stream.mac()
            verdicts.append(got == want)
            print(f"line {line_no}: expect {reg} {want.hex()} "
                  + ("ok" if got == want else f"FAILED (got {got.hex()})"))
        pending.clear()

    for at, raw in enumerate(text.splitlines(), start=1):
        if not (fields := raw.split("#", 1)[0].split()):
            continue
        name, *params = fields
        if name not in _SCENARIO_USAGE:
            _scenario_error(at, f"unknown command {name!r}")
        counts, usage = _SCENARIO_USAGE[name]
        if len(params) not in counts:
            _scenario_error(at, usage)
        if name == "key":
            j = _scenario_word(params[0], at, "J")
            key = Key(j, _scenario_word(params[1], at, "K"))
            stream = None
        elif name == "block":
            block = _scenario_word(params[0], at, "block")
        elif name == "expect":
            reg = params[0].upper()
            if reg not in ("X", "Y", "V", "Z"):
                _scenario_error(at, f"no register {params[0]!r} "
                                    "(X, Y, V or Z)")
            pending.append((at, reg, _scenario_word(params[1], at, reg)))
        elif name == "cycle":
            if params and not (params[0].isdigit() and int(params[0]) >= 1):
                _scenario_error(at, f"bad cycle count {params[0]!r}")
            cycle(int(params[0]) if params else 1, at)
        else:  # reset
            if key is None:
                _scenario_error(at, "reset before key")
            stream = None
    if pending:
        cycle(1, "end")
    passed = verdicts.count(True)
    print(f"scenario: {passed} passed, {len(verdicts) - passed} failed")
    return 0 if all(verdicts) else 1


def cmd_bench(args):
    import random, time
    from . import kat
    if args.blocks < 1:
        raise _UsageError("--blocks wants a positive count")
    rng = random.Random(0x1D1A)
    values = [rng.getrandbits(32) for _ in range(args.blocks)]
    macs = set()
    for name in CORES:
        core = kat.core_module(name)
        rates = []
        for _ in range(_BENCH_PASSES):
            t0 = time.perf_counter()
            z = core.mac_values(*_BENCH_KEY, values, limit=args.blocks)
            dt = time.perf_counter() - t0
            rates.append(args.blocks / dt if dt > 0 else float("inf"))
            macs.add(z)
        rates.sort()
        print(f"{name:7} {args.blocks} blocks, median of {_BENCH_PASSES} "
              f"passes {rates[_BENCH_PASSES // 2]:,.0f} blocks/s "
              f"(range {rates[0]:,.0f}-{rates[-1]:,.0f})  MAC {z:08X}")
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
    p.add_argument("--core", choices=[*CORES, "both"], default="both")
    p.add_argument("--json", action="store_true", help="print JSON only")
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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (_UsageError, EmptyMessageError, MessageLimitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # keep the interpreter's last flush of stdout quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
