"""Known-answer corpus: loader and suite runner for both cores.

The corpus lives in vectors.txt next to this module, one record per
line; the file's header comments give the grammar.  Each record names an
operation, its inputs, and one expected value per output key, so a
single published table row may unfold into several checks here.  The
runner executes a record on the gate-level core, the native-word core,
or both, and compares every requested output.

One runner serves every core through nativecore's int signatures: the
native adapter is the nativecore module itself, and the gate adapter
converts ints to Blocks and back.  A new core is one more adapter in
_CORES, and `maa selftest --core` lists it.  A new op is one more entry
in _OPS: its input names, its output names and its run on an adapter.

Suites:

  T1       multiplications, PAT/BYT conditioning, key expansion chain
  T2       instrumented main-loop iterations with substitute masks
  T3       two-block MACs with all intermediates
  T4       20-block zero message, X/Y after every iteration
  ANNEX_E  realistic key: prelude plus first message iteration
  LONG     whole-message MACs up to 4100 blocks
"""

import re
from collections import namedtuple
from dataclasses import dataclass
from importlib import resources

from . import maacore, maaops, nativecore
from .maacore import SEGMENT_BLOCKS
from .wordcore import Block, Octet

SUITES = ("T1", "T2", "T3", "T4", "ANNEX_E", "LONG")

# Row counts of the published tables.  Where the corpus splits a row
# into one check per value the totals drift apart; run_suite notes the
# difference instead of failing, since every transcribed value is still
# checked.
OFFICIAL_COUNTS = {"T1": 36, "T2": 56, "T3": 64, "T4": 45}

_CHAIN_FIELDS = (
    "J12", "J14", "J16", "J18", "J22", "J24", "J26", "J28",
    "K12", "K14", "K15", "K17", "K19", "K22", "K24", "K25", "K27", "K29",
    "H0", "H4", "H5", "H6", "H7", "H8", "H9",
)

_TRACE_KEYS = ("vp", "e", "x", "y", "f", "g", "fp", "gp", "fpp", "gpp",
               "xp", "yp", "z")

_PRELUDE_KEYS = ("x0", "y0", "v0", "w", "s", "t")

# FULL_2BLOCK's names for the per-step registers that _chain records
_TWO_BLOCK_KEYS = {"x": "x01", "y": "y01", "xp": "x02", "yp": "y02",
                   "xpp": "cx1", "ypp": "cy1", "xppp": "cx2", "yppp": "cy2"}

_WORD_RE = re.compile(r"[0-9A-F]{8}\Z")
_BYTE_RE = re.compile(r"[0-9A-F]{2}\Z")
_COUNT_RE = re.compile(r"[1-9][0-9]*\Z")
_CHAIN_OUT_RE = re.compile(r"(?:[xy]([0-9]{2})|c[xy][12]|z)\Z")


class CorpusError(ValueError):
    """vectors.txt does not follow its own grammar."""


@dataclass(frozen=True)
class VectorRecord:
    suite: str
    name: str
    op: str
    inputs: dict
    outputs: dict


@dataclass(frozen=True)
class CheckResult:
    suite: str
    record: str
    check: str
    core: str
    want: str
    got: str

    @property
    def ok(self):
        return self.got == self.want

    @property
    def label(self):
        return f"{self.core}:{self.suite}/{self.record}/{self.check}"


@dataclass
class SuiteReport:
    suite: str
    core: str
    checks: list
    notes: list

    @property
    def passed(self):
        return sum(1 for c in self.checks if c.ok)

    @property
    def failed(self):
        return sum(1 for c in self.checks if not c.ok)

    @property
    def ok(self):
        return bool(self.checks) and self.failed == 0

    def failures(self):
        return [c for c in self.checks if not c.ok]


def _parse_kv(chunk, line_no, side):
    pairs = {}
    for item in chunk.split(","):
        key, sep, value = item.partition("=")
        if not sep or not key or not value:
            raise CorpusError(f"line {line_no}: malformed {side} item {item!r}")
        if key in pairs:
            raise CorpusError(f"line {line_no}: duplicate {side} key {key!r}")
        pairs[key] = value
    return pairs


def _check_width(key, value, line_no):
    if key == "count":
        pattern, kind = _COUNT_RE, "a positive decimal count"
    elif key == "p":
        pattern, kind = _BYTE_RE, "2 uppercase hex digits"
    else:
        pattern, kind = _WORD_RE, "8 uppercase hex digits"
    if not pattern.match(value):
        raise CorpusError(
            f"line {line_no}: {key}={value!r} is not {kind}")


def _validate_outputs(rec, line_no):
    allowed = _OPS[rec.op].outs
    if allowed is not None:
        bad = set(rec.outputs) - allowed
        if bad:
            raise CorpusError(
                f"line {line_no}: {rec.op} cannot produce {sorted(bad)}")
        return
    # CHAIN_TRACE: per-iteration x/y keys bounded by count
    count = int(rec.inputs["count"])
    if count > SEGMENT_BLOCKS:
        raise CorpusError(
            f"line {line_no}: CHAIN_TRACE is single-segment, count "
            f"{count} > {SEGMENT_BLOCKS}")
    for key in rec.outputs:
        m = _CHAIN_OUT_RE.match(key)
        if not m:
            raise CorpusError(f"line {line_no}: CHAIN_TRACE cannot "
                              f"produce {key!r}")
        if m.group(1) is not None and not 1 <= int(m.group(1)) <= count:
            raise CorpusError(f"line {line_no}: {key!r} is outside the "
                              f"{count}-block chain")


def _parse(text):
    records = []
    seen = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 5:
            raise CorpusError(f"line {line_no}: expected 5 fields, "
                              f"got {len(fields)}")
        suite, name, op, ins, outs = fields
        if suite not in SUITES:
            raise CorpusError(f"line {line_no}: unknown suite {suite!r}")
        if op not in _OPS:
            raise CorpusError(f"line {line_no}: unknown op {op!r}")
        if not ins.startswith("in:") or not outs.startswith("out:"):
            raise CorpusError(f"line {line_no}: expected in:... out:...")
        if (suite, name) in seen:
            raise CorpusError(f"line {line_no}: duplicate record "
                              f"{suite}/{name}")
        seen.add((suite, name))
        inputs = _parse_kv(ins[3:], line_no, "input")
        outputs = _parse_kv(outs[4:], line_no, "output")
        if set(inputs) != _OPS[op].ins:
            raise CorpusError(
                f"line {line_no}: {op} needs inputs "
                f"{sorted(_OPS[op].ins)}, got {sorted(inputs)}")
        for key, value in [*inputs.items(), *outputs.items()]:
            _check_width(key, value, line_no)
        rec = VectorRecord(suite, name, op, inputs, outputs)
        _validate_outputs(rec, line_no)
        records.append(rec)
    return records


_RECORDS = None


def load_vectors():
    """All corpus records, parsed and validated, in file order."""
    global _RECORDS
    if _RECORDS is None:
        text = resources.files("maa").joinpath("vectors.txt").read_text("ascii")
        _RECORDS = _parse(text)
    return _RECORDS


def gen_message(init, incr, count):
    """Block values in arithmetic progression mod 2**32.

    This is corpus plumbing, not part of the algorithm: the chained
    vectors define their messages this way instead of listing thousands
    of blocks.
    """
    return [(init + n * incr) & 0xFFFFFFFF for n in range(count)]


def _progression(i):
    return gen_message(i["init"], i["incr"], i["count"])


class _GateCore:
    """The gate-level core behind nativecore's int signatures.

    Ints become Blocks, or the PAT octet an Octet, and results leave as
    .value.  Each call looks the core function up on its module, so what
    is bound there at call time runs; maacore.prelude keeps its last key.
    """

    def mul1(self, a, b):
        return maaops.mul1(Block.from_int(a), Block.from_int(b)).value

    def mul2(self, a, b):
        return maaops.mul2(Block.from_int(a), Block.from_int(b)).value

    def mul2a(self, a, b):
        return maaops.mul2a(Block.from_int(a), Block.from_int(b)).value

    def pat(self, a, b):
        return maaops.pat(Block.from_int(a), Block.from_int(b)).value

    def byt(self, a, b):
        u, l = maaops.byt(Block.from_int(a), Block.from_int(b))
        return u.value, l.value

    def q(self, p):
        return maaops.q(Octet.from_int(p)).value

    def power_chain(self, j1, k1, p):
        im = maacore.power_chain(Block.from_int(j1), Block.from_int(k1),
                                 Octet.from_int(p))
        return {name: word.value for name, word in im.items()}

    def prelude(self, j, k):
        key = maacore.Key(Block.from_int(j), Block.from_int(k))
        return tuple(r.value for r in maacore.prelude(key))

    def main_loop(self, x, y, v, w, block):
        regs = maacore.main_loop(*map(Block.from_int, (x, y, v, w, block)))
        return tuple(r.value for r in regs)

    def loop_trace(self, x, y, v, w, block, masks):
        tr = maacore.loop_trace(
            *map(Block.from_int, (x, y, v, w, block)),
            tuple(map(Block.from_int, masks)))
        return {name: word.value for name, word in tr.items()}

    def mac_values(self, j, k, values, limit=maacore.MESSAGE_BLOCK_LIMIT):
        key = maacore.Key(Block.from_int(j), Block.from_int(k))
        blocks = map(Block.from_int, values)
        return maacore.mac_blocks(key, blocks, limit).value


_CORES = {"gate": _GateCore(), "native": nativecore}
CORES = (*_CORES, "both")


def _chain(core, j, k, blocks):
    """Prelude once, then the main loop over blocks, S and T.

    Returns the prelude words, X and Y after every step (x01, y01, ...
    for the blocks, cx1/cy1 and cx2/cy2 for S and T) and the MAC z.
    """
    pre = core.prelude(j, k)
    outs = dict(zip(_PRELUDE_KEYS, pre))
    x, y, v, w, s, t = pre
    for i, m in enumerate(blocks, start=1):
        x, y, v = core.main_loop(x, y, v, w, m)
        outs[f"x{i:02d}"], outs[f"y{i:02d}"] = x, y
    x, y, v = core.main_loop(x, y, v, w, s)
    outs["cx1"], outs["cy1"] = x, y
    x, y, v = core.main_loop(x, y, v, w, t)
    outs["cx2"], outs["cy2"] = x, y
    outs["z"] = x ^ y
    return outs


def _prelude_chain(core, i):
    im = core.power_chain(i["j1"], i["k1"], i["p"])
    return {**{f.lower(): im[f] for f in _CHAIN_FIELDS}, "qp": core.q(i["p"])}


def _loop_trace(core, i):
    masks = (i["a"], i["c"], i["b"], i["d"])
    tr = core.loop_trace(i["x0"], i["y0"], i["v"], i["w"], i["m"], masks)
    return {k: tr[k.capitalize()] for k in _TRACE_KEYS}


def _full_2block(core, i):
    outs = _chain(core, i["j"], i["k"], (i["m1"], i["m2"]))
    for key, step in _TWO_BLOCK_KEYS.items():
        outs[key] = outs[step]
    outs["p"] = core.pat(i["j"], i["k"])
    return outs


# Each op once: its input names, its output names (None where they depend
# on the record's count; _validate_outputs checks those) and its run on a
# core adapter, from the record's inputs as ints.
_Op = namedtuple("_Op", "ins outs run")
_OPS = {
    "MUL1": _Op({"a", "b"}, {"w"}, lambda c, i: {"w": c.mul1(i["a"], i["b"])}),
    "MUL2": _Op({"a", "b"}, {"w"}, lambda c, i: {"w": c.mul2(i["a"], i["b"])}),
    "MUL2A": _Op({"a", "b"}, {"w"},
                 lambda c, i: {"w": c.mul2a(i["a"], i["b"])}),
    "PAT": _Op({"a", "b"}, {"p"}, lambda c, i: {"p": c.pat(i["a"], i["b"])}),
    "BYT": _Op({"a", "b"}, {"u", "l"},
               lambda c, i: dict(zip("ul", c.byt(i["a"], i["b"])))),
    "PRELUDE_CHAIN": _Op({"j1", "k1", "p"},
                         {*(f.lower() for f in _CHAIN_FIELDS), "qp"},
                         _prelude_chain),
    "PRELUDE": _Op({"j", "k"}, {*_PRELUDE_KEYS}, lambda c, i:
                   dict(zip(_PRELUDE_KEYS, c.prelude(i["j"], i["k"])))),
    "LOOP_TRACE": _Op({"a", "b", "c", "d", "x0", "y0", "v", "w", "m"},
                      {*_TRACE_KEYS}, _loop_trace),
    "FULL_2BLOCK": _Op({"j", "k", "m1", "m2"},
                       {"p", *_PRELUDE_KEYS, *_TWO_BLOCK_KEYS, "z"},
                       _full_2block),
    "CHAIN_TRACE": _Op({"j", "k", "init", "incr", "count"}, None, lambda c, i:
                       _chain(c, i["j"], i["k"], _progression(i))),
    "LONG_MAC": _Op({"j", "k", "init", "incr", "count"}, {"z"}, lambda c, i:
                    {"z": c.mac_values(i["j"], i["k"], _progression(i))}),
}


def _outs(rec, core):
    """Every output the record's op yields on one core adapter, as ints."""
    ins = {k: int(v, 10 if k == "count" else 16)
           for k, v in rec.inputs.items()}
    return _OPS[rec.op].run(core, ins)


def run_record(record, core):
    """One record on one core; a CheckResult per expected output."""
    outs = _outs(record, _CORES[core])
    return [CheckResult(record.suite, record.name, key, core, want,
                        f"{outs[key]:0{len(want)}X}")
            for key, want in record.outputs.items()]


def run_suite(suite="ALL", core="gate"):
    """Run a suite (or ALL) on one core (or both); returns a SuiteReport."""
    suite = suite.upper()
    core = core.lower()
    if suite != "ALL" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of "
                         f"{', '.join(SUITES)} or ALL")
    if core not in CORES:
        raise ValueError(f"unknown core {core!r}; pick one of "
                         f"{', '.join(CORES)}")
    records = [r for r in load_vectors()
               if suite == "ALL" or r.suite == suite]
    checks = []
    for c in _CORES if core == "both" else (core,):
        for record in records:
            checks.extend(run_record(record, c))
    notes = []
    for s in SUITES if suite == "ALL" else (suite,):
        raw = sum(len(r.outputs) for r in records if r.suite == s)
        official = OFFICIAL_COUNTS.get(s)
        if official is not None and raw != official:
            notes.append(f"{s}: corpus splits the published rows into "
                         f"{raw} checks (the tables list {official})")
    return SuiteReport(suite=suite, core=core, checks=checks, notes=notes)
