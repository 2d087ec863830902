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
_CORES, and `maa selftest --core` lists it.

Suites:

  T1       multiplications, PAT/BYT conditioning, key expansion chain
  T2       instrumented main-loop iterations with substitute masks
  T3       two-block MACs with all intermediates
  T4       20-block zero message, X/Y after every iteration
  ANNEX_E  realistic key: prelude plus first message iteration
  LONG     whole-message MACs up to 4100 blocks
"""

import re
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

_REQUIRED_IN = {
    "MUL1": frozenset(("a", "b")),
    "MUL2": frozenset(("a", "b")),
    "MUL2A": frozenset(("a", "b")),
    "PAT": frozenset(("a", "b")),
    "BYT": frozenset(("a", "b")),
    "PRELUDE_CHAIN": frozenset(("j1", "k1", "p")),
    "PRELUDE": frozenset(("j", "k")),
    "LOOP_TRACE": frozenset(("a", "b", "c", "d", "x0", "y0", "v", "w", "m")),
    "FULL_2BLOCK": frozenset(("j", "k", "m1", "m2")),
    "CHAIN_TRACE": frozenset(("j", "k", "init", "incr", "count")),
    "LONG_MAC": frozenset(("j", "k", "init", "incr", "count")),
}

_ALLOWED_OUT = {
    "MUL1": frozenset(("w",)),
    "MUL2": frozenset(("w",)),
    "MUL2A": frozenset(("w",)),
    "PAT": frozenset(("p",)),
    "BYT": frozenset(("u", "l")),
    "PRELUDE_CHAIN": frozenset(
        tuple(f.lower() for f in _CHAIN_FIELDS) + ("qp",)),
    "PRELUDE": frozenset(("x0", "y0", "v0", "w", "s", "t")),
    "LOOP_TRACE": frozenset(_TRACE_KEYS),
    "FULL_2BLOCK": frozenset(("p", "x0", "y0", "v0", "w", "s", "t",
                              "x", "y", "xp", "yp", "xpp", "ypp",
                              "xppp", "yppp", "z")),
    "CHAIN_TRACE": None,  # depends on count, validated separately
    "LONG_MAC": frozenset(("z",)),
}

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
    allowed = _ALLOWED_OUT[rec.op]
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
        if op not in _REQUIRED_IN:
            raise CorpusError(f"line {line_no}: unknown op {op!r}")
        if not ins.startswith("in:") or not outs.startswith("out:"):
            raise CorpusError(f"line {line_no}: expected in:... out:...")
        if (suite, name) in seen:
            raise CorpusError(f"line {line_no}: duplicate record "
                              f"{suite}/{name}")
        seen.add((suite, name))
        inputs = _parse_kv(ins[3:], line_no, "input")
        outputs = _parse_kv(outs[4:], line_no, "output")
        if set(inputs) != _REQUIRED_IN[op]:
            raise CorpusError(
                f"line {line_no}: {op} needs inputs "
                f"{sorted(_REQUIRED_IN[op])}, got {sorted(inputs)}")
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
    out = []
    value = init & 0xFFFFFFFF
    for _ in range(count):
        out.append(value)
        value = (value + incr) & 0xFFFFFFFF
    return out


def _progression(ins):
    return gen_message(int(ins["init"], 16), int(ins["incr"], 16),
                       int(ins["count"]))


class _GateCore:
    """The gate-level core behind nativecore's int signatures.

    Ints become Blocks (and the PAT octet an Octet) on the way in;
    results leave as their .value.  Each call looks the core function up
    on its module, so whatever is bound there at call time runs.
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
        pre = maacore.prelude(maacore.Key(Block.from_int(j),
                                          Block.from_int(k)))
        return (pre.X0.value, pre.Y0.value, pre.V0.value, pre.W.value,
                pre.S.value, pre.T.value)

    def main_loop(self, x, y, v, w, block):
        regs = maacore.main_loop(*map(Block.from_int, (x, y, v, w, block)))
        return tuple(r.value for r in regs)

    def loop_trace(self, x, y, v, w, block, masks):
        tr = maacore.loop_trace(
            *map(Block.from_int, (x, y, v, w, block)),
            maacore.LoopMasks(*map(Block.from_int, masks)))
        return {name: word.value for name, word in tr.items()}

    def mac_values(self, j, k, values):
        key = maacore.Key(Block.from_int(j), Block.from_int(k))
        blocks = [Block.from_int(v) for v in values]
        return maacore.mac_blocks(key, blocks).value


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


def _outs(rec, core):
    """Every output the record's op yields on one core adapter, as ints."""
    ins = rec.inputs
    hx = lambda name: int(ins[name], 16)
    op = rec.op
    if op in ("MUL1", "MUL2", "MUL2A"):
        return {"w": getattr(core, op.lower())(hx("a"), hx("b"))}
    if op == "PAT":
        return {"p": core.pat(hx("a"), hx("b"))}
    if op == "BYT":
        u, l = core.byt(hx("a"), hx("b"))
        return {"u": u, "l": l}
    if op == "PRELUDE_CHAIN":
        im = core.power_chain(hx("j1"), hx("k1"), hx("p"))
        outs = {f.lower(): im[f] for f in _CHAIN_FIELDS}
        outs["qp"] = core.q(hx("p"))
        return outs
    if op == "PRELUDE":
        return dict(zip(_PRELUDE_KEYS, core.prelude(hx("j"), hx("k"))))
    if op == "LOOP_TRACE":
        masks = (hx("a"), hx("c"), hx("b"), hx("d"))
        tr = core.loop_trace(hx("x0"), hx("y0"), hx("v"), hx("w"), hx("m"),
                             masks)
        return {k: tr[k.capitalize()] for k in _TRACE_KEYS}
    if op == "FULL_2BLOCK":
        j, k = hx("j"), hx("k")
        outs = _chain(core, j, k, (hx("m1"), hx("m2")))
        for key, step in _TWO_BLOCK_KEYS.items():
            outs[key] = outs[step]
        outs["p"] = core.pat(j, k)
        return outs
    if op == "CHAIN_TRACE":
        return _chain(core, hx("j"), hx("k"), _progression(ins))
    if op == "LONG_MAC":
        return {"z": core.mac_values(hx("j"), hx("k"), _progression(ins))}
    raise AssertionError(op)


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
