"""Known-answer corpus: loader and suite runner for both cores.

The corpus lives in vectors.txt next to this module, one record per
line; the file's header comments give the grammar, and tests/test_kat.py
checks every record against it by running the record's op.  Each record
names an operation, its inputs, and one expected value per output key,
so a single published table row may unfold into several checks here.
The runner executes a record on the gate-level core, the native-word
core, or both, and compares every requested output.

One runner serves every core through one int interface, nativecore's
signatures: each core is a module that defines them, maacore for the
gate core (its int entry for a whole message is mac_values) and
nativecore for the native one, imported by core_module on first use.
A new core is one entry in maa.CORES, its name and its module's name
(`maa selftest --core` lists them).  A new op is one entry in _OPS:
its run on a core module.

Suites:

  T1       multiplications, PAT/BYT conditioning, key expansion chain
  T2       instrumented main-loop iterations with substitute masks
  T3       two-block MACs with all intermediates
  T4       20-block zero message, X/Y after every iteration
  ANNEX_E  realistic key: prelude plus first message iteration
  LONG     whole-message MACs up to 4100 blocks
"""

from collections import namedtuple
from importlib import import_module, resources

from . import CORES, SUITES

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

VectorRecord = namedtuple("VectorRecord", "suite name op inputs outputs")


class CheckResult(namedtuple("CheckResult",
                             "suite record check core want got")):
    __slots__ = ()

    @property
    def ok(self):
        return self.got == self.want

    @property
    def label(self):
        return f"{self.core}:{self.suite}/{self.record}/{self.check}"


class SuiteReport(namedtuple("SuiteReport", "suite core checks notes")):
    __slots__ = ()

    @property
    def passed(self):
        return sum(1 for c in self.checks if c.ok)

    @property
    def failed(self):
        return sum(1 for c in self.checks if not c.ok)

    def failures(self):
        return [c for c in self.checks if not c.ok]


_RECORDS = None


def _pairs(field):
    """The key=value items after a field's in: or out: tag, as a dict."""
    return dict(item.split("=") for item in field.partition(":")[2].split(","))


def load_vectors():
    """All corpus records in file order, their values as strings.

    vectors.txt is sealed by its SHA-256 and a tier-1 test checks its
    grammar, so the loader only splits each record into its fields.
    """
    global _RECORDS
    if _RECORDS is None:
        text = resources.files("maa").joinpath("vectors.txt").read_text("ascii")
        rows = [line.split() for line in text.splitlines()]
        _RECORDS = [VectorRecord(*f[:3], _pairs(f[3]), _pairs(f[4]))
                    for f in rows if f and not f[0].startswith("#")]
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


def core_module(name):
    """The module of core `name`, imported on first use."""
    return import_module(f"{__package__}.{CORES[name]}")


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


# Each op once: its run on a core module, from the record's inputs as
# ints, to every output it yields.
_OPS = {
    "MUL1": lambda c, i: {"w": c.mul1(i["a"], i["b"])},
    "MUL2": lambda c, i: {"w": c.mul2(i["a"], i["b"])},
    "MUL2A": lambda c, i: {"w": c.mul2a(i["a"], i["b"])},
    "PAT": lambda c, i: {"p": c.pat(i["a"], i["b"])},
    "BYT": lambda c, i: dict(zip("ul", c.byt(i["a"], i["b"]))),
    "PRELUDE_CHAIN": _prelude_chain,
    "PRELUDE": lambda c, i: dict(zip(_PRELUDE_KEYS,
                                     c.prelude(i["j"], i["k"]))),
    "LOOP_TRACE": _loop_trace,
    "FULL_2BLOCK": _full_2block,
    "CHAIN_TRACE": lambda c, i: _chain(c, i["j"], i["k"], _progression(i)),
    "LONG_MAC": lambda c, i: {"z": c.mac_values(i["j"], i["k"],
                                                _progression(i))},
}


def _outs(rec, core):
    """Every output the record's op yields on one core module, as ints."""
    ins = {k: int(v, 10 if k == "count" else 16)
           for k, v in rec.inputs.items()}
    return _OPS[rec.op](core, ins)


def run_record(record, core):
    """One record on one core; a CheckResult per expected output."""
    outs = _outs(record, core_module(core))
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
    choices = [*CORES, "both"]
    if core not in choices:
        raise ValueError(f"unknown core {core!r}; pick one of "
                         f"{', '.join(choices)}")
    records = [r for r in load_vectors()
               if suite == "ALL" or r.suite == suite]
    checks = []
    for c in (core,) if core in CORES else CORES:
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
