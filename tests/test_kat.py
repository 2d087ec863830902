"""Corpus loader and suite runner."""

import hashlib
import inspect
import re
from collections import Counter
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

import maa
from maa import CORES, SEGMENT_BLOCKS, SUITES, kat, maacore, nativecore
from maa.wordcore import add_block, mul_block
from test_differential import WORDS


# The corpus file as committed.  It is the ground truth of both cores and
# no value in it comes from the code under test, so any edit to it, even
# one that both cores would pass, has to fail here and be made on purpose.
CORPUS_SHA256 = \
    "d988df6d7db7c4ed71a82069340c1e5a64206da48fdb8ac34c77908aa0382a9d"
CORPUS_RECORDS = {"T1": 23, "T2": 6, "T3": 4, "T4": 1, "ANNEX_E": 2,
                  "LONG": 4}


def _items(field, tag):
    """A record's key=value items after `tag`, or None if the tag is
    wrong or an item is malformed, repeated or of the wrong width."""
    head, _, body = field.partition(":")
    items = [item.split("=") for item in body.split(",")]
    pairs = dict(item for item in items if len(item) == 2)
    widths = {"count": "[1-9][0-9]*", "p": "[0-9A-F]{2}"}
    if head != tag or len(pairs) != len(items) or not all(
            re.fullmatch(widths.get(k, "[0-9A-F]{8}"), v)
            for k, v in pairs.items()):
        return None
    return pairs


def _record_ok(fields):
    """Whether one record's five fields meet the grammar.  Its op runs on
    the native core: it must read exactly the record's inputs and yield
    every output the record names."""
    suite, name, op, ins, outs = fields
    ins, outs = _items(ins, "in"), _items(outs, "out")
    if suite not in SUITES or op not in kat._OPS or None in (ins, outs):
        return False
    read = set()

    class Reads(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    args = Reads({k: int(v, 10 if k == "count" else 16)
                  for k, v in ins.items()})
    try:
        yielded = kat._OPS[op](nativecore, args)
    except KeyError:
        return False
    return read == set(ins) and set(outs) <= set(yielded) and (
        op != "CHAIN_TRACE" or int(ins["count"]) <= SEGMENT_BLOCKS)


def _grammar_errors(text):
    """Line numbers of the records in `text` that break the grammar in
    vectors.txt's header, or repeat a record's suite and name."""
    errors, seen = [], set()
    for no, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 5 or tuple(fields[:2]) in seen or \
                not _record_ok(fields):
            errors.append(no)
        seen.add(tuple(fields[:2]))
    return errors


def test_corpus_is_sealed():
    raw = resources.files("maa").joinpath("vectors.txt").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == CORPUS_SHA256
    # counted off the raw lines, independently of the loader
    lines = raw.decode("ascii").splitlines()
    suites = Counter(line.split()[0] for line in lines
                     if line.strip() and not line.startswith("#"))
    assert suites == CORPUS_RECORDS
    # and every record meets the grammar, which the loader does not check
    assert _grammar_errors(raw.decode("ascii")) == []


def _first_record_of_each_op():
    first = {}
    for r in kat.load_vectors():
        first.setdefault(r.op, r)
    return first


def test_every_op_has_a_record_and_yields_its_outputs():
    # every record's op yields the outputs the record checks, on both cores
    assert sorted(_first_record_of_each_op()) == sorted(kat._OPS)
    for record in kat.load_vectors():
        for core in CORES:
            outs = kat._outs(record, kat.core_module(core))
            assert set(record.outputs) <= set(outs), (record.name, core)


# an op's inputs by name: a block count, an octet, else a word, drawn as
# the differential machine draws one or made of one repeated byte
_INPUTS = {"count": st.integers(1, 20), "p": st.integers(0, 0xFF)}
_WORD = st.one_of(WORDS, st.integers(0, 0xFF).map(lambda b: b * 0x01010101))


@pytest.mark.parametrize("op", sorted(kat._OPS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_every_op_agrees_on_both_cores(op, data):
    # the cores are held to each other, never to a value either computed;
    # a new _OPS entry is a new case here with no other edit
    ins = {name: data.draw(_INPUTS.get(name, _WORD), label=name)
           for name in _first_record_of_each_op()[op].inputs}
    assert kat._OPS[op](maacore, ins) == kat._OPS[op](nativecore, ins)


def test_both_cores_share_one_interface():
    # every name the runner calls on a core, read off one run of each op,
    # is defined by both core modules with the same parameters
    called = set()

    class Spy:
        def __getattr__(self, name):
            called.add(name)
            return getattr(nativecore, name)

    for record in _first_record_of_each_op().values():
        kat._outs(record, Spy())
    assert {"mul1", "power_chain", "loop_trace", "mac_values"} <= called
    gate, native = map(kat.core_module, ("gate", "native"))
    for name in sorted(called):
        assert inspect.signature(getattr(gate, name)) == \
            inspect.signature(getattr(native, name)), name


def test_a_gate_op_bound_on_maacore_reaches_every_record_kind(monkeypatch):
    # a gate op has one binding: a mutant of maacore.mul1 reaches the MUL1
    # records, the key expansion, loop_trace's op-by-op main loop, and
    # whole messages through the key expansion (main_loop runs its MUL1
    # as lane X of its two-lane circuit, not through mul1)
    real = maacore.mul1
    monkeypatch.setattr(maacore, "mul1", lambda a, b: real(a, b) ^ 1)
    failed = {(c.suite, c.record) for suite in ("T1", "T2", "LONG")
              for c in kat.run_suite(suite, "gate").failures()}
    ops = {r.op for r in kat.load_vectors() if (r.suite, r.name) in failed}
    assert {"MUL1", "PRELUDE_CHAIN", "LOOP_TRACE", "LONG_MAC"} <= ops


@pytest.mark.parametrize("name, mutant", [
    ("mul1", lambda a, b: add_block(*mul_block(a, b))),
    ("mul2", maacore.mul2a),
    ("byt", lambda a, b: (a, b)),
    ("SEGMENT_BLOCKS", 255),
    ("SEGMENT_BLOCKS", 257),
    # each conditioning mask made neutral: an OR by 0, an AND by all ones
    *[("TRUE_MASKS", maacore.TRUE_MASKS[:i] + (i % 2 * 0xFFFFFFFF,)
       + maacore.TRUE_MASKS[i + 1:]) for i in range(4)],
    ("_LANE", 63),
], ids=["mul1-no-carry", "mul2-is-mul2a", "byt-identity", "segment-255",
        "segment-257", "no-fix1-or", "no-fix1-and", "no-fix2-or",
        "no-fix2-and", "overlapping-lanes"])
def test_gate_corpus_catches_one_line_mutants(monkeypatch, name, mutant):
    # the corpus must not pass vacuously on the gate core either: each
    # mutant, bound on maacore, has to fail at least one check.  The
    # segment length is the root's, which segments cuts by and at which
    # the stream restarts.  main_loop reads TRUE_MASKS and its lane
    # offset on each call, so such a mutant reaches every gate path
    monkeypatch.setattr(maa if name == "SEGMENT_BLOCKS" else maacore, name,
                        mutant)
    assert kat.run_suite("ALL", "gate").failed > 0


def test_core_records_hold_exactly_the_corpus_fields():
    # each core's prelude and loop records carry, lowercased, exactly the
    # outputs the corpus checks on them (PRELUDE_CHAIN's qp is Q's, not
    # the record's), and nothing the caller passed in
    checked = {op: set() for op in ("PRELUDE_CHAIN", "LOOP_TRACE")}
    for r in kat.load_vectors():
        if r.op in checked:
            checked[r.op].update(r.outputs)
    checked["PRELUDE_CHAIN"].remove("qp")
    assert len(checked["PRELUDE_CHAIN"]) == 25
    assert len(checked["LOOP_TRACE"]) == 13
    j1, k1, p = 0x0103F703, 0x0001FFFF, 0x0F
    regs = (0x21, 0x22, 0x23, 0x24, 0x55555555)
    for core in (maacore, nativecore):
        chain = core.power_chain(j1, k1, p)
        assert {k.lower() for k in chain} == checked["PRELUDE_CHAIN"]
        trace = core.loop_trace(*regs, core.TRUE_MASKS)
        assert {k.lower() for k in trace} == checked["LOOP_TRACE"]


def test_load_vectors_is_cached():
    assert kat.load_vectors() is kat.load_vectors()


def test_gen_message():
    assert kat.gen_message(0, 0x07050301, 3) == [0, 0x07050301, 0x0E0A0602]
    assert kat.gen_message(5, 0, 4) == [5, 5, 5, 5]
    # progression wraps mod 2**32
    assert kat.gen_message(0xFFFFFFFF, 2, 2) == [0xFFFFFFFF, 1]
    assert kat.gen_message(0, 1, 0) == []


def test_check_labels():
    report = kat.run_suite("LONG", "native")
    labels = {c.label for c in report.checks}
    assert "native:LONG/m20/z" in labels


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError):
        kat.run_suite("T9", "native")
    with pytest.raises(ValueError):
        kat.run_suite("ALL", "quantum")
    # a name that is not a string is unknown too, with the same text
    with pytest.raises(ValueError, match=r"^unknown suite 5; pick one of "):
        kat.run_suite(5)
    with pytest.raises(ValueError, match=r"^unknown core None; pick one of "):
        kat.run_suite("ALL", None)
    # but case is forgiven
    report = kat.run_suite("long", "NATIVE".lower())
    assert report.checks and report.failed == 0


def test_parser_rejects_malformed_lines():
    good = "T1 x MUL1 in:a=0000000F,b=0000000E out:w=000000D2"
    assert _grammar_errors("\n".join(["# header", "", good])) == []
    bad = [
        "T1 x MUL1 in:a=0000000F,b=0000000E",                 # missing outs
        "T9 x MUL1 in:a=0000000F,b=0000000E out:w=000000D2",  # bad suite
        "T1 x MUL9 in:a=0000000F,b=0000000E out:w=000000D2",  # bad op
        "T1 x MUL1 out:w=000000D2 in:a=0000000F,b=0000000E",  # swapped
        "T1 x MUL1 in:a=0000000F out:w=000000D2",             # missing input
        "T1 x MUL1 in:a=0000000F,b=0000000E,c=00000001 out:w=000000D2",
        "T1 x MUL1 in:a=0000000F,b=0000000E out:q=000000D2",  # bad out key
        "T1 x MUL1 in:a=0000000f,b=0000000E out:w=000000D2",  # lowercase
        "T1 x MUL1 in:a=0000000F,b=0000000E out:w=D2",        # short
        "T1 x MUL1 in:a=0000000F,a=0000000E out:w=000000D2",  # dup key
        "T1 x MUL1 in:a=0000000F,b out:w=000000D2",           # no value
    ]
    for line in bad:
        assert _grammar_errors("\n".join(["# header", "", line])) == [3], line


def test_parser_rejects_duplicate_names():
    line = "T1 x MUL1 in:a=0000000F,b=0000000E out:w=000000D2"
    assert _grammar_errors(line + "\n" + line) == [2]


def test_parser_bounds_chain_traces():
    head = "T4 x CHAIN_TRACE in:j=80018001,k=80018000,init=00000000,"
    assert _grammar_errors(head + "incr=00000000,count=2 out:x02=00000000") \
        == []
    for tail in ("count=2 out:x03=00000000", "count=2 out:x5=00000000",
                 "count=300 out:x01=00000000", "count=0 out:x01=00000000"):
        assert _grammar_errors(head + "incr=00000000," + tail) == [1], tail
