"""Corpus loader and suite runner."""

import pytest

from maa import kat


def test_corpus_shape():
    records = kat.load_vectors()
    by_suite = {}
    for r in records:
        by_suite.setdefault(r.suite, []).append(r)
    assert {s: len(v) for s, v in by_suite.items()} == {
        "T1": 23, "T2": 6, "T3": 4, "T4": 1, "ANNEX_E": 2, "LONG": 4}
    checks = {s: sum(len(r.outputs) for r in v) for s, v in by_suite.items()}
    assert checks == {"T1": 54, "T2": 78, "T3": 64, "T4": 45,
                      "ANNEX_E": 18, "LONG": 4}
    assert sum(checks.values()) == 263


def test_every_op_has_a_record_and_yields_its_outputs():
    # the table's declared outputs and its runs must agree, on both cores
    first = {}
    for r in kat.load_vectors():
        first.setdefault(r.op, r)
    assert sorted(first) == sorted(kat._OPS)
    for op, record in first.items():
        declared = kat._OPS[op].outs or set(record.outputs)
        for core in kat._CORES.values():
            assert declared <= set(kat._outs(record, core)), (op, core)


def test_load_vectors_is_cached():
    assert kat.load_vectors() is kat.load_vectors()


def test_gen_message():
    assert kat.gen_message(0, 0x07050301, 3) == [0, 0x07050301, 0x0E0A0602]
    assert kat.gen_message(5, 0, 4) == [5, 5, 5, 5]
    # progression wraps mod 2**32
    assert kat.gen_message(0xFFFFFFFF, 2, 2) == [0xFFFFFFFF, 1]
    assert kat.gen_message(0, 1, 0) == []


@pytest.mark.parametrize("suite", kat.SUITES)
def test_suites_pass_on_the_native_core(suite):
    report = kat.run_suite(suite, "native")
    assert report.ok, report.failures()[:5]
    assert report.failed == 0


def test_t1_passes_on_the_gate_core():
    report = kat.run_suite("T1", "gate")
    assert report.ok
    assert report.passed == 54


def test_both_cores_doubles_the_checks():
    one = kat.run_suite("T2", "native")
    both = kat.run_suite("T2", "both")
    assert len(both.checks) == 2 * len(one.checks)
    cores = {c.core for c in both.checks}
    assert cores == {"gate", "native"}


def test_notes_flag_the_regrouped_tables():
    assert any("36" in n for n in kat.run_suite("T1", "native").notes)
    assert any("56" in n for n in kat.run_suite("T2", "native").notes)
    assert kat.run_suite("T3", "native").notes == []
    assert kat.run_suite("T4", "native").notes == []


def test_check_labels():
    report = kat.run_suite("LONG", "native")
    labels = {c.label for c in report.checks}
    assert "native:LONG/m20/z" in labels


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError):
        kat.run_suite("T9", "native")
    with pytest.raises(ValueError):
        kat.run_suite("ALL", "quantum")
    # but case is forgiven
    assert kat.run_suite("long", "NATIVE".lower()).ok


def _parse_one(line):
    return kat._parse("\n".join(["# header", "", line]))


def test_parser_rejects_malformed_lines():
    good = "T1 x MUL1 in:a=0000000F,b=0000000E out:w=000000D2"
    assert len(_parse_one(good)) == 1
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
        with pytest.raises(kat.CorpusError):
            _parse_one(line)


def test_parser_rejects_duplicate_names():
    line = "T1 x MUL1 in:a=0000000F,b=0000000E out:w=000000D2"
    with pytest.raises(kat.CorpusError):
        kat._parse(line + "\n" + line)


def test_parser_bounds_chain_traces():
    head = "T4 x CHAIN_TRACE in:j=80018001,k=80018000,init=00000000,"
    ok = head + "incr=00000000,count=2 out:x02=00000000"
    assert len(kat._parse(ok)) == 1
    with pytest.raises(kat.CorpusError):
        kat._parse(head + "incr=00000000,count=2 out:x03=00000000")
    with pytest.raises(kat.CorpusError):
        kat._parse(head + "incr=00000000,count=2 out:x5=00000000")
    with pytest.raises(kat.CorpusError):
        kat._parse(head + "incr=00000000,count=300 out:x01=00000000")
    with pytest.raises(kat.CorpusError):
        kat._parse(head + "incr=00000000,count=0 out:x01=00000000")


def test_official_counts():
    assert kat.OFFICIAL_COUNTS == {"T1": 36, "T2": 56, "T3": 64, "T4": 45}
