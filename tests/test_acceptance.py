"""Acceptance gate: one test per shipping criterion.

Each test is marked with its criterion number; conftest.py prints a
PASS/FAIL line per criterion after the run.  Timed budgets use wall
clock on whatever machine runs the suite, so they are generous; the
point is catching order-of-magnitude regressions, not microbenchmarks.
"""

import random
import time

import pytest

from maa import cli, kat, maaops, nativecore
from maa.maacore import Key, MacStream, mac_blocks
from maa.wordcore import Block, adder, multiplier


def _run(records, cores):
    checks = []
    for core in cores:
        for record in records:
            checks.extend(kat.run_record(record, core))
    return checks


def _records(suite, predicate=lambda r: True):
    return [r for r in kat.load_vectors()
            if r.suite == suite and predicate(r)]


@pytest.mark.criterion(1, "multiplication vectors, both cores, under 1 s")
def test_c01_multiplication_vectors():
    records = _records("T1", lambda r: r.op in ("MUL1", "MUL2", "MUL2A"))
    assert len(records) == 10
    start = time.perf_counter()
    checks = _run(records, ("gate", "native"))
    elapsed = time.perf_counter() - start
    assert [c for c in checks if not c.ok] == []
    assert len(checks) == 20
    assert elapsed < 1.0, f"{elapsed:.3f}s"


@pytest.mark.criterion(2, "byte conditioning vectors, both cores")
def test_c02_conditioning_vectors():
    records = _records("T1", lambda r: r.op in ("PAT", "BYT")
                       and not r.name.startswith("chain-"))
    assert len(records) == 6
    checks = _run(records, ("gate", "native"))
    assert [c for c in checks if not c.ok] == []
    assert len(checks) == 18


@pytest.mark.criterion(3, "key expansion chain, both cores")
def test_c03_key_expansion_chain():
    records = _records("T1", lambda r: r.name.startswith("chain-"))
    checks = _run(records, ("gate", "native"))
    assert [c for c in checks if not c.ok] == []
    # the full chain with every power, H word, and derived check
    assert len(checks) == 2 * 35


@pytest.mark.criterion(4, "main-loop traces, substitute and true masks, "
                          "both cores")
def test_c04_loop_traces():
    traces = _records("T2")
    annex = _records("ANNEX_E", lambda r: r.op == "LOOP_TRACE")
    assert len(traces) == 6 and len(annex) == 1
    assert len(annex[0].outputs) == 12  # every published intermediate
    checks = _run(traces + annex, ("gate", "native"))
    assert [c for c in checks if not c.ok] == []
    assert len(checks) == 2 * (78 + 12)


@pytest.mark.criterion(5, "two-block MACs, all four columns, both cores")
def test_c05_two_block_macs():
    records = _records("T3")
    assert {r.outputs["z"] for r in records} == {
        "F14D6E28", "A93BD410", "B99A62DE", "A018C83B"}
    checks = _run(records, ("gate", "native"))
    assert [c for c in checks if not c.ok] == []
    assert len(checks) == 2 * 64


@pytest.mark.criterion(6, "20-block chain, X/Y at every step, both cores")
def test_c06_twenty_block_chain():
    records = _records("T4")
    assert len(records) == 1
    assert records[0].outputs["z"] == "DB79FBDC"
    assert len(records[0].outputs) == 45
    checks = _run(records, ("gate", "native"))
    assert [c for c in checks if not c.ok] == []


@pytest.mark.criterion(7, "long messages to 4100 blocks, timed on both cores")
def test_c07_long_messages():
    records = _records("LONG")
    assert sorted(r.name for r in records) == ["m16", "m20", "m256", "m4100"]

    start = time.perf_counter()
    native = _run(records, ("native",))
    native_elapsed = time.perf_counter() - start
    assert [c for c in native if not c.ok] == []
    assert native_elapsed < 1.0, f"native {native_elapsed:.3f}s"

    start = time.perf_counter()
    gate = _run(records, ("gate",))
    gate_elapsed = time.perf_counter() - start
    assert [c for c in gate if not c.ok] == []
    assert gate_elapsed < 60.0, f"gate {gate_elapsed:.1f}s"


@pytest.mark.criterion(8, "complete selftest on both cores, zero failures")
def test_c08_full_selftest():
    report = kat.run_suite("ALL", "both")
    assert report.failed == 0
    per_core = {"gate": 0, "native": 0}
    for check in report.checks:
        per_core[check.core] += check.ok
    assert per_core["gate"] == per_core["native"] == 263
    assert per_core["gate"] >= 201 and per_core["native"] >= 201
    assert cli.main(["selftest", "--suite", "all", "--core", "both"]) == 0


@pytest.mark.criterion(9, "property suites within five minutes")
def test_c09_property_suites(monkeypatch):
    start = time.perf_counter()

    # exhaustive carry-completion adder at 8 bits, on the width-generic
    # code the 32- and 64-bit paths run: every (a, b, carry-in) triple
    for a in range(256):
        for b in range(256):
            total = a + b
            assert adder(a, b, 0, 8) == (total >> 8, total & 0xFF)
            assert adder(a, b, 1, 8) == ((total + 1) >> 8,
                                         (total + 1) & 0xFF)

    # and its longest carry chains at the widths the core runs: a carry
    # that ripples through every position, and the alternating words
    # whose sum is all ones until a carry in ripples through it
    for width in (32, 64):
        ones = (1 << width) - 1
        fives = ones // 3       # 0x55...55
        for a, b in ((ones, 1), (1, ones), (ones, ones),
                     (fives, fives << 1), (fives << 1, fives)):
            for cin in (0, 1):
                total = a + b + cin
                assert adder(a, b, cin, width) == (total >> width,
                                                   total & ones), \
                    (width, hex(a), hex(b), cin)

    # exhaustive carry-save multiplier at 8 bits: every 8x8 product
    for a in range(256):
        for b in range(256):
            assert multiplier(a, b, 8) == a * b

    # the gate folds themselves on every 8-bit pair: maaops.mul1, mul2
    # and mul2a reach their word ops through maaops, so 8-bit gates bound
    # there run the very fold code at width 8, against the closed forms
    # (moduli 2**8 - 1 and 2**8 - 2) that the 32-bit tests pin
    def mul_block8(a, b):
        p = multiplier(a, b, 8)
        return p >> 8, p & 0xFF

    mul2a_pairs = 0
    with monkeypatch.context() as m:
        m.setattr(maaops, "mul_block", mul_block8)
        m.setattr(maaops, "addc", lambda a, b: adder(a, b, 0, 8))
        m.setattr(maaops, "add_block", lambda a, b: adder(a, b, 0, 8)[1])
        assert maaops.mul1(0xFF, 0xFF) == 0xFF  # 0xFE01 folded at 8 bits
        for a in range(256):
            for b in range(256):
                ab = a * b
                mul1 = 0 if ab == 0 else (ab - 1) % 255 + 1
                mul2 = ab if ab < 2 else (ab - 2) % 254 + 2
                assert maaops.mul1(a, b) == mul1, (a, b)
                assert maaops.mul2(a, b) == mul2, (a, b)
                if ab >> 8 < 0x80:
                    assert maaops.mul2a(a, b) == mul2, (a, b)
                    mul2a_pairs += 1
    assert mul2a_pairs == 55_618
    assert maaops.mul1(0xFF, 0xFF) == 65_025  # 32-bit gates again

    # fold congruences on 100000 random pairs per multiplication
    rng = random.Random(0xACCE55)
    for _ in range(100_000):
        a, b = rng.getrandbits(32), rng.getrandbits(32)
        assert nativecore.mul1(a, b) % (2**32 - 1) == a * b % (2**32 - 1)
        assert nativecore.mul2(a, b) % (2**32 - 2) == a * b % (2**32 - 2)
        if min(a, b) < 2**31:
            assert nativecore.mul2a(a, b) == nativecore.mul2(a, b)
    # and gate-core spot checks of the same laws
    for _ in range(200):
        a, b = rng.getrandbits(32), rng.getrandbits(32)
        assert maaops.mul1(a, b) % (2**32 - 1) == a * b % (2**32 - 1)
        assert maaops.mul2(a, b) % (2**32 - 2) == a * b % (2**32 - 2)

    # gate versus native on whole messages, with every segment-boundary
    # straddle length included
    lengths = [255, 256, 257, 512, 513]
    messages = 0
    for n in lengths:
        j, k = rng.getrandbits(32), rng.getrandbits(32)
        values = [rng.getrandbits(32) for _ in range(n)]
        key = Key(Block.from_int(j), Block.from_int(k))
        zg = mac_blocks(key, [Block.from_int(v) for v in values])
        assert zg.value == nativecore.mac_values(j, k, values), n
        messages += 1
    while messages < 1000:
        n = rng.randint(1, 6)
        j, k = rng.getrandbits(32), rng.getrandbits(32)
        values = [rng.getrandbits(32) for _ in range(n)]
        key = Key(Block.from_int(j), Block.from_int(k))
        zg = mac_blocks(key, [Block.from_int(v) for v in values])
        assert zg.value == nativecore.mac_values(j, k, values)
        messages += 1
    assert messages >= 1000

    # streaming equals batch, with the per-cycle result forced at every
    # step to prove reading it never disturbs the chain
    for _ in range(30):
        j, k = rng.getrandbits(32), rng.getrandbits(32)
        key = Key(Block.from_int(j), Block.from_int(k))
        blocks = [Block.from_int(rng.getrandbits(32))
                  for _ in range(rng.randint(1, 12))]
        stream = MacStream(key)
        for block in blocks:
            stream.push(block)
            stream.mac()
        assert stream.mac() == mac_blocks(key, blocks)

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"{elapsed:.1f}s"


@pytest.mark.criterion(10, "byte-order mutation is caught by the corpus")
def test_c10_byte_order_mutation_is_caught():
    # mutate the message assembly: serialize each block big-endian, then
    # misread it little-endian, exactly the classic porting mistake
    def flipped(values):
        return [int.from_bytes(v.to_bytes(4, "big"), "little")
                for v in values]

    outcomes = {}
    for record in _records("LONG"):
        ins = record.inputs
        values = kat.gen_message(int(ins["init"], 16), int(ins["incr"], 16),
                                 int(ins["count"]))
        z = nativecore.mac_values(int(ins["j"], 16), int(ins["k"], 16),
                                  flipped(values))
        outcomes[record.name] = f"{z:08X}" == record.outputs["z"]
    # every block of m20 is zero, so the flip cannot show there; the
    # other three must all be caught
    assert outcomes == {"m16": False, "m20": True,
                        "m256": False, "m4100": False}

    # the multiplication vectors carry no byte stream and stay green
    records = _records("T1", lambda r: r.op in ("MUL1", "MUL2", "MUL2A"))
    checks = _run(records, ("gate", "native"))
    assert [c for c in checks if not c.ok] == []
