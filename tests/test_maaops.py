"""Word-level MAA operations: published vectors plus algebraic laws."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maa import nativecore
from maa.maacore import loop_trace
from maa.maaops import (
    FIX1_AND_MASK, FIX1_OR_MASK, FIX2_AND_MASK, FIX2_OR_MASK,
    addc, byt, cyc, mul1, mul2, mul2a, pat, q,
)
from maa.wordcore import Block, Octet, and_block, or_block

words = st.integers(0, 0xFFFFFFFF)
# words built from bytes at BYT's edges (00 and FF are the bytes it
# adjusts) as often as from any byte
edge_words = st.lists(st.sampled_from([0x00, 0x01, 0x7F, 0x80, 0xFE, 0xFF])
                      | st.integers(0, 0xFF), min_size=4, max_size=4).map(
    lambda bs: int.from_bytes(bytes(bs), "big"))

B = Block.from_hex


def test_mul1_vectors():
    assert mul1(B("0000000F"), B("0000000E")) == B("000000D2")
    assert mul1(B("FFFFFFF0"), B("0000000E")) == B("FFFFFF2D")
    assert mul1(B("FFFFFFF0"), B("FFFFFFF1")) == B("000000D2")


def test_mul2_vectors():
    assert mul2(B("0000000F"), B("0000000E")) == B("000000D2")
    assert mul2(B("FFFFFFF0"), B("0000000E")) == B("FFFFFF3A")
    assert mul2(B("FFFFFFF0"), B("FFFFFFF1")) == B("000000B6")


def test_mul2a_vectors():
    assert mul2a(B("0000000F"), B("0000000E")) == B("000000D2")
    assert mul2a(B("FFFFFFF0"), B("0000000E")) == B("FFFFFF3A")
    assert mul2a(B("7FFFFFF0"), B("FFFFFFF1")) == B("800000C2")
    assert mul2a(B("FFFFFFF0"), B("7FFFFFF1")) == B("000000C4")


def test_byt_pat_vectors():
    assert byt(B("00000000"), B("00000000")) == (B("0103070F"), B("1F3F7FFF"))
    assert byt(B("FFFF00FF"), B("FFFFFFFF")) == (B("FEFC07F0"), B("E0C08000"))
    assert byt(B("AB00FFCD"), B("FFEF0001")) == (B("AB01FCCD"), B("F2EF3501"))
    assert pat(B("00000000"), B("00000000")).value == 0xFF
    assert pat(B("FFFF00FF"), B("FFFFFFFF")).value == 0xFF
    assert pat(B("AB00FFCD"), B("FFEF0001")).value == 0x6A


@given(st.lists(st.integers(1, 254), min_size=8, max_size=8))
def test_byt_leaves_unflat_bytes_alone(vals):
    # only 00 and FF bytes are adjusted, so a word with neither passes
    # through untouched
    a = Block.from_int(int.from_bytes(bytes(vals[:4]), "big"))
    b = Block.from_int(int.from_bytes(bytes(vals[4:]), "big"))
    assert byt(a, b) == (a, b)
    assert pat(a, b).value == 0


@given(words)
def test_cyc_is_rotation(a):
    assert cyc(Block.from_int(a)).value == (a << 1 | a >> 31) & 0xFFFFFFFF


def test_cyc_order_thirty_two():
    w = B("9D15C437")
    r = w
    for _ in range(32):
        r = cyc(r)
    assert r == w


@given(words, words, words, words, words)
@settings(deadline=None)
def test_fix_masks(x, y, v, w, m):
    # the main loop's conditioning, read off loop_trace under the true masks
    tr = loop_trace(*map(Block.from_int, (x, y, v, w, m)))
    f, g, fpp, gpp = tr["F"], tr["G"], tr["Fpp"], tr["Gpp"]
    assert fpp.value == (f.value | FIX1_OR_MASK.value) & FIX1_AND_MASK.value
    assert gpp.value == (g.value | FIX2_OR_MASK.value) & FIX2_AND_MASK.value
    assert and_block(or_block(fpp, FIX1_OR_MASK), FIX1_AND_MASK) == fpp
    assert and_block(or_block(gpp, FIX2_OR_MASK), FIX2_AND_MASK) == gpp
    # the second conditioning always clears the top bit, so MUL2A is safe
    assert gpp.value < 0x80000000


@given(words, words)
def test_addc_splits_the_sum(a, b):
    carry, total = addc(Block.from_int(a), Block.from_int(b))
    assert carry.value * 2**32 + total.value == a + b


@given(edge_words, edge_words)
def test_pat_byt_match_native(a, b):
    wa, wb = Block.from_int(a), Block.from_int(b)
    assert pat(wa, wb).value == nativecore.pat(a, b)
    u, l = byt(wa, wb)
    assert (u.value, l.value) == nativecore.byt(a, b)


def test_pat_byt_match_native_on_every_pattern():
    """Each of the 256 patterns of 00/FF bytes, against the native tables.

    BYT's 00 and FF bytes are the degenerate operands of MAA's
    multiplications (Preneel, Rijmen and van Oorschot, "A security
    analysis of the MAA", Eur. Trans. Telecomm. 8(5), 1997), and
    uniform words hold one in only about 6% of pairs.  Here a flagged
    byte is 00 or FF and every other byte is from 01..FE.
    """
    rng = random.Random(8731)
    for p in range(256):
        raw = bytes(rng.choice((0x00, 0xFF)) if p >> (7 - j) & 1
                    else rng.randint(0x01, 0xFE) for j in range(8))
        a, b = int.from_bytes(raw[:4], "big"), int.from_bytes(raw[4:], "big")
        wa, wb = Block.from_int(a), Block.from_int(b)
        assert pat(wa, wb).value == nativecore.pat(a, b) == p
        u, l = byt(wa, wb)
        assert (u.value, l.value) == nativecore.byt(a, b)


@given(words, words)
def test_mul1_congruence(a, b):
    # the fold picks a representative of a*b mod 2**32 - 1
    assert mul1(Block.from_int(a), Block.from_int(b)).value % (2**32 - 1) \
        == a * b % (2**32 - 1)


@given(words, words)
def test_mul2_congruence(a, b):
    assert mul2(Block.from_int(a), Block.from_int(b)).value % (2**32 - 2) \
        == a * b % (2**32 - 2)


@given(words, words)
def test_mul2a_agrees_when_an_operand_is_small(a, b):
    # with either operand below 2**31 the product's upper word is below
    # 2**31, so the shortcut's dropped carry is provably zero
    wa, wb = Block.from_int(a), Block.from_int(b)
    if min(a, b) < 2**31:
        assert mul2a(wa, wb) == mul2(wa, wb)
    elif mul2a(wa, wb) != mul2(wa, wb):
        assert a * b >> 32 >= 2**31


def test_mul2a_divergence_exists():
    # both operands at the top of the range force the dropped carry
    wa = B("FFFFFFF0")
    wb = B("FFFFFFF1")
    assert mul2a(wa, wb) != mul2(wa, wb)


@given(words, words)
def test_multiplications_commute(a, b):
    wa, wb = Block.from_int(a), Block.from_int(b)
    assert mul1(wa, wb) == mul1(wb, wa)
    assert mul2(wa, wb) == mul2(wb, wa)


def test_q_squares_the_incremented_byte():
    for v in range(256):
        assert q(Octet.from_int(v)).value == (v + 1) ** 2
