"""Word-level MAA operations: published vectors plus algebraic laws."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maa import kat, nativecore
from maa.maacore import loop_trace
from maa.maaops import (
    FIX1_AND_MASK, FIX1_OR_MASK, FIX2_AND_MASK, FIX2_OR_MASK,
    addc, byt, cyc, mul1, mul2, mul2a, pat, q,
)
from maa.wordcore import mul_block

words = st.integers(0, 0xFFFFFFFF)
# words built from bytes at BYT's edges (00 and FF are the bytes it
# adjusts) as often as from any byte
edge_words = st.lists(st.sampled_from([0x00, 0x01, 0x7F, 0x80, 0xFE, 0xFF])
                      | st.integers(0, 0xFF), min_size=4, max_size=4).map(
    lambda bs: int.from_bytes(bytes(bs), "big"))

def B(hex_word):
    return int(hex_word, 16)


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
    assert pat(B("00000000"), B("00000000")) == 0xFF
    assert pat(B("FFFF00FF"), B("FFFFFFFF")) == 0xFF
    assert pat(B("AB00FFCD"), B("FFEF0001")) == 0x6A


@given(st.lists(st.integers(1, 254), min_size=8, max_size=8))
def test_byt_leaves_unflat_bytes_alone(vals):
    # only 00 and FF bytes are adjusted, so a word with neither passes
    # through untouched
    a = int.from_bytes(bytes(vals[:4]), "big")
    b = int.from_bytes(bytes(vals[4:]), "big")
    assert byt(a, b) == (a, b)
    assert pat(a, b) == 0


@given(words)
def test_cyc_is_rotation(a):
    assert cyc(a) == (a << 1 | a >> 31) & 0xFFFFFFFF


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
    tr = loop_trace(x, y, v, w, m)
    f, g, fpp, gpp = tr["F"], tr["G"], tr["Fpp"], tr["Gpp"]
    assert fpp == (f | FIX1_OR_MASK) & FIX1_AND_MASK
    assert gpp == (g | FIX2_OR_MASK) & FIX2_AND_MASK
    assert (fpp | FIX1_OR_MASK) & FIX1_AND_MASK == fpp
    assert (gpp | FIX2_OR_MASK) & FIX2_AND_MASK == gpp
    # the second conditioning always clears the top bit, so MUL2A is safe
    assert gpp < 0x80000000


@given(words, words)
def test_addc_splits_the_sum(a, b):
    carry, total = addc(a, b)
    assert carry * 2**32 + total == a + b


@given(edge_words, edge_words)
def test_pat_byt_match_native(a, b):
    assert pat(a, b) == nativecore.pat(a, b)
    assert byt(a, b) == nativecore.byt(a, b)


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
        assert pat(a, b) == nativecore.pat(a, b) == p
        assert byt(a, b) == nativecore.byt(a, b)


@given(words, words)
def test_mul1_congruence(a, b):
    # the fold picks a representative of a*b mod 2**32 - 1
    assert mul1(a, b) % (2**32 - 1) == a * b % (2**32 - 1)


@given(words, words)
def test_mul2_congruence(a, b):
    assert mul2(a, b) % (2**32 - 2) == a * b % (2**32 - 2)


@given(words, words)
def test_mul2a_agrees_when_an_operand_is_small(a, b):
    # with either operand below 2**31 the product's upper word is below
    # 2**31, so the shortcut's dropped carry is provably zero
    if min(a, b) < 2**31:
        assert mul2a(a, b) == mul2(a, b)
    elif mul2a(a, b) != mul2(a, b):
        assert a * b >> 32 >= 2**31


def test_mul2a_divergence_exists():
    # both operands at the top of the range force the dropped carry
    wa = B("FFFFFFF0")
    wb = B("FFFFFFF1")
    assert mul2a(wa, wb) != mul2(wa, wb)


@given(words, words)
def test_multiplications_commute(a, b):
    assert mul1(a, b) == mul1(b, a)
    assert mul2(a, b) == mul2(b, a)


def test_q_squares_the_incremented_byte():
    for v in range(256):
        assert q(v) == (v + 1) ** 2


# Closed forms of each fold's representative, written from arithmetic and
# not from either fold: where a residue has two encodings in 32 bits, MUL1
# picks the nonzero one unless the product is 0, and MUL2 the one of at
# least 2 unless the product is below 2.  The corpus pins MUL2's pick but
# not MUL1's, so these are a third oracle next to the two cores.
M1 = 2**32 - 1
M2 = 2**32 - 2
P31 = 2**31 - 1     # prime; M2 = 2 * P31


def closed_mul1(a, b):
    ab = a * b
    return 0 if ab == 0 else (ab - 1) % M1 + 1


def closed_mul2(a, b):
    ab = a * b
    return ab if ab < 2 else (ab - 2) % M2 + 2


def _degenerate_pairs():
    """Operand pairs whose product is a residue with two encodings: factor
    pairs of M1 = 3 * 5 * 17 * 257 * 65537 and their multiples (residue 0
    mod M1), multiples of P31 (0 mod M2) and inverse pairs mod M2 (1 mod
    M2), with the products 0 and 1."""
    rng = random.Random(0xF01D)
    pairs = [(0, 0), (0, M1), (1, 1), (1, M1), (M1, M1), (M2, M2), (M1, M2)]
    divisors = {1}
    for prime in (3, 5, 17, 257, 65537):
        divisors |= {d * prime for d in divisors}
    for d in sorted(divisors):
        for k in (1, 2, 3, 0xFF):
            if d * k <= M1:
                pairs.append((d * k, M1 // d))
    for a in (P31, 2 * P31):
        pairs += [(a, b) for b in (0, 1, 2, 3, 4, P31, 2 * P31)]
        pairs += [(a, rng.getrandbits(32) & ~1) for _ in range(20)]
        pairs += [(rng.getrandbits(31) & ~1, a) for _ in range(20)]
    while len(pairs) < 600:
        a = rng.getrandbits(rng.choice((8, 31, 32))) | 1
        if a % P31:
            pairs.append((a, pow(a, -1, M2)))
    return pairs


DEGENERATE = _degenerate_pairs()


def test_degenerate_pairs_hit_both_encodings():
    # the generator does reach the residues whose pick is in question,
    # also below MUL2A's bound
    assert {closed_mul1(a, b) for a, b in DEGENERATE} >= {0, M1}
    low = {closed_mul2(a, b) for a, b in DEGENERATE if a * b >> 32 < 2**31}
    assert low >= {0, 1, M2, M1}


@pytest.mark.parametrize("core", ["gate", "native"])
def test_folds_pick_the_closed_form_representative(core):
    ops = kat.core_module(core)
    for a, b in DEGENERATE:
        assert ops.mul1(a, b) == closed_mul1(a, b), (a, b)
        assert ops.mul2(a, b) == closed_mul2(a, b), (a, b)
        if a * b >> 32 < 2**31:
            assert ops.mul2a(a, b) == closed_mul2(a, b), (a, b)


def test_multiplier_is_exact_on_degenerate_residues():
    for a, b in DEGENERATE:
        upper, lower = mul_block(a, b)
        assert upper << 32 | lower == a * b


def test_degenerate_block_end_to_end():
    # key 00FF00FF/00000000 and the one block X0 ^ FFFFFFFF, so that the
    # loop's X is FFFFFFFF, a multiple of M1: MUL1's pick reaches the MAC
    j, k = 0x00FF00FF, 0x00000000
    masks = (nativecore.FIX1_OR, nativecore.FIX1_AND,
             nativecore.FIX2_OR, nativecore.FIX2_AND)
    macs = set()
    for ops in map(kat.core_module, kat._CORES):
        x0, y0, v0, w, _, _ = ops.prelude(j, k)
        block = x0 ^ M1
        tr = ops.loop_trace(x0, y0, v0, w, block, masks)
        assert tr["X"] == M1
        assert tr["Xp"] == closed_mul1(tr["X"], tr["Fpp"]) == M1
        macs.add(ops.mac_values(j, k, [block]))
    assert len(macs) == 1


def test_mul2a_fold_edge_in_the_main_loop():
    # G'' = g, a FIX2-fixed odd word, meets Y = g^-1 mod M2 with E = 0
    # (M = 0, W = CYC(V)): the fold sum 2u + l is then exactly M1, the
    # last value that MUL2A keeps without subtracting M2
    rng = random.Random(0x2A)
    for _ in range(20):
        g = (rng.getrandbits(32) | FIX2_OR_MASK) & FIX2_AND_MASK
        y = pow(g, -1, M2)
        upper, lower = divmod(g * y, 2**32)
        assert 2 * upper + lower == M1 and upper < 2**31
        v = rng.getrandbits(32)
        w = (v << 1 | v >> 31) & M1
        for ops in map(kat.core_module, kat._CORES):
            assert ops.loop_trace(g, y, v, w, 0)["Gpp"] == g
            assert ops.main_loop(g, y, v, w, 0)[1] == closed_mul2(y, g) == M1
