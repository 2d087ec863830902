"""The integer core against the published vectors and the gate core."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maa import kat, maacore, maaops, nativecore
from maa.maacore import EmptyMessageError, Key, MessageLimitError
from maa.wordcore import Block

words = st.integers(0, 0xFFFFFFFF)


def test_multiplication_vectors():
    assert nativecore.mul1(0x0000000F, 0x0000000E) == 0x000000D2
    assert nativecore.mul1(0xFFFFFFF0, 0xFFFFFFF1) == 0x000000D2
    assert nativecore.mul2(0xFFFFFFF0, 0x0000000E) == 0xFFFFFF3A
    assert nativecore.mul2(0xFFFFFFF0, 0xFFFFFFF1) == 0x000000B6
    assert nativecore.mul2a(0x7FFFFFF0, 0xFFFFFFF1) == 0x800000C2
    assert nativecore.mul2a(0xFFFFFFF0, 0x7FFFFFF1) == 0x000000C4


def test_conditioning_vectors():
    assert nativecore.byt(0x00000000, 0x00000000) == (0x0103070F, 0x1F3F7FFF)
    assert nativecore.byt(0xAB00FFCD, 0xFFEF0001) == (0xAB01FCCD, 0xF2EF3501)
    assert nativecore.pat(0xAB00FFCD, 0xFFEF0001) == 0x6A


def test_prelude_realistic_key():
    assert nativecore.prelude(0xE6A12F07, 0x9D15C437) == (
        0x21D869BA, 0x7792F9D4, 0xC4EB1AEB, 0xF6A09667,
        0x6D67E884, 0xA511987A)


def test_two_block_messages():
    assert nativecore.mac_values(0x00FF00FF, 0x00000000,
                                 [0x55555555, 0xAAAAAAAA]) == 0xF14D6E28
    assert nativecore.mac_values(0x55555555, 0x5A35D667,
                                 [0xFFFFFFFF, 0x00000000]) == 0xA018C83B


def test_zero_chain_and_increments():
    j, k = 0x80018001, 0x80018000
    assert nativecore.mac_values(j, k, [0] * 20) == 0xDB79FBDC
    blocks, m = [], 0
    for _ in range(16):
        blocks.append(m)
        m = (m + 0x07050301) & 0xFFFFFFFF
    assert nativecore.mac_values(j, k, blocks) == 0x8CE37709


@given(words, words)
def test_multiplications_match_gate(a, b):
    wa, wb = Block.from_int(a), Block.from_int(b)
    assert nativecore.mul1(a, b) == maaops.mul1(wa, wb).value
    assert nativecore.mul2(a, b) == maaops.mul2(wa, wb).value
    assert nativecore.mul2a(a, b) == maaops.mul2a(wa, wb).value


@given(words, words, words, words, words)
@settings(max_examples=50, deadline=None)
def test_main_loop_matches_gate(x, y, v, w, m):
    got = nativecore.main_loop(x, y, v, w, m)
    want = maacore.main_loop(*(Block.from_int(i) for i in (x, y, v, w)),
                             Block.from_int(m))
    assert got == tuple(b.value for b in want)


@given(words, words)
@settings(max_examples=15, deadline=None)
def test_prelude_matches_gate(j, k):
    pre = maacore.prelude(Key(Block.from_int(j), Block.from_int(k)))
    assert nativecore.prelude(j, k) == tuple(r.value for r in pre)


def test_mac_matches_gate_across_a_boundary():
    import random
    rng = random.Random(99)
    j, k = rng.getrandbits(32), rng.getrandbits(32)
    values = [rng.getrandbits(32) for _ in range(257)]
    key = Key(Block.from_int(j), Block.from_int(k))
    want = maacore.mac_blocks(key, [Block.from_int(v) for v in values])
    assert nativecore.mac_values(j, k, values) == want.value
    assert nativecore.native_mac(key, [Block.from_int(v) for v in values]) \
        == want


def test_error_paths():
    with pytest.raises(EmptyMessageError):
        nativecore.mac_values(1, 2, [])
    with pytest.raises(MessageLimitError):
        nativecore.mac_values(1, 2, [0, 0, 0], limit=2)
    with pytest.raises(EmptyMessageError):
        nativecore.mac_values(1, 2, iter([]))
    # key halves outside 32 bits are refused, not silently MAC'd
    for j, k in ((2**40, 2), (2**32, 0), (0, -1)):
        with pytest.raises(ValueError):
            nativecore.mac_values(j, k, [1])


def _mul1_without_end_around_carry(a, b):
    p = a * b
    return ((p >> 32) + (p & nativecore.MASK32)) & nativecore.MASK32


@pytest.mark.parametrize("name, mutant", [
    ("mul1", _mul1_without_end_around_carry),
    ("mul2", nativecore.mul2a),
    ("SEGMENT_BLOCKS", 255),
    ("SEGMENT_BLOCKS", 257),
    ("byt", lambda a, b: (a, b)),
], ids=["mul1-no-carry", "mul2-is-mul2a", "segment-255", "segment-257",
        "byt-identity"])
def test_corpus_catches_one_line_mutants(monkeypatch, name, mutant):
    # the corpus must not pass vacuously: each mutant of the native core
    # has to fail at least one check
    monkeypatch.setattr(nativecore, name, mutant)
    assert kat.run_suite("ALL", "native").failed > 0
