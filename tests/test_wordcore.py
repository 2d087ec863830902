"""The bit-level layer against plain integer arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maa.maaops import addc
from maa.wordcore import (
    Block, Half, Octet, ONE, ZERO,
    add_bit, add_block, add_block_carry, add_half,
    add_octet, add_octet_carry, and_block, and_octet, block_from_half,
    car_bit, half_from_octet, lower_half, mul_block, mul_half, mul_octet,
    or_block, or_octet, shift_octet, upper_half, xor_block, xor_octet,
)

octets = st.integers(0, 255)
halves = st.integers(0, 0xFFFF)
words = st.integers(0, 0xFFFFFFFF)


def test_bit_adder_truth_table():
    for a in (ZERO, ONE):
        for b in (ZERO, ONE):
            for c in (ZERO, ONE):
                total = a + b + c
                assert add_bit(a, b, c) == total & 1
                assert car_bit(a, b, c) == total >> 1


def test_octet_interning():
    for v in range(256):
        assert Octet.from_int(v) is Octet.from_int(v)
    a = Octet.from_int(0xA5)
    assert Octet.from_bits(a.bits) is a
    assert a.hex() == "A5"
    assert a.bits[0] == 1 and a.bits[7] == 1 and a.bits[1] == 0
    assert Octet.from_bits(list(a.bits)) is a
    for bad in ((1,) * 7, (0,) * 7 + (2,), (1,) * 9):
        with pytest.raises(ValueError):
            Octet.from_bits(bad)


def test_octet_logic_exhaustive():
    for a in range(256):
        oa = Octet.from_int(a)
        for b in range(0, 256, 7):
            ob = Octet.from_int(b)
            assert and_octet(oa, ob).value == a & b
            assert or_octet(oa, ob).value == a | b
            assert xor_octet(oa, ob).value == a ^ b


def test_shift_octet_exhaustive():
    for a in range(256):
        oa = Octet.from_int(a)
        for n in range(1, 8):
            assert shift_octet(oa, n).value == a >> n


def test_shift_octet_rejects_bad_arguments():
    a = Octet.from_int(1)
    for n in (0, 8, -1):
        with pytest.raises(ValueError):
            shift_octet(a, n)


@given(octets, octets, st.integers(0, 1))
def test_octet_adder(a, b, cin):
    carry, total = add_octet_carry(Octet.from_int(a), Octet.from_int(b), cin)
    assert carry == (a + b + cin) >> 8
    assert total.value == (a + b + cin) & 0xFF
    assert add_octet(Octet.from_int(a), Octet.from_int(b)).value == (a + b) & 0xFF


@given(octets, octets)
def test_octet_multiplier(a, b):
    assert mul_octet(Octet.from_int(a), Octet.from_int(b)).value == a * b


def test_octet_multiplier_edges():
    for a, b in [(0, 0), (0, 255), (255, 0), (255, 255), (1, 255), (128, 2)]:
        assert mul_octet(Octet.from_int(a), Octet.from_int(b)).value == a * b


WORD_TYPES = ((Half, 16), (Block, 32))


def test_hex_round_trips():
    assert Half.from_int(0xBEEF).hex() == "BEEF"
    assert Block.from_hex("DeadBeef").hex() == "DEADBEEF"
    assert Block.from_hex("deadbeef") == Block.from_int(0xDEADBEEF)
    for cls, bits in WORD_TYPES:
        assert cls.from_int(0).hex() == "0" * (bits // 4)
        assert cls.from_int(2**bits - 1).hex() == "F" * (bits // 4)
        assert repr(cls.from_int(5)) == f"{cls.__name__}({5:0{bits // 4}X})"
        for v in (-1, 2**bits):
            with pytest.raises(ValueError, match="out of range"):
                cls.from_int(v)
    # exactly eight hex digits: no prefix, separator, sign or whitespace
    for bad in ("123", "123456789", "XYZWXYZW", "0x00FF00", "00_FF_00",
                "+00FF00F", " 00FF00F", "00FF00F ", "00FF00F\n",
                "\u0660" * 8):
        with pytest.raises(ValueError):
            Block.from_hex(bad)


def test_value_equality_and_hash():
    a = Block.from_hex("00000005")
    b = Block.from_int(5)
    assert a == b and hash(a) == hash(b)
    assert a != Block.from_int(6)
    assert a != 5
    assert Half.from_int(7) == Half(Octet.from_int(0), Octet.from_int(7))
    for cls, _ in WORD_TYPES:
        x, y = cls.from_int(0x1234), cls.from_int(0x1234)
        assert x is not y and x == y and not x != y
        assert hash(x) == hash(y)
        assert x != cls.from_int(0x1235)
        assert len({x, y, cls.from_int(0x1235)}) == 2
        # equal values of different word types are different words
        for other, _ in WORD_TYPES:
            if other is not cls:
                assert x != other.from_int(0x1234)
    # octets are interned and the memo tables hash them by identity
    assert Octet.__hash__ is object.__hash__


def test_labels_are_read_off_the_octets():
    # a half-word or block stores only its octets; its value is computed
    # when read, so it can be neither stored nor assigned
    for cls, values in ((Block, (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)),
                        (Half, (0, 0xFFFF))):
        assert "value" not in cls.__slots__
        for v in values:
            w = cls.from_int(v)
            assert w.value == v and cls.from_int(w.value) == w
            with pytest.raises(AttributeError):
                w.value = v


def test_block_octet_structure():
    w = Block.from_hex("01020304")
    assert [o.value for o in w.octets()] == [1, 2, 3, 4]
    assert upper_half(w).hex() == "0102"
    assert lower_half(w).hex() == "0304"
    assert block_from_half(lower_half(w)).hex() == "00000304"
    assert half_from_octet(Octet.from_int(9)).hex() == "0009"
    for v in range(256):
        o = Octet.from_int(v)
        assert half_from_octet(o) == Half(Octet.from_int(0), o)
        assert half_from_octet(o) is half_from_octet(o)


@given(halves, halves)
def test_half_adder(a, b):
    assert add_half(Half.from_int(a), Half.from_int(b)).value == (a + b) & 0xFFFF


@given(words, words)
def test_block_adder(a, b):
    carry, total = add_block_carry(Block.from_int(a), Block.from_int(b))
    assert carry == (a + b) >> 32
    assert total.value == (a + b) & 0xFFFFFFFF
    assert add_block(Block.from_int(a), Block.from_int(b)).value == (a + b) & 0xFFFFFFFF


@given(words, words)
def test_block_logic(a, b):
    wa, wb = Block.from_int(a), Block.from_int(b)
    assert and_block(wa, wb).value == a & b
    assert or_block(wa, wb).value == a | b
    assert xor_block(wa, wb).value == a ^ b


@given(halves, halves)
def test_half_multiplier(a, b):
    # 16 x 16 bits fits a block exactly, so the oracle is plain *
    assert mul_half(Half.from_int(a), Half.from_int(b)).value == a * b


@given(words, words)
def test_block_multiplier(a, b):
    upper, lower = mul_block(Block.from_int(a), Block.from_int(b))
    assert upper.value == a * b >> 32
    assert lower.value == a * b & 0xFFFFFFFF


def test_block_multiplier_edges():
    top = 0xFFFFFFFF
    for a, b in [(0, 0), (top, top), (top, 1), (1, top), (0x80000000, 2)]:
        upper, lower = mul_block(Block.from_int(a), Block.from_int(b))
        assert upper.value << 32 | lower.value == a * b


def test_two_part_results_are_plain_tuples():
    top = Block.from_int(0xFFFFFFFF)
    two = Block.from_int(2)
    results = [
        (add_octet_carry(Octet.from_int(200), Octet.from_int(100), ONE),
         (1, Octet.from_int(45))),
        (add_block_carry(top, two), (1, Block.from_int(1))),
        (addc(top, two), (Block.from_int(1), Block.from_int(1))),
        (mul_block(top, top),
         (Block.from_int(0xFFFFFFFE), Block.from_int(0x00000001))),
    ]
    for got, want in results:
        assert type(got) is tuple and got == want
