"""The bit-level layer against plain integer arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maa import maacore
from maa.maaops import addc
from maa.wordcore import (
    Block, Octet, ONE, ZERO,
    add_bit, add_block, add_block_carry,
    add_octet_carry, and_block, and_octet,
    car_bit, mul_block, mul_octet,
    or_block, or_octet, shift_octet, xor_block, xor_octet,
)

octets = st.integers(0, 255)
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


@given(octets, octets)
def test_octet_multiplier(a, b):
    hi, lo = mul_octet(Octet.from_int(a), Octet.from_int(b))
    assert hi.value << 8 | lo.value == a * b


def test_octet_multiplier_edges():
    for a, b in [(0, 0), (0, 255), (255, 0), (255, 255), (1, 255), (128, 2)]:
        hi, lo = mul_octet(Octet.from_int(a), Octet.from_int(b))
        assert hi.value << 8 | lo.value == a * b


def test_memo_results_are_interned():
    o = Octet.from_int
    assert (add_octet_carry(o(200), o(100), ONE)
            is add_octet_carry(o(100), o(200), ONE))
    assert mul_octet(o(2), o(3)) is mul_octet(o(3), o(2))
    assert mul_octet(o(2), o(3)) is mul_octet(o(1), o(6))
    # the carry in has no default, so one sum has one form of key
    with pytest.raises(TypeError):
        add_octet_carry(o(1), o(2))
    pairs = [(o(a), o(b)) for a in range(256) for b in range(0, 256, 7)]

    def sweep():
        return ([add_octet_carry(a, b, c)
                 for a, b in pairs for c in (ZERO, ONE)],
                [mul_octet(a, b) for a, b in pairs])

    sums, products = sweep()
    assert len({id(s) for s in sums}) <= 512
    assert len({id(p) for p in products}) == len(set(products))
    # the tables forget their keys, not the results: a second sweep from
    # cleared tables returns the very same objects
    add_octet_carry.cache_clear()
    mul_octet.cache_clear()
    again_sums, again_products = sweep()
    assert all(x is y for x, y in zip(sums + products,
                                      again_sums + again_products))


def test_hex_round_trips():
    assert Block.from_hex("DeadBeef").hex() == "DEADBEEF"
    assert Block.from_hex("deadbeef") == Block.from_int(0xDEADBEEF)
    assert Block.from_int(0).hex() == "00000000"
    assert Block.from_int(2**32 - 1).hex() == "FFFFFFFF"
    assert repr(Block.from_int(5)) == "Block(00000005)"
    for v in (-1, 2**32):
        with pytest.raises(ValueError, match="out of range"):
            Block.from_int(v)
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
    assert Block.from_int(7) == Block(*map(Octet.from_int, (0, 0, 0, 7)))
    x, y = Block.from_int(0x1234), Block.from_int(0x1234)
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y)
    assert x != Block.from_int(0x1235)
    assert len({x, y, Block.from_int(0x1235)}) == 2
    # a block equals only a block: not its octets, nor an equal-valued octet
    assert x != x.octets() and Block.from_int(7) != Octet.from_int(7)
    # octets are interned and the memo tables hash them by identity
    assert Octet.__hash__ is object.__hash__


def test_labels_are_read_off_the_octets():
    # a block stores only its octets; its value is computed when read, so
    # it can be neither stored nor assigned
    assert "value" not in Block.__slots__
    for v in (0, 1, 0xFFFF, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF):
        w = Block.from_int(v)
        assert w.value == v and Block.from_int(w.value) == w
        with pytest.raises(AttributeError):
            w.value = v


def test_block_octet_structure():
    w = Block.from_hex("01020304")
    assert [o.value for o in w.octets()] == [1, 2, 3, 4]


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


@given(words, words)
def test_block_multiplier(a, b):
    upper, lower = mul_block(Block.from_int(a), Block.from_int(b))
    assert upper.value == a * b >> 32
    assert lower.value == a * b & 0xFFFFFFFF


# Words at the octet and half-word seams of the multipliers.
EDGES = (0, 1, 0xFF, 0xFF00, 0xFFFF, 0x10000, 0x80000000, 0xFFFF0000,
         0xFFFFFFFF)


def test_block_multiplier_edges():
    for a, b in [*((a, b) for a in EDGES for b in EDGES), (0x80000000, 2)]:
        product = mul_block(Block.from_int(a), Block.from_int(b))
        assert type(product) is tuple and len(product) == 2
        assert all(type(w) is Block for w in product)
        assert product[0].value << 32 | product[1].value == a * b


# Hits and misses of each octet table after a fixed gate workload from
# cleared tables: a gate call added, dropped or given other arguments
# moves them; how the words travel between the calls does not.
GATE_CALLS = {"mul_octet": (1404, 2664), "add_octet_carry": (36664, 9701),
              "xor_octet": (195, 757), "and_octet": (167, 449),
              "or_octet": (72, 544)}


def test_gate_construction_is_pinned():
    tables = (mul_octet, add_octet_carry, xor_octet, and_octet, or_octet)
    for table in tables:
        table.cache_clear()
    maacore.prelude.cache_clear()
    key = maacore.Key.from_hex("E6A12F07", "9D15C437")
    assert maacore.mac_message(key, bytes(range(150)) * 2).hex() == "32611667"
    for a in EDGES:
        for b in EDGES:
            mul_block(Block.from_int(a), Block.from_int(b))
    counts = {t.__name__: (t.cache_info().hits, t.cache_info().misses)
              for t in tables}
    assert counts == GATE_CALLS


def test_two_part_results_are_plain_tuples():
    top = Block.from_int(0xFFFFFFFF)
    two = Block.from_int(2)
    results = [
        (add_octet_carry(Octet.from_int(200), Octet.from_int(100), ONE),
         (1, Octet.from_int(45))),
        (add_block_carry(top, two), (1, Block.from_int(1))),
        (addc(top, two), (Block.from_int(1), Block.from_int(1))),
        (mul_octet(Octet.from_int(0xFF), Octet.from_int(0xFF)),
         (Octet.from_int(0xFE), Octet.from_int(0x01))),
        (mul_block(top, top),
         (Block.from_int(0xFFFFFFFE), Block.from_int(0x00000001))),
    ]
    for got, want in results:
        assert type(got) is tuple and got == want
