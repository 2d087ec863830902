"""The bit-level layer against plain integer arithmetic."""

import ast
from pathlib import Path
from types import MemberDescriptorType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maa import maacore, maaops, wordcore
from maa.maaops import addc
from maa.wordcore import (
    Block, Octet,
    add_block, adder, and_block,
    full_adder, mul_block, multiplier, or_block, xor_block,
)

octets = st.integers(0, 255)
words = st.integers(0, 0xFFFFFFFF)


def test_bit_adder_truth_table():
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                total = a + b + c
                assert full_adder(a, b, c) == (total >> 1, total & 1)


def test_octet_interning():
    for v in range(256):
        assert Octet.from_int(v) is Octet.from_int(v)
        assert Octet.from_int(v).value == v
    for bad in (-1, 256):
        with pytest.raises(ValueError, match="out of range"):
            Octet.from_int(bad)


def test_octet_logic_exhaustive():
    # each word-wide gate bank on every pair of octet-sized words
    for a in range(256):
        wa = Block(a)
        for b in range(256):
            wb = Block(b)
            assert and_block(wa, wb).value == a & b
            assert or_block(wa, wb).value == a | b
            assert xor_block(wa, wb).value == a ^ b


@given(octets, octets, st.integers(0, 1))
def test_octet_adder(a, b, cin):
    # the width-generic prefix adder at 8 bits
    assert adder(a, b, cin, 8) == ((a + b + cin) >> 8, (a + b + cin) & 0xFF)


@given(octets, octets)
def test_octet_multiplier(a, b):
    assert multiplier(a, b, 8) == a * b


def test_octet_multiplier_edges():
    for a, b in [(0, 0), (0, 255), (255, 0), (255, 255), (1, 255), (128, 2)]:
        assert multiplier(a, b, 8) == a * b


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
    x, y = Block.from_int(0x1234), Block.from_int(0x1234)
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y)
    assert x != Block.from_int(0x1235)
    assert len({x, y, Block.from_int(0x1235)}) == 2
    # a block equals only a block, not an equal-valued octet
    assert Block.from_int(7) != Octet.from_int(7)
    # octets are interned, so they hash by identity
    assert Octet.__hash__ is object.__hash__


def test_value_is_a_plain_slot():
    # a block holds its bits in one slot, read as a plain attribute: the
    # byte path and the native benchmark path read it once per block
    assert Block.__slots__ == ("value",)
    assert isinstance(vars(Block)["value"], MemberDescriptorType)
    for v in (0, 1, 0xFFFF, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF):
        w = Block.from_int(v)
        assert w.value == v and Block.from_int(w.value) == w


def test_block_octet_structure():
    # octet 1 of a block is its most significant byte, for the byte path
    # and for PAT's bit order alike
    w = maacore.message_blocks(bytes([1, 2, 3, 4]))[0]
    assert w == Block.from_hex("01020304")
    assert maaops.pat(Block.from_hex("00010101"), w).value == 0x80
    assert maaops.pat(w, Block.from_hex("010101FF")).value == 0x01


@given(words, words)
def test_block_adder(a, b):
    carry, total = addc(Block.from_int(a), Block.from_int(b))
    assert carry.value == (a + b) >> 32
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


# Words at the octet and half-word seams, and at the ends of the range.
EDGES = (0, 1, 0xFF, 0xFF00, 0xFFFF, 0x10000, 0x80000000, 0xFFFF0000,
         0xFFFFFFFF)


def test_block_multiplier_edges():
    for a, b in [*((a, b) for a in EDGES for b in EDGES), (0x80000000, 2)]:
        product = mul_block(Block.from_int(a), Block.from_int(b))
        assert type(product) is tuple and len(product) == 2
        assert all(type(w) is Block for w in product)
        assert product[0].value << 32 | product[1].value == a * b


# Evaluations of each circuit on a fixed gate workload from a cleared
# prelude: an adder or multiplier added or dropped moves them, and so does
# a product's operands swapped (one bank of full adders per set bit of y).
GATE_CALLS = {"adder": 950, "multiplier": 255, "full_adder": 3518}


def test_gate_construction_is_pinned(monkeypatch):
    counts = dict.fromkeys(GATE_CALLS, 0)

    def counted(name, circuit):
        def run(*args):
            counts[name] += 1
            return circuit(*args)
        return run

    circuits = {name: getattr(wordcore, name) for name in GATE_CALLS}
    for module in (wordcore, maaops):
        for name, circuit in circuits.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, circuit))
    maacore.prelude.cache_clear()
    key = maacore.Key.from_hex("E6A12F07", "9D15C437")
    assert maacore.mac_message(key, bytes(range(150)) * 2).hex() == "32611667"
    for a in EDGES:
        for b in EDGES:
            mul_block(Block.from_int(a), Block.from_int(b))
    maacore.prelude.cache_clear()
    assert counts == GATE_CALLS


def test_two_part_results_are_plain_tuples():
    top = Block.from_int(0xFFFFFFFF)
    two = Block.from_int(2)
    results = [
        (adder(200, 100, 1, 8), (1, 45)),
        (full_adder(0b0110, 0b0101, 0b0011), (0b0111, 0b0000)),
        (adder(0xFFFFFFFF, 2, 0, 32), (1, 1)),
        (addc(top, two), (Block.from_int(1), Block.from_int(1))),
        (mul_block(top, top),
         (Block.from_int(0xFFFFFFFE), Block.from_int(0x00000001))),
    ]
    for got, want in results:
        assert type(got) is tuple and got == want


# The host arithmetic that the gate modules must not use on a value
_ARITHMETIC = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod,
               ast.Pow)


@pytest.mark.parametrize("module", [wordcore, maaops])
def test_gate_modules_use_no_host_arithmetic(module):
    tree = ast.parse(Path(module.__file__).read_text())
    found = [(type(node).__name__, node.lineno) for node in ast.walk(tree)
             if isinstance(node, (ast.BinOp, ast.AugAssign))
             and isinstance(node.op, _ARITHMETIC)
             or isinstance(node, ast.UnaryOp)
             and isinstance(node.op, ast.USub)]
    assert found == []
