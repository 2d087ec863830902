"""The bit-level layer against plain integer arithmetic."""

import ast
from pathlib import Path
from types import MemberDescriptorType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maa
from maa import maacore, maaops, nativecore, wordcore
from maa.maaops import addc
from maa.wordcore import Block, add_block, adder, mul_block, multiplier

words = st.integers(0, 0xFFFFFFFF)


def test_bit_adder_truth_table():
    # the adder at one bit is a full adder: (carry, sum)
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                total = a + b + c
                assert adder(a, b, c, 1) == (total >> 1, total & 1)


def test_negative_operands_are_refused():
    # a negative int's carry word never empties: the adder would spin,
    # and the multiplier, whose rows it sums, with it; a negative selector
    # would be read by its low bits, as 5 * 253 or as a 96-bit sum
    for run in (lambda: adder(-1, 1, 0, 32), lambda: adder(1, -1, 0, 32),
                lambda: multiplier(-3, 5, 8), lambda: multiplier(5, -3, 8),
                lambda: multiplier(1, 1, 32, 1 << 64, -1)):
        with pytest.raises(ValueError, match="must not be negative"):
            run()


def test_octet_logic_exhaustive():
    # PAT's and BYT's per-byte OR and AND reductions on every octet, in
    # every byte of the pair, the other bytes neither 00 nor FF
    for v in range(256):
        for pos in range(8):
            pair = 0x0101010101010101 & ~(0xFF << (pos << 3)) | v << (pos << 3)
            a, b = pair >> 32, pair & 0xFFFFFFFF
            flagged = v in (0x00, 0xFF)
            assert maaops.pat(a, b) == (flagged << pos) == \
                nativecore.pat(a, b)
            assert maaops.byt(a, b) == nativecore.byt(a, b)
            assert (maaops.byt(a, b) == (a, b)) is not flagged


def test_two_pair_multiplier_exhaustive_at_8_bits():
    # every 8x8 pair (a, b) beside two second pairs (c, d) wired 16 bits
    # up: d is b with some of a's bits flipped (a partial overlap, most
    # often), then in turn b itself (every row shared), its complement
    # (none shared), all ones and zero (the one-pair call), so that each
    # of the three row groups runs alone and with the others
    for a in range(256):
        c = a ^ 0xA5
        for b in range(256):
            for d in (b ^ a & 0x3C, (b, b ^ 0xFF, 0xFF, 0)[(a ^ b) % 4]):
                assert multiplier(a, b, 8, c << 16, d) == \
                    a * b + (c * d << 16)
    # a one-pair call ignores a multiplicand given without its selector
    assert multiplier(255, 255, 8, 255 << 16, 0) == 255 * 255


def test_hex_round_trips():
    assert Block.from_hex("DeadBeef").hex() == "DEADBEEF"
    assert Block.from_hex("deadbeef") == Block.from_int(0xDEADBEEF)
    assert Block.from_int(0).hex() == "00000000"
    assert Block.from_int(2**32 - 1).hex() == "FFFFFFFF"
    assert repr(Block.from_int(5)) == "Block(00000005)"
    # a non-word gets the text that the gate core's int entry gives
    for v in (-1, 2**32):
        with pytest.raises(ValueError) as want:
            maacore.mac_values(1, 2, [v])
        with pytest.raises(ValueError) as got:
            Block.from_int(v)
        assert str(got.value) == str(want.value), v
    for v in (1.5, "5", None):
        with pytest.raises(ValueError, match=maa.NOT_AN_INT):
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
    assert maaops.pat(0x00010101, w.value) == 0x80
    assert maaops.pat(w.value, 0x010101FF) == 0x01


@given(words, words)
def test_block_adder(a, b):
    carry, total = addc(a, b)
    assert carry == (a + b) >> 32
    assert total == (a + b) & 0xFFFFFFFF
    assert add_block(a, b) == (a + b) & 0xFFFFFFFF


@given(st.lists(words, min_size=9, max_size=9))
@settings(deadline=None)
def test_block_logic(ws):
    # the main loop's XOR, OR and AND banks, under substitute masks
    x, y, v, w, m, *masks = ws
    or1, and1, or2, and2 = masks
    tr = maacore.loop_trace(x, y, v, w, m, masks)
    assert (tr["E"], tr["X"], tr["Y"]) == (tr["Vp"] ^ w, x ^ m, y ^ m)
    assert (tr["Fp"], tr["Gp"]) == (tr["F"] | or1, tr["G"] | or2)
    assert (tr["Fpp"], tr["Gpp"]) == (tr["Fp"] & and1, tr["Gp"] & and2)
    assert tr["Z"] == tr["Xp"] ^ tr["Yp"]


# Words at the octet and half-word seams, and at the ends of the range.
EDGES = (0, 1, 0xFF, 0xFF00, 0xFFFF, 0x10000, 0x80000000, 0xFFFF0000,
         0xFFFFFFFF)


def test_block_multiplier_edges():
    for a, b in [*((a, b) for a in EDGES for b in EDGES), (0x80000000, 2)]:
        product = mul_block(a, b)
        assert type(product) is tuple and len(product) == 2
        assert all(type(w) is int for w in product)
        assert product[0] << 32 | product[1] == a * b


# Evaluations of each circuit, through any module's binding, on a fixed
# gate workload from a fresh key: an adder or multiplier added or dropped
# moves them.  Each main-loop step is three adds and one multiplier call
# (four adders with the multiplier's own).
GATE_CALLS = {"adder": 488, "multiplier": 178}


def test_gate_construction_is_pinned(monkeypatch):
    counts = dict.fromkeys(GATE_CALLS, 0)

    def counted(name, circuit):
        def run(*args):
            counts[name] += 1
            return circuit(*args)
        return run

    circuits = {name: getattr(wordcore, name) for name in GATE_CALLS}
    for module in (wordcore, maaops, maacore):
        for name, circuit in circuits.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, circuit))
    key = maacore.Key.from_hex("E6A12F07", "9D15C437")
    assert maacore.mac_message(key, bytes(range(150)) * 2).hex() == "32611667"
    for a in EDGES:
        for b in EDGES:
            mul_block(a, b)
    assert counts == GATE_CALLS


def test_two_part_results_are_plain_tuples():
    top = 0xFFFFFFFF
    two = 2
    results = [
        (adder(200, 100, 1, 8), (1, 45)),
        (adder(0xFFFFFFFF, 2, 0, 32), (1, 1)),
        (addc(top, two), (1, 1)),
        (mul_block(top, top), (0xFFFFFFFE, 0x00000001)),
    ]
    for got, want in results:
        assert type(got) is tuple and got == want


# The host arithmetic that the gate modules must not use on a value
_ARITHMETIC = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod,
               ast.Pow)


def _host_arithmetic(tree):
    return [(type(node).__name__, node.lineno) for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, _ARITHMETIC)
            or isinstance(node, ast.UnaryOp)
            and isinstance(node.op, ast.USub)]


@pytest.mark.parametrize("module", [wordcore, maaops])
def test_gate_modules_use_no_host_arithmetic(module):
    tree = ast.parse(Path(module.__file__).read_text())
    assert _host_arithmetic(tree) == []


def _imported_names(tree):
    """Each dotted part that an import, at any depth, names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            names.update(node.module.split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update(alias.name.split("."))
    return names


def test_native_core_imports_nothing_of_the_gate_core():
    # the two cores stay independent: nativecore reaches the gate core
    # through no import, not even one inside a function
    tree = ast.parse(Path(nativecore.__file__).read_text())
    assert _imported_names(tree) & {"wordcore", "maaops", "maacore"} == set()


# maacore's phases, and message_blocks and the methods of its result,
# which leave the padding to the root's words; MacStream and mac_message
# keep their block counters and byte counts outside the rule
GATE_PHASES = ("power_chain", "prelude", "main_loop", "loop_trace", "coda",
               "mac_values", "message_blocks", "MessageBlocks.__init__",
               "MessageBlocks.__len__", "MessageBlocks.__iter__",
               "MessageBlocks.__getitem__")


def test_gate_phases_use_no_host_arithmetic():
    tree = ast.parse(Path(maacore.__file__).read_text())
    phases = {node.name: node for node in tree.body
              if isinstance(node, ast.FunctionDef)}
    phases.update((f"{cls.name}.{node.name}", node) for cls in tree.body
                  if isinstance(cls, ast.ClassDef) for node in cls.body
                  if isinstance(node, ast.FunctionDef))
    assert set(GATE_PHASES) <= set(phases)
    for name in GATE_PHASES:
        assert _host_arithmetic(phases[name]) == [], name
