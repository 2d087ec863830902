"""Gate-level machine words: every gate acts on all bits of a word at once.

A word is a host int used as a bit vector.  `&`, `|` and `^` are banks of
AND, OR and XOR gates, one per bit position; a shift, or an AND with a
constant, is wiring.  No arithmetic result is ever produced by a native
+ or *: a tier-1 test checks this module for + - * / // % **.

The adder is a Kogge-Stone parallel-prefix network (Kogge and Stone, IEEE
Trans. Computers C-22(8), 1973).  The multiplier keeps its running sum in
carry-save form, as in Wallace (IEEE Trans. Electronic Computers EC-13,
1964), and calls the adder once.  Both are width-generic: the 32- and
64-bit paths run the code that the tests check exhaustively at 8 bits.
An operation with two results returns them as a tuple.
"""

import re


def full_adder(a, b, c):
    """One full adder per bit position: the words (carry, sum)."""
    p = a ^ b
    return a & b | c & p, p ^ c


def adder(a, b, cin, width):
    """Prefix adder on width-bit words: (carry, sum) with
    carry * 2**width + sum = a + b + cin, for a carry in of 0 or 1.

    Each position generates a carry (a & b) or propagates one (a ^ b),
    and bit 0 generates the carry in if it propagates.  Layer d = 1, 2,
    4, ... below width joins each position's group to the one d places
    down; then g holds the carry out of every position.
    """
    p = a ^ b
    g = a & b | p & cin
    t = p
    d = 1
    while d < width:
        g |= t & g << d
        t &= t << d
        d <<= 1
    c = g << 1 | cin
    carry = c >> width
    return carry, p ^ c ^ carry << width


def multiplier(x, y, width):
    """Product of two width-bit words, as one word of twice that width:
    row x << i for each set bit i of y enters a bank of full adders that
    keeps the running sum as the two words (sum, carry), and the adder
    resolves them once, at the end."""
    s = c = 0
    for i in range(width):
        if y >> i & 1:
            c, s = full_adder(s, c, x << i)
            c <<= 1
    return adder(s, c, 0, width << 1)[1]


class Octet:
    """An 8-bit word, PAT's result and Q's operand.  Exactly 256 exist,
    interned, so identity, equality and hashing coincide."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    @classmethod
    def from_int(cls, v):
        if not 0 <= v <= 0xFF:
            raise ValueError(f"octet value out of range: {v}")
        return _OCTETS[v]


_OCTETS = tuple(map(Octet, range(256)))

_HEX_WORD = re.compile("[0-9A-Fa-f]{8}")
MASK32 = 0xFFFFFFFF


class Block:
    """A 32-bit word, the MAA's unit: message blocks, key halves, the
    working registers and the result.  Its bits are the host int in the
    `value` slot, most significant first; Block(v) takes v as a word
    already, and from_int checks it."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    @classmethod
    def from_int(cls, v):
        if not 0 <= v <= MASK32:
            raise ValueError(f"block value out of range: {v}")
        return cls(v)

    @classmethod
    def from_hex(cls, s):
        """Exactly eight hex digits, either case, and nothing else."""
        if not _HEX_WORD.fullmatch(s):
            raise ValueError(f"expected 8 hex digits, got {s!r}")
        return cls(int(s, 16))

    def hex(self):
        return f"{self.value:08X}"

    def __eq__(self, other):
        return type(other) is type(self) and self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"Block({self.hex()})"


def and_block(a, b):
    return Block(a.value & b.value)


def or_block(a, b):
    return Block(a.value | b.value)


def xor_block(a, b):
    return Block(a.value ^ b.value)


def add_block(a, b):
    return Block(adder(a.value, b.value, 0, 32)[1])


def mul_block(a, b):
    """Exact 64-bit product as the blocks (upper, lower)."""
    p = multiplier(a.value, b.value, 32)
    return Block(p >> 32), Block(p & MASK32)
