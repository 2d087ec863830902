"""Gate-level machine words: every gate acts on all bits of a word at once.

A word is a host int used as a bit vector.  `&`, `|` and `^` are banks of
AND, OR and XOR gates, one per bit position; a shift, or an AND with a
constant, is wiring.  No arithmetic result is ever produced by a native
+ or *: a tier-1 test checks this module for + - * / // % **.

The adder is a carry-completion adder: layers of half adders, one per bit
position, repeat until no carry is left.  The longest carry chain of a
random n-bit sum is about log2 n positions on average (Burks, Goldstine
and von Neumann, 1946), so few layers run.  The multiplier keeps its
running sum in carry-save form, as in Wallace (IEEE Trans. Electronic
Computers EC-13, 1964), and calls the adder once.  Both are width-generic:
the 32- and 64-bit paths run the code that the tests check exhaustively
at 8 bits.  An operation with two results returns them as a tuple.

Below the public API the gate core passes words as these ints.  Block is
the word type of the public names only (Key, message_blocks, MacStream,
mac_blocks, mac_message): a Block wraps one such int in its `value` slot.
"""

import re

from . import _check_words


def adder(a, b, cin, width):
    """Carry-completion adder on width-bit words: (carry, sum) with
    carry * 2**width + sum = a + b + cin, for a carry in of 0 or 1.

    The first layer of half adders takes a and b, the carry in wired onto
    the free bit 0 of its carry word; each further layer adds the sum and
    carry words of the last, s, c = s ^ c, (s & c) << 1, until the carry
    word is zero, after at most width + 1 layers.
    """
    s = a ^ b
    c = (a & b) << 1 | cin
    while c:
        s, c = s ^ c, (s & c) << 1
    carry = s >> width
    return carry, s ^ carry << width


# _ROWS[b]: the set bit positions of octet b, the rows that octet selects
_ROWS = [tuple(i for i in range(8) if b >> i & 1) for b in range(256)]


def multiplier(x, y, width):
    """Product of two width-bit words, as one word of twice that width.

    y is read an octet at a time through the wiring table _ROWS: row
    x << (i | k) for each set bit i of the octet at base k enters a bank
    of full adders that keeps the running sum as the two words (sum,
    carry), and the adder resolves them once, at the end."""
    s = c = 0
    for k in range(0, width, 8):
        for i in _ROWS[y >> k & 0xFF]:
            r = x << (i | k)
            p = s ^ c
            s, c = p ^ r, (s & c | r & p) << 1
    return adder(s, c, 0, width << 1)[1]


_HEX_WORD = re.compile("[0-9A-Fa-f]{8}")
MASK32 = 0xFFFFFFFF


class Block:
    """A 32-bit word, the MAA's unit at the public API: message blocks, key
    halves, the registers a stream reports and the result.  Its bits are
    the host int in the `value` slot, most significant first.  Block(v)
    holds v unchecked; from_int, and MacStream.push and mac_blocks on each
    block given, refuse a non-word through the package root's check."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    @classmethod
    def from_int(cls, v):
        _check_words((v,))
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


def add_block(a, b):
    return adder(a, b, 0, 32)[1]


def mul_block(a, b):
    """Exact 64-bit product of two words as the words (upper, lower)."""
    p = multiplier(a, b, 32)
    return p >> 32, p & MASK32
