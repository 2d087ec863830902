"""Gate-level machine words: bits, octets, half-words and blocks.

Everything is built upward from single-bit gates: ripple-carry adders,
shift-and-add multipliers, bitwise logic applied position by position.
Host integers appear only as labels (for rendering, hashing, and conversion
at the package boundary; above the octet, computed only when read); no
arithmetic result is ever produced by a native + or *.  Big-endian holds
throughout: bit index 0 of an octet is its most significant bit, octet o1
of a block is its most significant byte.  An operation with two results,
an adder's carry and sum or a product's two halves, returns them as a tuple.

Three tables below the octet level are built once, at import: the full
adder's eight-row truth table, by calling add_bit and car_bit; the lookup
from a bit pattern to its interned octet; and zero-extension of an octet
to a half-word.  Only the pure single-octet operations are memoized per
call.  Memoizing a pure function is lookup-table reuse; each table entry
is still computed once through the full gate construction.
"""

import re
from functools import cache

ZERO = 0
ONE = 1


def and_bit(a, b):
    return a & b


def or_bit(a, b):
    return a | b


def xor_bit(a, b):
    return a ^ b


def not_bit(a):
    return a ^ 1


def add_bit(a, b, c):
    """Sum output of a one-bit full adder."""
    return xor_bit(xor_bit(a, b), c)


def car_bit(a, b, c):
    """Carry output of a one-bit full adder."""
    return or_bit(and_bit(and_bit(a, b), not_bit(c)),
                  and_bit(or_bit(a, b), c))


# _FULL_ADDER[a][b][c] is (sum, carry) of one full adder.
_FULL_ADDER = tuple(tuple(tuple((add_bit(a, b, c), car_bit(a, b, c))
                                for c in (ZERO, ONE))
                          for b in (ZERO, ONE))
                    for a in (ZERO, ONE))


class Octet:
    """An 8-bit word held as a tuple of eight bits, most significant first.

    Instances are interned: exactly 256 exist, so identity, equality and
    hashing coincide.  `value` is the integer label of the bit pattern.
    """

    __slots__ = ("bits", "value")

    def __init__(self, bits, value):
        self.bits = bits
        self.value = value

    @classmethod
    def from_bits(cls, bits):
        """The interned octet of exactly eight bits, each 0 or 1."""
        try:
            return _BY_BITS[tuple(bits)]
        except KeyError:
            raise ValueError(f"expected eight bits of 0 or 1, got {bits!r}") \
                from None

    @classmethod
    def from_int(cls, v):
        if not 0 <= v <= 0xFF:
            raise ValueError(f"octet value out of range: {v}")
        return _OCTETS[v]

    def hex(self):
        return f"{self.value:02X}"

    def __repr__(self):
        return f"Octet({self.hex()})"


_OCTETS = tuple(
    Octet(tuple(v >> (7 - i) & 1 for i in range(8)), v) for v in range(256)
)

_BY_BITS = {o.bits: o for o in _OCTETS}

X00 = _OCTETS[0x00]
X01 = _OCTETS[0x01]
XFF = _OCTETS[0xFF]


_HEX_WORD = re.compile("[0-9A-Fa-f]{8}")


class _Word:
    """What Half and Block share: hex at full width, equality and
    hashing by type and value, and the range check of from_int.

    Each subclass sets _BITS and keeps its own slots, constructor, value
    and _split, which builds an instance from an in-range integer.  Octet
    stays outside: its 256 instances are interned, and the memo tables
    hash them by identity.
    """

    __slots__ = ()

    @classmethod
    def from_int(cls, v):
        if not 0 <= v < 1 << cls._BITS:
            raise ValueError(f"{cls.__name__.lower()} value out of range: {v}")
        return cls._split(v)

    def hex(self):
        return f"{self.value:0{self._BITS // 4}X}"

    def __eq__(self, other):
        return type(other) is type(self) and self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"{type(self).__name__}({self.hex()})"


class Half(_Word):
    """A 16-bit word as two octets, most significant first."""

    __slots__ = ("o1", "o2")
    _BITS = 16

    def __init__(self, o1, o2):
        self.o1 = o1
        self.o2 = o2

    @property
    def value(self):
        return self.o1.value << 8 | self.o2.value

    @classmethod
    def _split(cls, v):
        return cls(_OCTETS[v >> 8], _OCTETS[v & 0xFF])


class Block(_Word):
    """A 32-bit word as four octets, most significant first.

    The MAA's fundamental unit: message blocks, key halves, the working
    registers and the result are all blocks.
    """

    __slots__ = ("o1", "o2", "o3", "o4")
    _BITS = 32

    def __init__(self, o1, o2, o3, o4):
        self.o1 = o1
        self.o2 = o2
        self.o3 = o3
        self.o4 = o4

    @property
    def value(self):
        return (self.o1.value << 24 | self.o2.value << 16
                | self.o3.value << 8 | self.o4.value)

    @classmethod
    def _split(cls, v):
        return cls(_OCTETS[v >> 24], _OCTETS[v >> 16 & 0xFF],
                   _OCTETS[v >> 8 & 0xFF], _OCTETS[v & 0xFF])

    @classmethod
    def from_hex(cls, s):
        """Exactly eight hex digits, either case, and nothing else."""
        if not _HEX_WORD.fullmatch(s):
            raise ValueError(f"expected 8 hex digits, got {s!r}")
        return cls._split(int(s, 16))

    def octets(self):
        return (self.o1, self.o2, self.o3, self.o4)


# ---------------------------------------------------------------- octet logic

@cache
def and_octet(a, b):
    return Octet.from_bits(tuple(map(and_bit, a.bits, b.bits)))


@cache
def or_octet(a, b):
    return Octet.from_bits(tuple(map(or_bit, a.bits, b.bits)))


@cache
def xor_octet(a, b):
    return Octet.from_bits(tuple(map(xor_bit, a.bits, b.bits)))


def shift_octet(a, n):
    """Logical right shift by n in {1..7}, vacated bits filled with ZERO."""
    if not 1 <= n <= 7:
        raise ValueError(f"shift distance must be 1..7, got {n}")
    return Octet.from_bits((ZERO,) * n + a.bits[:8 - n])


# ------------------------------------------------------------- octet addition

@cache
def add_octet_carry(a, b, cin=ZERO):
    """Ripple-carry 8-bit adder: (carry, sum) with
    carry * 256 + sum = a + b + cin."""
    bits = [ZERO] * 8
    carry = cin
    for i in range(7, -1, -1):
        bits[i], carry = _FULL_ADDER[a.bits[i]][b.bits[i]][carry]
    return carry, Octet.from_bits(bits)


def add_octet(a, b):
    return add_octet_carry(a, b, ZERO)[1]


# ------------------------------------------------------- octet multiplication

@cache
def mul_octet(a, b):
    """16-bit product by shift-and-add over the bits of a, MSB first.

    Bit i of a (i = 0 is the MSB) contributes b << (7 - i): with eight
    ZEROs on each side of b's bits, the sixteen bits from position 7 - i
    on, taken as a high and a low octet.  A carry out of the accumulator's
    low octet feeds its high octet as +1.
    """
    wide = X00.bits + b.bits + X00.bits
    hi = lo = X00
    for i in range(8):
        if a.bits[i] == ONE:
            hi = add_octet(hi, Octet.from_bits(wide[7 - i:15 - i]))
            c, lo = add_octet_carry(lo, Octet.from_bits(wide[15 - i:23 - i]),
                                    ZERO)
            if c == ONE:
                hi = add_octet(hi, X01)
    return Half(hi, lo)


# ------------------------------------------------------ half-word arithmetic

_HALVES = tuple(Half(X00, o) for o in _OCTETS)


def half_from_octet(o):
    """Zero-extend an octet to a half-word."""
    return _HALVES[o.value]


def add_half(a, b):
    c2, s2 = add_octet_carry(a.o2, b.o2, ZERO)
    _, s1 = add_octet_carry(a.o1, b.o1, c2)
    return Half(s1, s2)


def mul_half(a, b):
    """32-bit product of two half-words from four 8-bit partial products.

    The cross terms are accumulated column by column through the octet
    adders; each hN below is one column of the schoolbook layout.
    """
    h3 = mul_octet(a.o1, b.o1)
    h4 = mul_octet(a.o1, b.o2)
    h5 = mul_octet(a.o2, b.o1)
    h6 = mul_octet(a.o2, b.o2)
    h7 = add_half(half_from_octet(h4.o2),
                  add_half(half_from_octet(h5.o2), half_from_octet(h6.o1)))
    h8 = add_half(half_from_octet(h7.o1),
                  add_half(half_from_octet(h3.o2),
                           add_half(half_from_octet(h4.o1),
                                    half_from_octet(h5.o1))))
    h9 = add_half(half_from_octet(h8.o1), half_from_octet(h3.o1))
    return Block(h9.o2, h8.o2, h7.o2, h6.o2)


# ----------------------------------------------------------- block arithmetic

def and_block(a, b):
    return Block(and_octet(a.o1, b.o1), and_octet(a.o2, b.o2),
                 and_octet(a.o3, b.o3), and_octet(a.o4, b.o4))


def or_block(a, b):
    return Block(or_octet(a.o1, b.o1), or_octet(a.o2, b.o2),
                 or_octet(a.o3, b.o3), or_octet(a.o4, b.o4))


def xor_block(a, b):
    return Block(xor_octet(a.o1, b.o1), xor_octet(a.o2, b.o2),
                 xor_octet(a.o3, b.o3), xor_octet(a.o4, b.o4))


def add_block_carry(a, b):
    """32-bit adder chained through four octet adders, low octet first:
    (carry, sum)."""
    c4, s4 = add_octet_carry(a.o4, b.o4, ZERO)
    c3, s3 = add_octet_carry(a.o3, b.o3, c4)
    c2, s2 = add_octet_carry(a.o2, b.o2, c3)
    c1, s1 = add_octet_carry(a.o1, b.o1, c2)
    return c1, Block(s1, s2, s3, s4)


def add_block(a, b):
    return add_block_carry(a, b)[1]


def upper_half(w):
    return Half(w.o1, w.o2)


def lower_half(w):
    return Half(w.o3, w.o4)


def block_from_half(h):
    """Zero-extend a half-word to a block."""
    return Block(X00, X00, h.o1, h.o2)


def mul_block(a, b):
    """Exact 64-bit product as the blocks (upper, lower).

    Four 16x16 partial products; the middle columns are gathered into w3
    and w4 whose upper halves carry into the next column up, and w5 closes
    the top.  The two blocks are assembled from the low halves of w5, w4,
    w3 and w22.
    """
    au, al = upper_half(a), lower_half(a)
    bu, bl = upper_half(b), lower_half(b)
    w11 = mul_half(au, bu)
    w12 = mul_half(au, bl)
    w21 = mul_half(al, bu)
    w22 = mul_half(al, bl)
    w3 = add_block(block_from_half(lower_half(w12)),
                   add_block(block_from_half(lower_half(w21)),
                             block_from_half(upper_half(w22))))
    w4 = add_block(block_from_half(upper_half(w3)),
                   add_block(block_from_half(lower_half(w11)),
                             add_block(block_from_half(upper_half(w12)),
                                       block_from_half(upper_half(w21)))))
    w5 = add_block(block_from_half(upper_half(w4)),
                   block_from_half(upper_half(w11)))
    return (Block(w5.o3, w5.o4, w4.o3, w4.o4),
            Block(w3.o3, w3.o4, w22.o3, w22.o4))
