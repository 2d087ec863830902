"""Gate-level machine words: bits, octets and blocks.

Everything is built upward from single-bit gates: ripple-carry adders,
shift-and-add multipliers, bitwise logic applied position by position.
Host integers appear only as labels (for rendering, hashing, interning, and
conversion at the package boundary; above the octet, computed only when
read); no
arithmetic result is ever produced by a native + or *.  Big-endian holds
throughout: bit index 0 of an octet is its most significant bit, octet o1
of a block is its most significant byte.  Every operation with two results,
an adder's carry and sum or a product's high and low octets, returns them
as a tuple.

Three tables are built once, at import: the full adder's eight-row truth
table, by calling add_bit and car_bit, the lookup from a bit pattern to its
interned octet, and the 512 (carry, sum) results an octet adder can give.
Only the pure single-octet operations are memoized per call.  Memoizing a
pure function is lookup-table reuse; each table entry is still computed
once through the full gate construction.  Their results are interned, as
the octets are: an adder's miss returns one of the 512 results, and a
product's miss returns the one (hi, lo) tuple of that product, made when
the product is first computed and kept in a store of 65,536 slots.  Each
table's entries are bounded by its keys: 131,072 for add_octet_carry (two
octets and a carry bit), 65,536 for mul_octet and for each of and_octet,
or_octet and xor_octet.  Inside _mul16 and mul_block, octets pass from
adder to adder as plain values, the wires of a dataflow node; a Block is
built only at the multiplier's boundary.
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

# _SUMS[carry, bits] is the interned (carry, sum) result of an octet adder.
_SUMS = {(c, o.bits): (c, o) for c in (ZERO, ONE) for o in _OCTETS}


_HEX_WORD = re.compile("[0-9A-Fa-f]{8}")


class Block:
    """A 32-bit word as four octets, most significant first.

    The MAA's fundamental unit: message blocks, key halves, the working
    registers and the result are all blocks.
    """

    __slots__ = ("o1", "o2", "o3", "o4")

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
    def from_int(cls, v):
        if not 0 <= v <= 0xFFFFFFFF:
            raise ValueError(f"block value out of range: {v}")
        return cls(_OCTETS[v >> 24], _OCTETS[v >> 16 & 0xFF],
                   _OCTETS[v >> 8 & 0xFF], _OCTETS[v & 0xFF])

    @classmethod
    def from_hex(cls, s):
        """Exactly eight hex digits, either case, and nothing else."""
        if not _HEX_WORD.fullmatch(s):
            raise ValueError(f"expected 8 hex digits, got {s!r}")
        return cls.from_int(int(s, 16))

    def octets(self):
        return (self.o1, self.o2, self.o3, self.o4)

    def hex(self):
        return f"{self.value:08X}"

    def __eq__(self, other):
        return type(other) is type(self) and self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"Block({self.hex()})"


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
def add_octet_carry(a, b, cin):
    """Ripple-carry 8-bit adder: (carry, sum) with
    carry * 256 + sum = a + b + cin."""
    bits = [ZERO] * 8
    carry = cin
    for i in range(7, -1, -1):
        bits[i], carry = _FULL_ADDER[a.bits[i]][b.bits[i]][carry]
    return _SUMS[carry, tuple(bits)]


# ------------------------------------------------------- octet multiplication

# _PRODUCTS[v] is the interned (hi, lo) of product v, made when first computed.
_PRODUCTS = [None] * 0x10000


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
            hi = add_octet_carry(hi, Octet.from_bits(wide[7 - i:15 - i]),
                                 ZERO)[1]
            c, lo = add_octet_carry(lo, Octet.from_bits(wide[15 - i:23 - i]),
                                    ZERO)
            if c == ONE:
                hi = add_octet_carry(hi, X01, ZERO)[1]
    v = hi.value << 8 | lo.value
    product = _PRODUCTS[v]
    if product is None:
        product = _PRODUCTS[v] = (hi, lo)
    return product


# ------------------------------------------------------ 16x16 multiplication

def _mul16(a1, a2, b1, b2):
    """The four octets of the product (a1 a2) * (b1 b2), from four 8-bit
    partial products summed column by column, each hN below one column of
    the schoolbook layout.  Each step adds a zero-extended octet to the
    column so far: the low octets first, their carry into the high ones."""
    h3hi, h3lo = mul_octet(a1, b1)
    h4hi, h4lo = mul_octet(a1, b2)
    h5hi, h5lo = mul_octet(a2, b1)
    h6hi, h6lo = mul_octet(a2, b2)
    # h7 = h4lo + (h5lo + h6hi)
    c, lo = add_octet_carry(h5lo, h6hi, ZERO)
    hi = add_octet_carry(X00, X00, c)[1]
    c, h7 = add_octet_carry(h4lo, lo, ZERO)
    up7 = add_octet_carry(X00, hi, c)[1]
    # h8 = up7 + (h3lo + (h4hi + h5hi))
    c, lo = add_octet_carry(h4hi, h5hi, ZERO)
    hi = add_octet_carry(X00, X00, c)[1]
    c, lo = add_octet_carry(h3lo, lo, ZERO)
    hi = add_octet_carry(X00, hi, c)[1]
    c, h8 = add_octet_carry(up7, lo, ZERO)
    up8 = add_octet_carry(X00, hi, c)[1]
    # h9 = up8 + h3hi: the product fits 32 bits, so the high sum is unread
    c, h9 = add_octet_carry(up8, h3hi, ZERO)
    add_octet_carry(X00, X00, c)
    return h9, h8, h7, h6lo


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


def _add32(a3, a4, b):
    """X00 X00 a3 a4 plus the four octets b, low octet first, carry dropped."""
    c, s4 = add_octet_carry(a4, b[3], ZERO)
    c, s3 = add_octet_carry(a3, b[2], c)
    c, s2 = add_octet_carry(X00, b[1], c)
    return add_octet_carry(X00, b[0], c)[1], s2, s3, s4


def mul_block(a, b):
    """Exact 64-bit product as the blocks (upper, lower).

    Four 16x16 partial products; the middle columns are gathered into w3
    and w4 whose upper halves carry into the next column up, and w5 closes
    the top, each four octets summed with a zero-extended half.  The two
    blocks are assembled from the low halves of w5, w4, w3 and w22.
    """
    w11 = _mul16(a.o1, a.o2, b.o1, b.o2)
    w12 = _mul16(a.o1, a.o2, b.o3, b.o4)
    w21 = _mul16(a.o3, a.o4, b.o1, b.o2)
    w22 = _mul16(a.o3, a.o4, b.o3, b.o4)
    w3 = _add32(w12[2], w12[3],
                _add32(w21[2], w21[3], (X00, X00, w22[0], w22[1])))
    w4 = _add32(w3[0], w3[1], _add32(
        w11[2], w11[3], _add32(w12[0], w12[1], (X00, X00, w21[0], w21[1]))))
    w5 = _add32(w4[0], w4[1], (X00, X00, w11[0], w11[1]))
    return (Block(w5[2], w5[3], w4[2], w4[3]),
            Block(w3[2], w3[3], w22[2], w22[3]))
