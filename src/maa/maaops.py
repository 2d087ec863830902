"""The MAA primitive operations (ISO 8731-2).

Rotation, the two multiplier-conditioning masks, byte adjustment of
key-derived values, carry-fold addition, and the three modular
multiplications, all expressed over the gate-level words of wordcore.

MUL1 and MUL2 reduce a 64-bit product modulo 2**32 - 1 and 2**32 - 2 by
folding the upper half back into the lower with end-around carries.  The
fold sequences below are literal: where the true residue has two
encodings the algorithm's pick is whatever the fold produces, and the
test vectors pin that pick.  Congruence with the mathematical residue is
a separate property checked in the tests.

MUL2A is the main-loop variant of MUL2 that drops the carry of the
upper-half doubling.  It agrees with MUL2 whenever the product's upper
half is below 2**31, hence whenever either operand is (a derived bound,
not part of the standard's text); inside the main loop the masked
operand guarantees this.
"""

from .wordcore import (
    Block, Octet, X00, X01, XFF, ZERO, ONE,
    add_block, add_block_carry, add_octet_carry, mul_block, _mul16,
    shift_octet, xor_octet,
)

# Conditioning masks: OR then AND, forcing some bits on and some off so the
# multiplier operands can never collapse to degenerate values.
FIX1_OR_MASK = Block.from_hex("02040801")
FIX1_AND_MASK = Block.from_hex("BFEF7FDF")
FIX2_OR_MASK = Block.from_hex("00804021")
FIX2_AND_MASK = Block.from_hex("7DFEFBFF")

_BLOCK_ZERO = Block.from_int(0)
_BLOCK_ONE = Block.from_int(1)


def cyc(w):
    """Circular left rotation by one bit; the MSB wraps around to the LSB."""
    bits = w.o1.bits + w.o2.bits + w.o3.bits + w.o4.bits
    rot = bits[1:] + bits[:1]
    return Block(Octet.from_bits(rot[0:8]), Octet.from_bits(rot[8:16]),
                 Octet.from_bits(rot[16:24]), Octet.from_bits(rot[24:32]))


def _needs_adjust(o):
    return o is X00 or o is XFF


def pat(w1, w2):
    """Pattern octet: bit i is ONE iff byte i of w1 || w2 is 0x00 or 0xFF."""
    return Octet.from_bits(tuple(
        ONE if _needs_adjust(o) else 0
        for o in w1.octets() + w2.octets()
    ))


def byt(w1, w2):
    """Byte adjustment: rewrite every 0x00 or 0xFF byte of a block pair.

    Each flagged byte is XORed with the pattern octet shifted so that the
    byte sees the pattern prefix up to and including its own position;
    bytes outside {0x00, 0xFF} pass through untouched.
    """
    p = pat(w1, w2)

    def adj(o, mask):
        return xor_octet(o, mask) if _needs_adjust(o) else o

    w = Block(adj(w1.o1, shift_octet(p, 7)),
              adj(w1.o2, shift_octet(p, 6)),
              adj(w1.o3, shift_octet(p, 5)),
              adj(w1.o4, shift_octet(p, 4)))
    wp = Block(adj(w2.o1, shift_octet(p, 3)),
               adj(w2.o2, shift_octet(p, 2)),
               adj(w2.o3, shift_octet(p, 1)),
               adj(w2.o4, p))
    return w, wp


def addc(w1, w2):
    """Full 33-bit addition as the blocks (carry, sum), the carry 0 or 1."""
    c, s = add_block_carry(w1, w2)
    return _BLOCK_ONE if c == ONE else _BLOCK_ZERO, s


def mul1(a, b):
    """Multiply and fold once end-around: result = a * b mod 2**32 - 1."""
    u, l = mul_block(a, b)
    c, s = addc(u, l)
    return add_block(s, c)


def mul2(a, b):
    """Multiply and fold with doubled carries: result = a * b mod 2**32 - 2.

    The upper half is doubled (since 2**32 = 2 mod 2**32 - 2) with its own
    carry folded in twice, then added to the lower half the same way.
    """
    u, l = mul_block(a, b)
    c, s = addc(u, u)
    u = add_block(s, add_block(c, c))
    c, s = addc(u, l)
    return add_block(s, add_block(c, c))


def mul2a(a, b):
    """MUL2 with the upper-half doubling carry dropped."""
    u, l = mul_block(a, b)
    u = add_block(u, u)
    c, s = addc(u, l)
    return add_block(s, add_block(c, c))


def q(o):
    """(o + 1) squared, as a block: o + 1 through two octet adders, the
    carry of the low one into the high, then squared as 16 x 16 bits."""
    c, lo = add_octet_carry(o, X01, ZERO)
    hi = add_octet_carry(X00, X00, c)[1]
    return Block(*_mul16(hi, lo, hi, lo))
