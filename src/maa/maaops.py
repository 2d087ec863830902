"""The MAA primitive operations (ISO 8731-2).

Rotation, the two multiplier-conditioning masks, byte adjustment of
key-derived values, carry-fold addition and the three modular
multiplications, over wordcore's gate-level words (host ints here as
there): CYC is wiring, PAT and BYT are per-byte OR and AND reductions,
and every sum and product comes from wordcore's adder and multiplier.
No + - * / // % ** touches a value here; a tier-1 test checks it.

MUL1 and MUL2 reduce the product ab = uN + l of two words (N = 2**32)
modulo N - 1 and N - 2, folding the upper half u into the lower half l
with end-around carries.  The folds are literal: where a residue has
two encodings, the pick is the fold's.  The vectors pin MUL2's pick,
not MUL1's; the tests pin both on closed forms, at 32 bits and, with
8-bit gates bound here, on every 8-bit pair (N = 2**8): MUL1 is 0 if
ab = 0, else (ab - 1) mod (N - 1) + 1; MUL2 is ab if ab < 2, else
(ab - 2) mod (N - 2) + 2.  Any N holds: u <= N - 2, as (N - 1)**2 =
(N - 2)N + 1, so a folded sum holds one carry at most.  MUL1: u + l is
0 only if ab is, and u + l - N + 1 lies in 1..N - 2.  MUL2: the doubled
u, 2u or 2u - N + 2, is even, at most N - 2 and 0 only if u is; adding
l gives ab if u = 0 and l < 2, else a result in 2..N - 1.

MUL2A, the main loop's MUL2, drops the doubling's carry, so it agrees
with MUL2 whenever u < N/2, hence whenever either operand is below
2**31 (a derived bound, not the standard's); FIX2's AND clears bit 31.
"""

from .wordcore import MASK32, adder, add_block, mul_block, multiplier

# Conditioning masks: OR then AND, forcing some bits on and some off so the
# multiplier operands can never collapse to degenerate values.
FIX1_OR_MASK = 0x02040801
FIX1_AND_MASK = 0xBFEF7FDF
FIX2_OR_MASK = 0x00804021
FIX2_AND_MASK = 0x7DFEFBFF

# Bit 0 of each byte of a word pair, read as one 64-bit word
_BYTE_LSBS = 0x0101010101010101


def cyc(w):
    """Circular left rotation by one bit; the MSB wraps around to the LSB."""
    return w << 1 & MASK32 | w >> 31


def _flags(pair):
    """Bit 0 of each byte of the 64-bit pair set iff the byte is 0x00 or
    0xFF: three layers of shifted gates bring each byte's OR and AND down
    to its bit 0, and a byte is flagged if its OR is 0 or its AND is 1."""
    o = pair | pair >> 4
    o |= o >> 2
    o |= o >> 1
    a = pair & pair >> 4
    a &= a >> 2
    a &= a >> 1
    return (o ^ _BYTE_LSBS | a) & _BYTE_LSBS


def _gather(flags):
    """The eight byte flags wired into one octet, byte 0 of the pair (the
    most significant) onto its bit 7."""
    flags |= flags >> 7
    flags |= flags >> 14
    flags |= flags >> 28
    return flags & 0xFF


def pat(w1, w2):
    """Pattern octet: bit i is ONE iff byte i of w1 || w2 is 0x00 or 0xFF."""
    return _gather(_flags(w1 << 32 | w2))


def byt(w1, w2):
    """Byte adjustment: rewrite every 0x00 or 0xFF byte of a word pair.

    Each flagged byte is XORed with the pattern octet shifted so that the
    byte sees the pattern prefix up to and including its own position;
    bytes outside {0x00, 0xFF} pass through untouched.
    """
    pair = w1 << 32 | w2
    flags = _flags(pair)
    p = _gather(flags)
    # byte k from the least significant sees p >> k; a flag at a byte's
    # bit 0 spreads to all eight of its bits
    mask = 0
    for k in range(8):
        mask |= p >> k << (k << 3)
    flags |= flags << 1
    flags |= flags << 2
    flags |= flags << 4
    out = pair ^ mask & flags
    return out >> 32, out & MASK32


def addc(w1, w2):
    """Full 33-bit addition as the words (carry, sum), the carry 0 or 1."""
    return adder(w1, w2, 0, 32)


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
    """(o + 1) squared, for an octet o: o plus a carry in through the
    8-bit adder, its carry out as the ninth bit, then squared as 16 x 16
    bits."""
    c, s = adder(o, 0, 1, 8)
    v = c << 8 | s
    return multiplier(v, v, 16)
