"""A second, independent MAA implementation on host-machine integers.

Same algorithm as maaops/maacore, re-expressed over plain ints with
64-bit intermediate products.  It serves two purposes: a fast core for
real use, and a differential oracle for the gate-level construction
(and vice versa), on ints only.  Neither core imports the other: the
input boundary is the package root's, which both import.

Each end-around carry is one compare-and-subtract, as maaops's case
split allows, not a % reduction, which may pick the other encoding of a
degenerate residue (a remainder MUL1 passes the whole corpus); the
doubled terms are even, so no result needs a final mask.

main_loop, coda and mac_values share one inlined main-loop body, _fold,
which reads the conditioning masks TRUE_MASKS on each call and runs
each block under its E word (V rotated, XOR W) from the words it is
given.  V restarts at V0 in each segment and repeats every 32 blocks, so
mac_values builds the key's E words once, at most 32, and folds each
segment over them, cycling past 32 blocks, with S and T as its last two
blocks (the coda).  loop_trace is a separate, instrumented copy under the masks it
is given.  BYT and PAT are table lookups on the eight key bytes.

The key expansion is one ladder, _ladder, kept in locals: prelude reads
its six H words from the tuple it returns, and power_chain builds the
corpus's PRELUDE_CHAIN record from the same tuple, for the corpus only.
"""

from itertools import cycle

from . import LIMIT_BELOW_ONE, MESSAGE_BLOCK_LIMIT, check_key, segments

MASK32 = 0xFFFFFFFF
# the main loop's conditioning masks (or1, and1, or2, and2)
TRUE_MASKS = (0x02040801, 0xBFEF7FDF, 0x00804021, 0x7DFEFBFF)


# BYT adjusts only 0x00 and 0xFF bytes: PAT digit "1"
_PAT_DIGIT = b"".join(b"1" if b in (0x00, 0xFF) else b"0" for b in range(256))
# _ADJUST[p]: BYT's XOR mask for pattern p.  Byte j of the pair (0 the
# most significant) is adjusted iff bit 7 - j of p is set, by p >> (7 - j).
_ADJUST = [int.from_bytes(bytes(p >> (7 - j) if p >> (7 - j) & 1 else 0
                                for j in range(8)), "big")
           for p in range(256)]


def pat(w1, w2):
    return int((w1 << 32 | w2).to_bytes(8, "big").translate(_PAT_DIGIT), 2)


def byt(w1, w2):
    out = (w1 << 32 | w2) ^ _ADJUST[pat(w1, w2)]
    return out >> 32, out & MASK32


def mul1(a, b):
    p = a * b
    s = (p >> 32) + (p & 0xFFFFFFFF)
    return s - 0xFFFFFFFF if s > 0xFFFFFFFF else s


def mul2(a, b):
    p = a * b
    d = p >> 32 << 1
    if d > 0xFFFFFFFF:
        d -= 0xFFFFFFFE
    f = d + (p & 0xFFFFFFFF)
    return f - 0xFFFFFFFE if f > 0xFFFFFFFF else f


def mul2a(a, b):
    p = a * b
    f = (p >> 31 & 0xFFFFFFFE) + (p & 0xFFFFFFFF)
    return f - 0xFFFFFFFE if f > 0xFFFFFFFF else f


def q(o):
    return (o + 1) * (o + 1)


# the PRELUDE_CHAIN record's names, in the order _ladder returns them
_CHAIN = ("J12", "J14", "J16", "J18", "J22", "J24", "J26", "J28",
          "K12", "K14", "K15", "K17", "K19", "K22", "K24", "K25", "K27",
          "K29", "H0", "H4", "H5", "H6", "H7", "H8", "H9")


def _ladder(j1, k1, p):
    """Prelude power ladders and H blocks, in locals, returned in _CHAIN's
    order: the prelude reads its six H words from the end."""
    j12 = mul1(j1, j1)
    j14 = mul1(j12, j12)
    j16 = mul1(j12, j14)
    j18 = mul1(j12, j16)
    j22 = mul2(j1, j1)
    j24 = mul2(j22, j22)
    j26 = mul2(j22, j24)
    j28 = mul2(j22, j26)
    k12 = mul1(k1, k1)
    k14 = mul1(k12, k12)
    k15 = mul1(k1, k14)
    k17 = mul1(k12, k15)
    k19 = mul1(k12, k17)
    k22 = mul2(k1, k1)
    k24 = mul2(k22, k22)
    k25 = mul2(k1, k24)
    k27 = mul2(k22, k25)
    k29 = mul2(k22, k27)
    h0 = k15 ^ k25
    return (j12, j14, j16, j18, j22, j24, j26, j28, k12, k14, k15, k17,
            k19, k22, k24, k25, k27, k29, h0, j14 ^ j24, mul2(h0, q(p)),
            j16 ^ j26, k17 ^ k27, j18 ^ j28, k19 ^ k29)


def power_chain(j1, k1, p):
    """The ladder as the PRELUDE_CHAIN record, built only for the corpus."""
    return dict(zip(_CHAIN, _ladder(j1, k1, p)))


def prelude(j, k):
    check_key(j, k)
    j1, k1 = byt(j, k)
    h4, h5, h6, h7, h8, h9 = _ladder(j1, k1, pat(j, k))[-6:]
    x0, y0 = byt(h4, h5)
    v0, w = byt(h6, h7)
    s, t = byt(h8, h9)
    return x0, y0, v0, w, s, t


# the right shifts of V << 32 | V that read V rotated left by 1, ..., 32
_SHIFTS = range(31, -1, -1)


def _e_words(v, w, n):
    """The E words of the next n blocks after V = v, at most 32, each with
    the bits of V << 32 | V above its 32-bit window left in, which _fold's
    masks drop."""
    vv = v << 32 | v
    return [vv >> r ^ w for r in _SHIFTS[:n]]


def _fold(x, y, es, blocks):
    """Main-loop iterations over blocks, each under the next E word of es;
    returns (x, y)."""
    or1, and1, or2, and2 = TRUE_MASKS
    for m, e in zip(blocks, es):
        xm = x ^ m
        ym = y ^ m
        # MUL1(xm, FIX1(ym + e)); and1 < 2**32 also masks the sum, which
        # drops any bits of e past the word, and one compare-and-subtract
        # of 2**32 - 1 takes the end-around carry
        p = xm * ((ym + e | or1) & and1)
        s = (p >> 32) + (p & 0xFFFFFFFF)
        x = s - 0xFFFFFFFF if s > 0xFFFFFFFF else s
        # MUL2A(ym, FIX2(xm + e)), masked by and2 < 2**32 alike; the
        # doubled carry, by 2**32 - 2
        p = ym * ((xm + e | or2) & and2)
        f = (p >> 31 & 0xFFFFFFFE) + (p & 0xFFFFFFFF)
        y = f - 0xFFFFFFFE if f > 0xFFFFFFFF else f
    return x, y


def main_loop(x, y, v, w, block):
    v = (v << 1 | v >> 31) & MASK32
    return (*_fold(x, y, (v ^ w,), (block,)), v)


def loop_trace(x, y, v, w, block, masks):
    """Instrumented iteration; masks is (or1, and1, or2, and2)."""
    or1, and1, or2, and2 = masks
    vp = (v << 1 | v >> 31) & MASK32
    e = vp ^ w
    xm = x ^ block
    ym = y ^ block
    f = (e + ym) & MASK32
    g = (e + xm) & MASK32
    fpp = (f | or1) & and1
    gpp = (g | or2) & and2
    xp = mul1(xm, fpp)
    yp = mul2a(ym, gpp)
    return {"Vp": vp, "E": e, "X": xm, "Y": ym, "F": f, "G": g,
            "Fp": f | or1, "Gp": g | or2, "Fpp": fpp, "Gpp": gpp,
            "Xp": xp, "Yp": yp, "Z": xp ^ yp}


def coda(x, y, v, w, s, t):
    x, y = _fold(x, y, _e_words(v, w, 2), (s, t))
    return x ^ y


def mac_values(j, k, values, limit=MESSAGE_BLOCK_LIMIT):
    """MAC over an iterable of 32-bit block values, segmented mode."""
    if limit < 1:
        raise ValueError(LIMIT_BELOW_ONE)
    x0, y0, v0, w, s, t = prelude(j, k)
    z = es = None
    for seg in segments(values, limit):
        if z is not None:
            seg.insert(0, z)
        seg += (s, t)  # the coda: two more blocks of the same fold
        # every segment restarts V at V0; a cycle's first pass costs more
        # than a short segment's fold saves, so one that fits takes es
        es = es or _e_words(v0, w, len(seg))
        x, y = _fold(x0, y0, es if len(seg) <= len(es) else cycle(es), seg)
        z = x ^ y
    return z


# kept only because perfbench/run.py times it (ROADMAP.md, item 1b)
def native_mac(key, blocks, limit=MESSAGE_BLOCK_LIMIT):
    """Block-typed front door, bit-identical to the gate-level stream."""
    from .wordcore import Block
    values = (b.value for b in blocks)
    return Block(mac_values(key.J.value, key.K.value, values, limit))
