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

main_loop, coda and mac_values share one inlined main-loop body, _fold;
loop_trace is a separate, instrumented copy.  BYT and PAT are table
lookups on the eight key bytes.
"""

from . import LIMIT_BELOW_ONE, MESSAGE_BLOCK_LIMIT, check_key, segments

MASK32 = 0xFFFFFFFF

FIX1_OR = 0x02040801
FIX1_AND = 0xBFEF7FDF
FIX2_OR = 0x00804021
FIX2_AND = 0x7DFEFBFF


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
    f = (p >> 32 << 1 & 0xFFFFFFFF) + (p & 0xFFFFFFFF)
    return f - 0xFFFFFFFE if f > 0xFFFFFFFF else f


def q(o):
    return (o + 1) * (o + 1)


def power_chain(j1, k1, p):
    """Prelude power ladders and H blocks, keyed like the gate-level
    intermediates record and built as they are computed."""
    im = {}
    im["J12"] = mul1(j1, j1)
    im["J14"] = mul1(im["J12"], im["J12"])
    im["J16"] = mul1(im["J12"], im["J14"])
    im["J18"] = mul1(im["J12"], im["J16"])
    im["J22"] = mul2(j1, j1)
    im["J24"] = mul2(im["J22"], im["J22"])
    im["J26"] = mul2(im["J22"], im["J24"])
    im["J28"] = mul2(im["J22"], im["J26"])
    im["K12"] = mul1(k1, k1)
    im["K14"] = mul1(im["K12"], im["K12"])
    im["K15"] = mul1(k1, im["K14"])
    im["K17"] = mul1(im["K12"], im["K15"])
    im["K19"] = mul1(im["K12"], im["K17"])
    im["K22"] = mul2(k1, k1)
    im["K24"] = mul2(im["K22"], im["K22"])
    im["K25"] = mul2(k1, im["K24"])
    im["K27"] = mul2(im["K22"], im["K25"])
    im["K29"] = mul2(im["K22"], im["K27"])
    im["H4"] = im["J14"] ^ im["J24"]
    im["H6"] = im["J16"] ^ im["J26"]
    im["H8"] = im["J18"] ^ im["J28"]
    im["H0"] = im["K15"] ^ im["K25"]
    im["H5"] = mul2(im["H0"], q(p))
    im["H7"] = im["K17"] ^ im["K27"]
    im["H9"] = im["K19"] ^ im["K29"]
    return im


def prelude(j, k):
    check_key(j, k)
    j1, k1 = byt(j, k)
    im = power_chain(j1, k1, pat(j, k))
    x0, y0 = byt(im["H4"], im["H5"])
    v0, w = byt(im["H6"], im["H7"])
    s, t = byt(im["H8"], im["H9"])
    return x0, y0, v0, w, s, t


def _fold(x, y, v, w, blocks):
    """Main-loop iterations over blocks; returns (x, y, v)."""
    or1, and1, or2, and2 = FIX1_OR, FIX1_AND, FIX2_OR, FIX2_AND
    for m in blocks:
        v = (v << 1 | v >> 31) & MASK32
        e = v ^ w
        xm = x ^ m
        ym = y ^ m
        # MUL1(xm, FIX1(ym + e)); and1 < 2**32 also masks the sum, and one
        # compare-and-subtract of 2**32 - 1 takes the end-around carry
        p = xm * ((ym + e | or1) & and1)
        s = (p >> 32) + (p & 0xFFFFFFFF)
        x = s - 0xFFFFFFFF if s > 0xFFFFFFFF else s
        # MUL2A(ym, FIX2(xm + e)); the doubled carry, by 2**32 - 2
        p = ym * ((xm + e | or2) & and2)
        f = (p >> 32 << 1 & 0xFFFFFFFF) + (p & 0xFFFFFFFF)
        y = f - 0xFFFFFFFE if f > 0xFFFFFFFF else f
    return x, y, v


def main_loop(x, y, v, w, block):
    return _fold(x, y, v, w, (block,))


def loop_trace(x, y, v, w, block, masks=(FIX1_OR, FIX1_AND, FIX2_OR, FIX2_AND)):
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
    x, y, _ = _fold(x, y, v, w, (s, t))
    return x ^ y


def mac_values(j, k, values, limit=MESSAGE_BLOCK_LIMIT):
    """MAC over an iterable of 32-bit block values, segmented mode."""
    if limit < 1:
        raise ValueError(LIMIT_BELOW_ONE)
    x0, y0, v0, w, s, t = prelude(j, k)
    z = None
    for seg in segments(values, limit):
        if z is not None:
            seg.insert(0, z)
        x, y, v = _fold(x0, y0, v0, w, seg)
        z = coda(x, y, v, w, s, t)
    return z


# kept only because perfbench/run.py times it (ROADMAP.md, item 2)
def native_mac(key, blocks, limit=MESSAGE_BLOCK_LIMIT):
    """Block-typed front door, bit-identical to the gate-level stream."""
    from .wordcore import Block
    values = (b.value for b in blocks)
    return Block(mac_values(key.J.value, key.K.value, values, limit))
