"""The three MAA phases and the streaming per-block MAC state machine.

A 64-bit key (J, K) is expanded by the prelude into six blocks: starting
values X0, Y0, V0, a per-block constant W, and two coda blocks S, T.  The
last key's six are kept, as a message or a trace uses one key; code that
rebinds a gate op at run time must call prelude.cache_clear().  The main
loop consumes one message block per step, updating X, Y and a rotating V.
The coda runs the main loop twice more, on S then T; the MAC is XOR(X, Y).

Messages longer than 256 blocks are processed in segments: the MAC of
each segment is fed as the leading block of the next one, restarting the
registers from their prelude values, and the last segment's result is
the overall MAC.  MacStream reproduces this cycle by cycle.
"""

import struct
from dataclasses import dataclass
from functools import lru_cache

from .wordcore import (
    _OCTETS, Block, add_block, and_block, or_block, xor_block,
)
from .maaops import (
    FIX1_AND_MASK, FIX1_OR_MASK, FIX2_AND_MASK, FIX2_OR_MASK,
    byt, cyc, mul1, mul2, mul2a, pat, q,
)

# ISO's bound on message length, in 32-bit blocks.  Not inherent to the
# algorithm, so callers may raise or lower it per stream.
MESSAGE_BLOCK_LIMIT = 1_000_000

SEGMENT_BLOCKS = 256


class EmptyMessageError(ValueError):
    """The MAC of a zero-block message is undefined; we reject it."""

    def __str__(self):
        return "the MAC of an empty message is undefined"


class MessageLimitError(ValueError):
    """MessageLimitError(limit): the message has more blocks than limit."""

    def __str__(self):
        return (f"message exceeds the {self.args[0]}-block limit "
                f"(ISO 8731-2 default is {MESSAGE_BLOCK_LIMIT})")


@dataclass(frozen=True)
class Key:
    """The 64-bit key as two blocks.  J seeds X/Y, K seeds V/W/S/T."""
    J: Block
    K: Block

    def __post_init__(self):
        if not (isinstance(self.J, Block) and isinstance(self.K, Block)):
            raise TypeError("key halves must be Blocks; use Key.from_hex "
                            "or Block.from_int")

    @classmethod
    def from_hex(cls, j, k):
        return cls(Block.from_hex(j), Block.from_hex(k))


# (or1, and1, or2, and2): the OR/AND masks ahead of the two multiplications.
# loop_trace takes substitutes, since the vector tables use small ones.
TRUE_MASKS = (FIX1_OR_MASK, FIX1_AND_MASK, FIX2_OR_MASK, FIX2_AND_MASK)


def power_chain(j1, k1, p):
    """The prelude's multiplicative core, from adjusted key halves.

    Raises J1 and K1 through both multiplier ladders and combines the
    powers into the H blocks.  Split out from prelude() because the
    vector tables drive it with hand-picked J1/K1/P directly.

    Returns every intermediate by name, keyed as nativecore.power_chain
    keys them: J1/K1 are the byte-adjusted key halves and P the pattern
    octet of the raw key, J1n/J2n the MUL1/MUL2 power ladders of J1
    (exponents 2, 4, 6, 8), K1n/K2n those of K1 (exponents 2, 4, 5, 7,
    9), and the H blocks combine them pairwise before the final byte
    adjustment.
    """
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
    h4 = xor_block(j14, j24)
    h6 = xor_block(j16, j26)
    h8 = xor_block(j18, j28)
    h0 = xor_block(k15, k25)
    h5 = mul2(h0, q(p))
    h7 = xor_block(k17, k27)
    h9 = xor_block(k19, k29)
    return dict(
        J1=j1, K1=k1, P=p,
        J12=j12, J14=j14, J16=j16, J18=j18,
        J22=j22, J24=j24, J26=j26, J28=j28,
        K12=k12, K14=k14, K15=k15, K17=k17, K19=k19,
        K22=k22, K24=k24, K25=k25, K27=k27, K29=k29,
        H0=h0, H4=h4, H5=h5, H6=h6, H7=h7, H8=h8, H9=h9,
    )


@lru_cache(maxsize=1)
def prelude(key):
    """Expand the key into (X0, Y0, V0, W, S, T).

    The pattern octet P comes from the raw key blocks; the power ladders
    run on the byte-adjusted ones.
    """
    j1, k1 = byt(key.J, key.K)
    p = pat(key.J, key.K)
    im = power_chain(j1, k1, p)
    x0, y0 = byt(im["H4"], im["H5"])
    v0, w = byt(im["H6"], im["H7"])
    s, t = byt(im["H8"], im["H9"])
    return x0, y0, v0, w, s, t


def main_loop(x, y, v, w, block):
    """One iteration: the new registers (Xp, Yp, Vp) of loop_trace."""
    tr = _loop(x, y, v, w, block, TRUE_MASKS)
    return tr["Xp"], tr["Yp"], tr["Vp"]


def loop_trace(x, y, v, w, block, masks=TRUE_MASKS):
    """One main-loop iteration with every intermediate exposed.

    The main loop's arithmetic, decomposed to the granularity of the
    published tables, with the conditioning masks (or1, and1, or2, and2)
    substitutable.  The trailing Z is simply XOR(Xp, Yp).  Keyed as
    nativecore.loop_trace keys its result.
    """
    tr = _loop(x, y, v, w, block, masks)
    return {**tr, "Z": xor_block(tr["Xp"], tr["Yp"])}


def _loop(x, y, v, w, block, masks):
    # the body of both; Z is left to loop_trace, since computing it in
    # main_loop would only grow xor_octet's memo table on every block
    or1, and1, or2, and2 = masks
    vp = cyc(v)
    e = xor_block(vp, w)
    xm = xor_block(x, block)
    ym = xor_block(y, block)
    f = add_block(e, ym)
    g = add_block(e, xm)
    fp = or_block(f, or1)
    gp = or_block(g, or2)
    fpp = and_block(fp, and1)
    gpp = and_block(gp, and2)
    xp = mul1(xm, fpp)
    yp = mul2a(ym, gpp)
    return dict(Vp=vp, E=e, X=xm, Y=ym, F=f, G=g, Fp=fp, Gp=gp,
                Fpp=fpp, Gpp=gpp, Xp=xp, Yp=yp)


def coda(x, y, v, w, s, t):
    """Finalize: two more main-loop iterations on S then T, MAC = XOR(X, Y)."""
    x1, y1, v1 = main_loop(x, y, v, w, s)
    x2, y2, _ = main_loop(x1, y1, v1, w, t)
    return xor_block(x2, y2)


class MacStream:
    """Per-block MAC computation with the segmented mode of operation.

    The stream is the synchronous node of the algorithm: its state is the
    prelude, the registers (x, y, v) and the count of blocks pushed.
    push() absorbs one block and returns the registers; mac() is the MAC
    of everything pushed so far.  At every nonzero multiple of
    SEGMENT_BLOCKS a new segment starts: the registers restart from
    (X0, Y0, V0) and absorb the previous segment's MAC before the block.
    The key is consulted only at construction.
    """

    def __init__(self, key, limit=MESSAGE_BLOCK_LIMIT):
        if limit < 1:
            raise ValueError("block limit must be at least 1")
        self.limit = limit
        self.prelude = prelude(key)
        self._regs = self.prelude[:3]
        self.total_blocks = 0

    def push(self, block):
        if not isinstance(block, Block):
            raise TypeError(f"expected a Block, got {type(block).__name__}")
        if self.total_blocks >= self.limit:
            raise MessageLimitError(self.limit)
        x0, y0, v0, w, _, _ = self.prelude
        if self.total_blocks and self.total_blocks % SEGMENT_BLOCKS == 0:
            self._regs = main_loop(x0, y0, v0, w, self.mac())
        self._regs = main_loop(*self._regs, w, block)
        self.total_blocks += 1
        return self._regs

    def mac(self):
        """MAC of all blocks pushed so far."""
        if self.total_blocks == 0:
            raise EmptyMessageError()
        _, _, _, w, s, t = self.prelude
        return coda(*self._regs, w, s, t)


def mac_blocks(key, blocks, limit=MESSAGE_BLOCK_LIMIT):
    """MAC of a block sequence."""
    stream = MacStream(key, limit)
    for b in blocks:
        stream.push(b)
    return stream.mac()


def message_blocks(payload):
    """Split bytes into blocks: zero-pad to a multiple of 4, group
    big-endian."""
    if not payload:
        raise EmptyMessageError()
    padded = bytes(payload) + b"\x00" * (-len(payload) % 4)
    o = _OCTETS
    return [Block(o[a], o[b], o[c], o[d])
            for a, b, c, d in struct.iter_unpack("4B", padded)]


def mac_message(key, payload, limit=MESSAGE_BLOCK_LIMIT):
    """MAC of a byte string; one over the limit fails before any work."""
    if 0 < limit < (len(payload) + 3) // 4:
        raise MessageLimitError(limit)
    return mac_blocks(key, message_blocks(payload), limit)
