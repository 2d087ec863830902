"""The three MAA phases and the streaming per-block MAC state machine.

A 64-bit key (J, K) is expanded by the prelude into six words: starting
values X0, Y0, V0, a per-block constant W, and two coda words S, T.  The
last key's six are kept, as a message or a trace uses one key; code that
rebinds a gate op at run time must call prelude.cache_clear().  The main
loop consumes one message block per step, updating X, Y and a rotating V
under the conditioning masks TRUE_MASKS, which it reads on each call, so
one rebinding reaches every path.  The coda runs the main loop twice
more, on S then T; the MAC is XOR(X, Y).

The phases take and return words as wordcore's host ints.  Block is the
type of the public names only: Key, message_blocks, MacStream (its
prelude, push() and mac()), mac_blocks and mac_message.  mac_values is
the gate core's int entry, with nativecore.mac_values's signature and
refusals, so the corpus runner runs this module as it runs nativecore.

Messages longer than 256 blocks are processed in segments: the MAC of
each segment is fed as the leading block of the next one, restarting the
registers from their prelude values, and the last segment's result is
the overall MAC.  MacStream reproduces this cycle by cycle.

The input boundary and the errors of a refused message are the package
root's, shared with nativecore; this core imports nothing of the other.
"""

import struct
from dataclasses import dataclass
from functools import lru_cache

from . import EmptyMessageError, MessageLimitError, SEGMENT_BLOCKS, check_key
from . import LIMIT_BELOW_ONE, MESSAGE_BLOCK_LIMIT, _check_words, segments
from .wordcore import Block, add_block
from .maaops import byt, cyc, mul1, mul2, mul2a, pat, q


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


# (or1, and1, or2, and2): OR then AND ahead of MUL1 and MUL2A, so that no
# multiplier operand collapses; the vector tables substitute small ones.
TRUE_MASKS = (0x02040801, 0xBFEF7FDF, 0x00804021, 0x7DFEFBFF)


def power_chain(j1, k1, p):
    """The prelude's multiplicative core, from adjusted key halves.

    Raises J1 and K1 through both multiplier ladders and combines the
    powers into the H words.  Split out from prelude() because the
    vector tables drive it with hand-picked J1/K1/P directly.

    The record is built as it is computed, keyed as nativecore's: J1n/J2n
    are the MUL1/MUL2 power ladders of J1 (exponents 2, 4, 6, 8), K1n/K2n
    those of K1 (exponents 2, 4, 5, 7, 9), and the H words combine them
    pairwise before the final byte adjustment, H5 with Q(P).
    """
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


@lru_cache(maxsize=1, typed=True)  # typed: an int key never answers for 1.0
def prelude(j, k):
    """Expand the key halves J, K into (X0, Y0, V0, W, S, T).

    The pattern octet P comes from the raw key halves; the power ladders
    run on the byte-adjusted ones.
    """
    check_key(j, k)
    j1, k1 = byt(j, k)
    im = power_chain(j1, k1, pat(j, k))
    x0, y0 = byt(im["H4"], im["H5"])
    v0, w = byt(im["H6"], im["H7"])
    s, t = byt(im["H8"], im["H9"])
    return x0, y0, v0, w, s, t


def main_loop(x, y, v, w, block):
    """One iteration: the new registers (Xp, Yp, Vp) of loop_trace."""
    tr = loop_trace(x, y, v, w, block, TRUE_MASKS)
    return tr["Xp"], tr["Yp"], tr["Vp"]


def loop_trace(x, y, v, w, block, masks):
    """One main-loop iteration with every intermediate exposed.

    The main loop's arithmetic, decomposed to the granularity of the
    published tables, under the given conditioning masks (or1, and1,
    or2, and2).  The trailing Z is simply XOR(Xp, Yp).  Keyed as
    nativecore.loop_trace keys its result.
    """
    or1, and1, or2, and2 = masks
    vp = cyc(v)
    e = vp ^ w
    xm = x ^ block
    ym = y ^ block
    f = add_block(e, ym)
    g = add_block(e, xm)
    fp = f | or1
    gp = g | or2
    fpp = fp & and1
    gpp = gp & and2
    xp = mul1(xm, fpp)
    yp = mul2a(ym, gpp)
    return {"Vp": vp, "E": e, "X": xm, "Y": ym, "F": f, "G": g,
            "Fp": fp, "Gp": gp, "Fpp": fpp, "Gpp": gpp,
            "Xp": xp, "Yp": yp, "Z": xp ^ yp}


def coda(x, y, v, w, s, t):
    """Finalize: two more main-loop iterations on S then T, MAC = XOR(X, Y)."""
    x1, y1, v1 = main_loop(x, y, v, w, s)
    x2, y2, _ = main_loop(x1, y1, v1, w, t)
    return x2 ^ y2


class MacStream:
    """Per-block MAC computation with the segmented mode of operation.

    The stream is the synchronous node of the algorithm: its state is the
    prelude, the registers (x, y, v) and the count of blocks pushed.
    push() absorbs one block and returns the registers; mac() is the MAC
    of everything pushed so far.  Both, and the prelude attribute, are
    Blocks; the state inside is the core's ints.  At every nonzero
    multiple of SEGMENT_BLOCKS a new segment starts: the registers
    restart from (X0, Y0, V0) and absorb the previous segment's MAC
    before the block.  The key is consulted only at construction.
    """

    def __init__(self, key, limit=MESSAGE_BLOCK_LIMIT):
        if limit < 1:
            raise ValueError(LIMIT_BELOW_ONE)
        if not isinstance(key, Key):
            raise TypeError(f"expected a Key, got {type(key).__name__}")
        self.limit = limit
        self._pre = prelude(key.J.value, key.K.value)
        self.prelude = tuple(map(Block, self._pre))
        self._regs = self._pre[:3]
        self.total_blocks = 0

    def push(self, block):
        if not isinstance(block, Block):
            raise TypeError(f"expected a Block, got {type(block).__name__}")
        if self.total_blocks >= self.limit:
            raise MessageLimitError(self.limit)
        _check_words((block.value,))
        self._step(block.value)
        return tuple(map(Block, self._regs))

    def _step(self, value):
        """Absorb one word that the caller has checked, as ints."""
        x0, y0, v0, w, s, t = self._pre
        if self.total_blocks and self.total_blocks % SEGMENT_BLOCKS == 0:
            self._regs = main_loop(x0, y0, v0, w, coda(*self._regs, w, s, t))
        self._regs = main_loop(*self._regs, w, value)
        self.total_blocks += 1

    def mac(self):
        """MAC of all blocks pushed so far."""
        if self.total_blocks == 0:
            raise EmptyMessageError()
        _, _, _, w, s, t = self._pre
        return Block(coda(*self._regs, w, s, t))


def mac_blocks(key, blocks, limit=MESSAGE_BLOCK_LIMIT):
    """MAC of a block sequence."""
    stream = MacStream(key, limit)
    for b in blocks:
        stream.push(b)
    return stream.mac()


def mac_values(j, k, values, limit=MESSAGE_BLOCK_LIMIT):
    """The gate core's int entry; segments checks each word, once."""
    stream = MacStream(Key(Block(j), Block(k)), limit)
    for seg in segments(values, limit):
        for v in seg:
            stream._step(v)
    return stream.mac().value


def message_blocks(payload):
    """Split bytes into blocks: zero-pad to a multiple of 4, group
    big-endian."""
    if not payload:
        raise EmptyMessageError()
    padded = bytes(payload) + b"\x00" * (-len(payload) % 4)
    return [Block(v) for (v,) in struct.iter_unpack(">I", padded)]


def mac_message(key, payload, limit=MESSAGE_BLOCK_LIMIT):
    """MAC of a byte string; one over the limit fails before any work."""
    if 0 < limit < (len(payload) + 3) // 4:
        raise MessageLimitError(limit)
    return mac_blocks(key, message_blocks(payload), limit)
