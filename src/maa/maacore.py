"""The three MAA phases and the streaming per-block MAC state machine.

A 64-bit key (J, K) is expanded by the prelude into six words: starting
values X0, Y0, V0, a per-block constant W, and two coda words S, T.  A Key
keeps its six from its first stream on; prelude keeps nothing, so every int
entry runs the gate ops as they are bound at call time.  The main loop
consumes one message block per step, updating X, Y and a rotating V under
the conditioning masks TRUE_MASKS, which it reads on each call, so one
rebinding reaches every path.  The coda runs the main loop twice more, on S
then T; the MAC is XOR(X, Y).  main_loop runs its X and Y halves as two
lanes, _LANE bits apart, of each word; loop_trace, the op-by-op composition
of maaops' ops, is its reference and returns every intermediate.

The phases take and return words as wordcore's host ints.  Block is the
type of the public names only: Key, message_blocks, MacStream (its
prelude, push() and mac()), mac_blocks and mac_message.  mac_values is
the gate core's int entry, with nativecore.mac_values's signature and
refusals, so the corpus runner runs this module as it runs nativecore.
It and mac_message feed MacStream's int step whole segments that the
root's segments has checked, with no Block and no push; MacStream
restarts the registers at every segment, cycle by cycle.  Bytes become
words only in the root's words: mac_message reads its payload there,
and message_blocks is its Block face.

The input boundary and the errors of a refused message are the package
root's, shared with nativecore; this core imports nothing of the other.
"""

from dataclasses import dataclass
from functools import cached_property

from . import EmptyMessageError, MessageLimitError, SEGMENT_BLOCKS, check_key
from . import LIMIT_BELOW_ONE, MESSAGE_BLOCK_LIMIT, _check_words, segments
from . import words
from .wordcore import MASK32, Block, add_block, adder, multiplier
from .maaops import byt, cyc, mul1, mul2, mul2a, pat, q


@dataclass(frozen=True)
class Key:
    """The 64-bit key as two blocks.  Through BYT, J feeds X0, V0 and S,
    K feeds Y0, W and T; the halves are read once, by the first stream."""
    J: Block
    K: Block

    def __post_init__(self):
        if not (isinstance(self.J, Block) and isinstance(self.K, Block)):
            raise TypeError("key halves must be Blocks; use Key.from_hex "
                            "or Block.from_int")

    @classmethod
    def from_hex(cls, j, k):
        return cls(Block.from_hex(j), Block.from_hex(k))

    @cached_property
    def _expanded(self):
        return prelude(self.J.value, self.K.value)


# (or1, and1, or2, and2): OR then AND ahead of MUL1 and MUL2A, so that no
# multiplier operand collapses; the vector tables substitute small ones.
TRUE_MASKS = (0x02040801, 0xBFEF7FDF, 0x00804021, 0x7DFEFBFF)
# main_loop's lane Y lies this far above lane X: one 64-bit product
_LANE = 64


def power_chain(j1, k1, p):
    """The prelude's multiplicative core, from adjusted key halves, which
    the vector tables also drive with hand-picked J1/K1/P.  Its record,
    built as it is computed and keyed as nativecore's, holds the MUL1/MUL2
    power ladders J1n/J2n of J1 (n = 2, 4, 6, 8) and K1n/K2n of K1 (n = 2,
    4, 5, 7, 9), and the H words that combine them pairwise, H5 with Q(P).
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


def prelude(j, k):
    """Expand the key halves J, K into (X0, Y0, V0, W, S, T).  The pattern
    octet P comes from the raw halves, the ladders from byte-adjusted ones.
    """
    check_key(j, k)
    j1, k1 = byt(j, k)
    im = power_chain(j1, k1, pat(j, k))
    x0, y0 = byt(im["H4"], im["H5"])
    v0, w = byt(im["H6"], im["H7"])
    s, t = byt(im["H8"], im["H9"])
    return x0, y0, v0, w, s, t


def main_loop(x, y, v, w, block):
    """loop_trace's Xp, Yp, Vp under TRUE_MASKS, two lanes at once: F and G
    from one add, both products from one multiplier call, two folding adds."""
    or1, and1, or2, and2 = TRUE_MASKS
    vp = cyc(v)
    e = vp ^ w
    xm, ym = x ^ block, y ^ block
    lanes, wide = MASK32 | MASK32 << _LANE, _LANE << 1
    fg = (adder(ym | xm << _LANE, e | e << _LANE, 0, wide)[1]
          | or1 | or2 << _LANE) & (and1 | and2 << _LANE)
    p = multiplier(xm, fg & MASK32, 32, ym << _LANE, fg >> _LANE)
    s = adder(p >> 32 & MASK32 | p >> 31 & 0xFFFFFFFE << _LANE, p & lanes,
              0, wide)[1]
    s = adder(s & lanes, s >> 32 & 1 | s >> 31 & 2 << _LANE, 0, wide)[1]
    return s & MASK32, s >> _LANE & MASK32, vp


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
        self._pre = key._expanded
        self.prelude = tuple(map(Block, self._pre))
        self._regs = self._pre[:3]
        self.total_blocks = 0

    def push(self, block):
        if not isinstance(block, Block):
            raise TypeError(f"expected a Block, got {type(block).__name__}")
        if self.total_blocks >= self.limit:
            raise MessageLimitError(self.limit)
        _check_words((block.value,))
        self._absorb((block.value,))
        return tuple(map(Block, self._regs))

    def _absorb(self, values):
        """Absorb checked ints; a segment's coda waits for the next block."""
        x0, y0, v0, w, s, t = self._pre
        (x, y, v), n = self._regs, self.total_blocks
        for value in values:
            if n and n % SEGMENT_BLOCKS == 0:
                x, y, v = main_loop(x0, y0, v0, w, coda(x, y, v, w, s, t))
            x, y, v = main_loop(x, y, v, w, value)
            n += 1
        self._regs, self.total_blocks = (x, y, v), n

    def mac(self):
        """MAC of all blocks pushed so far."""
        if self.total_blocks == 0:
            raise EmptyMessageError()
        _, _, _, w, s, t = self._pre
        return Block(coda(*self._regs, w, s, t))


def mac_blocks(key, blocks, limit=MESSAGE_BLOCK_LIMIT):
    """MAC of a block sequence, pushed one Block at a time."""
    stream = MacStream(key, limit)
    for b in blocks:
        stream.push(b)
    return stream.mac()


def mac_values(j, k, values, limit=MESSAGE_BLOCK_LIMIT):
    """The gate core's int entry; segments checks each word, once."""
    stream = MacStream(Key(Block(j), Block(k)), limit)
    for seg in segments(values, limit):
        stream._absorb(seg)
    return stream.mac().value


def message_blocks(payload):
    """A bytes-like payload's words, as the root's words reads them, each
    in a Block; an empty payload raises EmptyMessageError."""
    blocks = list(map(Block, words((payload,))))
    if not blocks:
        raise EmptyMessageError()
    return blocks


def mac_message(key, payload, limit=MESSAGE_BLOCK_LIMIT):
    """MAC of a bytes-like payload; one over the limit fails before work."""
    if limit < 1:
        raise ValueError(LIMIT_BELOW_ONE)
    size = memoryview(payload).nbytes
    if limit < (size + 3) // 4:
        raise MessageLimitError(limit)
    if not size:
        raise EmptyMessageError()
    stream = MacStream(key, limit)
    for seg in segments(words((payload,)), limit):
        stream._absorb(seg)
    return stream.mac()
