"""One stateful differential machine for every MAC path of both cores.

Model-based testing, as in QuickCheck (Claessen and Hughes, ICFP 2000).
A message grows under a key and a block limit, pushed through the gate
core's MacStream: a few words at a time, across segment boundaries, past
the limit, as non-words, and ended on 1-3 bytes.  The native core's
mac_values on the words taken is the oracle: for the stream after every
step, for each refusal, and, when the message ends, for every byte path
on its bytes, cut into each buffer kind.  words, which both cores share,
is held to a struct read.
"""

import random
import struct
from array import array
from functools import partial

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

import maa
from maa import MESSAGE_BLOCK_LIMIT, SEGMENT_BLOCKS, maacore, nativecore
from maa.maacore import Key, MacStream
from maa.wordcore import Block

# words at the multiplications' edges, drawn as a quarter of random words
EDGE_VALUES = (0x00000000, 0x00000001, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFE,
               0xFFFFFFFF)


def _padded_words(data):
    """data zero-padded to whole words, unpacked by struct."""
    padded = data + bytes(-len(data) % 4)
    return [w for (w,) in struct.iter_unpack(">I", padded)]


def _strided(chunk):
    """chunk's bytes as every other byte of a buffer twice its size."""
    spread = bytearray(2 * len(chunk))
    spread[::2] = chunk
    return memoryview(spread)[::2]


def _rows_of_two(data):
    """data's bytes in a 2-D view, two to a row; b"" cannot be cast."""
    return memoryview(data).cast("B", (len(data) // 2, 2)) if data else data


def _in_items(make, size):
    """Each chunk as size-byte items, then its leftover bytes, if any."""
    def convert(chunk):
        cut = len(chunk) - len(chunk) % size
        return [make(chunk[:cut]), chunk[cut:]][:1 + (cut < len(chunk))]
    return convert


# each chunk as one or more buffers whose bytes, in order, are the chunk's
_BUFFERS = {
    "bytes": lambda chunk: [bytes(chunk)],
    "bytearray": lambda chunk: [bytearray(chunk)],
    "array-I": _in_items(partial(array, "I"), 4),
    "array-H": _in_items(partial(array, "H"), 2),
    "strided": lambda chunk: [_strided(chunk)],
    "2-D": _in_items(_rows_of_two, 2),
}

WORDS = st.one_of(st.sampled_from(EDGE_VALUES), st.integers(0, 2**32 - 1))
# a key, its block limit, the 0-3 bytes that end its message, its cuts
KEYS = dict(j=WORDS, k=WORDS, tail=st.binary(max_size=3),
            limit=st.sampled_from((1, 2, 255, 256, 257, 300,
                                   MESSAGE_BLOCK_LIMIT)),
            cuts=st.lists(st.integers(0, 4096), max_size=4))
SEEDS = st.integers(0, 2**32 - 1)


def _outcome(call, *args):
    """call's result, or its ValueError's type and text less the span of a
    range refusal: push checks one word, mac_values a whole segment."""
    try:
        got = call(*args)
    except ValueError as e:
        return type(e), str(e).partition(", got")[0]
    return got.value if isinstance(got, Block) else got


class DifferentialMachine(RuleBasedStateMachine):

    @initialize(**KEYS)
    def first_key(self, **key):
        self._start(**key)

    @rule(**KEYS)
    def new_key(self, **key):
        self._end_message()
        self._start(**key)

    def _start(self, j, k, limit, tail, cuts):
        self.j, self.k, self.limit = j, k, limit
        self.tail, self.cuts, self.values = tail, cuts, []
        self.key = Key(Block(j), Block(k))
        self.stream = MacStream(self.key, limit)
        self.prelude = nativecore.prelude(j, k)
        assert tuple(b.value for b in self.stream.prelude) == self.prelude

    def _mac_values(self, core, values):
        return _outcome(core.mac_values, self.j, self.k, values, self.limit)

    def _push(self, value):
        """Push value; True if the stream took it, else check the refusal."""
        got = _outcome(self.stream.push, Block(value))
        if isinstance(got[0], Block):  # the registers after the block
            self.regs = [r.value for r in got]
            self.values.append(value)
            return True
        words = self.values + [value]
        assert got == self._mac_values(nativecore, words) == \
            self._mac_values(maacore, words)
        self.stream_macs_as_the_native_core()
        return False

    def _push_random(self, seed, n):
        rng = random.Random(seed)
        self.push_words(rng.choice(EDGE_VALUES) if rng.getrandbits(2) == 0
                        else rng.getrandbits(32) for _ in range(n))

    @rule(values=st.lists(WORDS, min_size=1, max_size=8))
    def push_words(self, values):
        """Push values up to the first that the stream refuses."""
        for value in values:
            if not self._push(value):
                return

    @precondition(lambda self: len(self.values) <= SEGMENT_BLOCKS)
    @rule(offset=st.sampled_from((-1, 0, 1)), seed=SEEDS)
    def jump_to_a_boundary(self, offset, seed):
        n = len(self.values)
        self._push_random(seed, SEGMENT_BLOCKS - n % SEGMENT_BLOCKS + offset)

    @precondition(lambda self: self.limit - len(self.values)
                  < 2 * SEGMENT_BLOCKS)
    @rule(seed=SEEDS)
    def push_past_the_limit(self, seed):
        self._push_random(seed, self.limit - len(self.values) + 1)

    @rule(value=st.sampled_from((2**32, -1, 1.5, "a")))
    def push_a_non_word(self, value):
        self._push(value)

    @invariant()
    def stream_macs_as_the_native_core(self):
        mac = _outcome(self.stream.mac)
        assert mac == self._mac_values(nativecore, self.values)
        if self.values:
            assert nativecore.coda(*self.regs, *self.prelude[3:]) == mac

    def _end_message(self):
        # the last step: a word of the 1-3 tail bytes, zero-padded, which
        # a message at its limit refuses, ending on whole words
        if self.tail and not self._push(
                int.from_bytes(self.tail.ljust(4, b"\0"), "big")):
            self.tail = b""
        self.stream_macs_as_the_native_core()
        data = b"".join(v.to_bytes(4, "big") for v in self.values)
        data = data[:-4] + self.tail if self.tail else data
        assert _padded_words(data) == self.values
        # every byte path gives the native MAC of the words, or refuses alike
        key, limit, values = self.key, self.limit, self.values
        want = self._mac_values(nativecore, values)
        cuts = sorted(c % (len(data) + 1) for c in self.cuts)
        chunks = [data[a:b] for a, b in zip([0, *cuts], [*cuts, len(data)])]
        assert self._mac_values(maacore, maa.words(chunks)) == want
        assert _outcome(maacore.mac_blocks, key, map(Block, values),
                        limit) == want
        assert _outcome(maacore.mac_message, key, _strided(data),
                        limit) == want
        assert _outcome(nativecore.native_mac, key, map(Block, values),
                        limit) == want
        for kind, convert in _BUFFERS.items():
            for split in ([data], chunks):
                buffers = [b for chunk in split for b in convert(chunk)]
                assert list(maa.words(buffers)) == values, kind
                assert self._mac_values(nativecore, maa.words(buffers)) == want
        if len(values) == limit:  # one block more, refused as push refuses it
            over = values + [0]
            assert _outcome(maacore.mac_blocks, key, map(Block, over),
                            limit) == self._mac_values(nativecore, over)

    def teardown(self):
        self._end_message()


DifferentialMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=10, derandomize=True, deadline=None)
TestDifferential = DifferentialMachine.TestCase
