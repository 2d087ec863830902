"""The integer core against the published vectors and the gate core."""

import random
import struct
from array import array
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maa
from maa import CORES, SEGMENT_BLOCKS, kat, maacore, nativecore
from maa.maacore import Key, MessageLimitError, message_blocks
from maa.wordcore import Block
from test_differential import EDGE_VALUES, _padded_words, _strided

words = st.integers(0, 0xFFFFFFFF)

CORE_MODULES = [kat.core_module(name) for name in CORES]


def _traced_mac(j, k, values):
    """mac_values rebuilt from loop_trace: each segment of the root's
    SEGMENT_BLOCKS, as bound at call time, starts from the prelude, absorbs
    the previous segment's MAC, then runs the coda."""
    x0, y0, v0, w, s, t = nativecore.prelude(j, k)
    z, n = None, maa.SEGMENT_BLOCKS
    for i in range(0, len(values), n):
        head = [] if z is None else [z]
        x, y, v = x0, y0, v0
        for m in head + values[i:i + n] + [s, t]:
            regs = nativecore.loop_trace(x, y, v, w, m, nativecore.TRUE_MASKS)
            x, y, v = regs["Xp"], regs["Yp"], regs["Vp"]
        z = x ^ y
    return z


@pytest.mark.parametrize("length", [1, 2, 255, 256, 257, 512, 513, None])
@given(j=words, k=words, data=st.data())
@settings(max_examples=10, deadline=None)
def test_mac_values_matches_loop_trace_across_segments(length, j, k, data):
    # None draws a random length; a quarter of the blocks are edge words
    n = length or data.draw(st.integers(1, 600))
    rng = data.draw(st.randoms(use_true_random=False))
    values = [rng.choice(EDGE_VALUES) if rng.getrandbits(2) == 0
              else rng.getrandbits(32) for _ in range(n)]
    assert nativecore.mac_values(j, k, values) == _traced_mac(j, k, values)


@pytest.mark.parametrize("n", [1, 2, 3, 29])
def test_cores_agree_at_small_segment_lengths(n, segment_blocks):
    # below 30 blocks a segment, the E words of a first segment do not
    # cover a later one, which carries the chaining word too; messages of
    # 1 to 3n + 2 blocks end in each of the first three segments
    segment_blocks(n)
    rng = random.Random(n)
    for _ in range(100):
        j, k = rng.getrandbits(32), rng.getrandbits(32)
        length = rng.randint(1, 3 * n + 2)
        values = [rng.getrandbits(32) for _ in range(length)]
        want = _traced_mac(j, k, values)
        assert nativecore.mac_values(j, k, values) == want, values
        assert maacore.mac_values(j, k, values) == want, values


def test_native_mac_returns_a_block():
    # perfbench reads .value, which the differential machine's _outcome
    # does not require: it unwraps a Block and passes an int through
    key = Key.from_hex("E6A12F07", "9D15C437")
    values = [(i * 0x9E3779B9) & 0xFFFFFFFF for i in range(300)]
    got = nativecore.native_mac(key, map(Block, values))
    assert type(got) is Block
    assert got.value == nativecore.mac_values(key.J.value, key.K.value,
                                              values)


@pytest.mark.parametrize("count", [255, 256, 257])
@pytest.mark.parametrize("short", [0, 1, 2, 3])
def test_native_mac_folds_message_blocks_as_the_generic_path(count, short):
    # message_blocks' array goes to mac_values as it is; a map of Blocks
    # takes the generic path; both are mac_values on the words read
    payload = random.Random(count + short).randbytes(4 * count - short)
    key = Key.from_hex("E6A12F07", "9D15C437")
    want = nativecore.mac_values(key.J.value, key.K.value,
                                 maa.words((payload,)))
    blocks = message_blocks(payload)
    assert type(blocks.values) is array and len(blocks) == count
    for given in (blocks, map(Block, maa.words((payload,)))):
        got = nativecore.native_mac(key, given)
        assert type(got) is Block and got.value == want


def test_native_mac_refuses_an_over_limit_array_before_any_fold(spy):
    key = Key.from_hex("00000001", "00000002")
    calls = spy(nativecore, "_fold")
    # positive control: the patch sees the work of an accepted message
    nativecore.native_mac(key, message_blocks(bytes(4 * 300)), limit=300)
    assert calls
    calls.clear()
    with pytest.raises(MessageLimitError):
        nativecore.native_mac(key, message_blocks(bytes(4 * 300 + 1)),
                              limit=300)
    assert calls == []


class _Listed(list):
    """Blocks whose values attribute is not message_blocks' array."""


@pytest.mark.parametrize("values", [[5, 6], array("L", [5, 6]),
                                    type("Sub", (array,), {})("I", [5, 6])],
                         ids=["list", "array-L", "array-subclass"])
def test_native_mac_reads_other_values_through_the_blocks(values):
    # only an array("I") itself is taken as the words; anything else is
    # read block by block, whatever its values attribute holds
    blocks = _Listed([Block(1), Block(2), Block(3)])
    blocks.values = values
    key = Key.from_hex("00000001", "00000002")
    assert nativecore.native_mac(key, blocks).value == \
        nativecore.mac_values(1, 2, [1, 2, 3])


def test_bool_is_a_word_on_both_cores():
    # bool is an int: True is the word 1
    for core in CORE_MODULES:
        assert core.mac_values(True, 2, [True, 0]) == \
            nativecore.mac_values(1, 2, [1, 0])


def test_words_reads_a_chunk_longer_than_one_run():
    # words reads a long chunk maa._RUN_BYTES at a time: every word of
    # every run, the runs' ends and the tail included, whole or strided
    data = random.Random(29).randbytes(2 * maa._RUN_BYTES + 7)
    for buf in (data, _strided(data)):
        assert list(maa.words([buf])) == _padded_words(data)


def test_words_on_a_big_endian_host(monkeypatch):
    # a big-endian host's array("I") holds each word in the message's own
    # byte order, so words must not swap it: bound to a stand-in of that
    # host, words gives what this host's native order reads
    monkeypatch.setattr(maa, "sys", SimpleNamespace(byteorder="big"))
    data = bytes(range(1, 12))
    native = [w for (w,) in struct.iter_unpack("=I", data[:8])]
    assert list(maa.words([data[:5], data[5:]])) == \
        native + [0x090A0B00]


def _on_both_cores(limits):
    """(core, limit) cases; in this module the native core's ids are the
    bare limits, the gate core's carry its name."""
    return [pytest.param(core, limit, id=str(limit) if core is nativecore
                         else f"{name}-{limit}")
            for name, core in zip(CORES, CORE_MODULES) for limit in limits]


@pytest.mark.parametrize("core, limit",
                         _on_both_cores([1, 255, 256, 257, 513]))
def test_streamed_limit_is_exact(core, limit):
    payload = bytes(range(251)) * (4 * limit // 251 + 1)

    def chunks(n):
        return (payload[i:min(i + 1000, n)] for i in range(0, n, 1000))

    want = nativecore.mac_values(
        1, 2, [b.value for b in message_blocks(payload[:4 * limit - 1])])
    assert core.mac_values(1, 2, maa.words(chunks(4 * limit - 1)),
                           limit=limit) == want
    with pytest.raises(MessageLimitError):
        core.mac_values(1, 2, maa.words(chunks(4 * limit + 1)), limit=limit)


@pytest.mark.parametrize("core, limit", _on_both_cores([1, 256, 300]))
def test_limit_stops_reading_an_endless_stream(core, limit):
    chunk = 1001
    bound = 4 * (limit + SEGMENT_BLOCKS) + chunk
    pulled = 0

    def endless():
        # ends only well past the bound, so a path that ignores the
        # limit returns a MAC instead of raising
        nonlocal pulled
        while pulled < 10 * bound:
            pulled += chunk
            yield bytes(chunk)

    with pytest.raises(MessageLimitError):
        core.mac_values(1, 2, maa.words(endless()), limit=limit)
    assert pulled <= bound


@pytest.mark.parametrize("core", CORE_MODULES, ids=list(CORES))
def test_a_sized_input_over_the_limit_is_refused_before_any_work(
        spy, core):
    # a list or an array is judged by its len before its first segment
    # is read; a block runs in the gate core's main_loop and in the
    # native core's _fold
    calls = spy(core, "main_loop" if core is maacore else "_fold")
    # positive control: the patch sees the work of an accepted message
    core.mac_values(1, 2, [0] * 300, limit=300)
    assert calls
    calls.clear()
    for values in ([0] * 301, array("I", [0] * 301)):
        with pytest.raises(MessageLimitError):
            core.mac_values(1, 2, values, limit=300)
        assert calls == [], type(values)


def _mul1_without_end_around_carry(a, b):
    p = a * b
    return ((p >> 32) + (p & nativecore.MASK32)) & nativecore.MASK32


@pytest.mark.parametrize("name, mutant", [
    ("mul1", _mul1_without_end_around_carry),
    ("mul2", nativecore.mul2a),
    ("SEGMENT_BLOCKS", 255),
    ("SEGMENT_BLOCKS", 257),
    ("byt", lambda a, b: (a, b)),
    # each conditioning mask made neutral: an OR by 0, an AND by all ones
    *[("TRUE_MASKS", nativecore.TRUE_MASKS[:i] + (i % 2 * nativecore.MASK32,)
       + nativecore.TRUE_MASKS[i + 1:]) for i in range(4)],
    # two record names swapped: the ladder's words reach PRELUDE_CHAIN
    # by _CHAIN's order alone
    ("_CHAIN", ("J14", "J12", *nativecore._CHAIN[2:])),
], ids=["mul1-no-carry", "mul2-is-mul2a", "segment-255", "segment-257",
        "byt-identity", "no-fix1-or", "no-fix1-and", "no-fix2-or",
        "no-fix2-and", "chain-names-swapped"])
def test_corpus_catches_one_line_mutants(monkeypatch, name, mutant):
    # the corpus must not pass vacuously: each mutant of the native core
    # has to fail at least one check; the segment length is the package
    # root's, which segments reads
    monkeypatch.setattr(maa if name == "SEGMENT_BLOCKS" else nativecore,
                        name, mutant)
    assert kat.run_suite("ALL", "native").failed > 0
