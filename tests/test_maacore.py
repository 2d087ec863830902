"""Prelude, main loop, segmentation, and the streaming front end."""

import random
import tracemalloc
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maa
from maa import SEGMENT_BLOCKS, maacore, nativecore
from maa.maacore import (
    EmptyMessageError, Key, MacStream, MessageLimitError,
    TRUE_MASKS, coda, loop_trace, mac_message, main_loop,
    message_blocks, power_chain, prelude,
)
from maa.maaops import byt, pat
from maa.wordcore import Block

B = Block.from_hex


def W(hex_word):
    """A word below the public API, where the gate core passes ints."""
    return int(hex_word, 16)

words = st.integers(0, 0xFFFFFFFF)


def test_prelude_degenerate_key():
    j, k = W("00FF00FF"), W("00000000")
    pre = prelude(j, k)
    # the conditioning pattern comes from the key as given, not from
    # the BYT-adjusted J1/K1; on this key the two differ
    j1, k1 = byt(j, k)
    assert pat(j, k) == 0xFF != pat(j1, k1)
    im = power_chain(j1, k1, pat(j, k))
    assert byt(im["H4"], im["H5"]) == pre[:2]
    assert pre == (W("4A645A01"), W("50DEC930"), W("5CCA3239"),
                   W("FECCAA6E"), W("51EDE9C7"), W("24B66FB5"))
    # a stream reports the same six as Blocks
    assert MacStream(Key.from_hex("00FF00FF", "00000000")).prelude == \
        tuple(map(Block, pre))


def test_a_key_expands_once_and_survives_alternating_keys(spy):
    # a Key runs the prelude for its first stream only; alternating keys
    # each keep their own six, and each MAC must still be the native one
    calls = spy(maacore, "prelude")
    rng = random.Random(0xCAC4E)
    payloads = [rng.randbytes(n) for n in (*range(1, 10), 1025)]
    a = Key.from_hex("E6A12F07", "9D15C437")
    b = Key.from_hex("00FF00FF", "00000000")
    for key in (a, b, a, b):
        for payload in payloads:
            assert mac_message(key, payload).value == nativecore.mac_values(
                key.J.value, key.K.value, maa.words([payload]))
    assert calls == [(W("E6A12F07"), W("9D15C437")), (W("00FF00FF"), 0)]
    # a fresh, equal Key expands again, once, to the same six
    again = Key.from_hex("E6A12F07", "9D15C437")
    assert again == a
    assert MacStream(again).prelude == MacStream(again).prelude == \
        MacStream(a).prelude
    assert calls[2:] == [(W("E6A12F07"), W("9D15C437"))]


def test_a_gate_op_bound_on_maacore_reaches_a_key_just_used(monkeypatch):
    # mul2 runs in the prelude only: rebound, it changes the very next
    # int MAC on the same key halves, with nothing to clear
    values = [0x12345678, 0x9ABCDEF0]
    want = maacore.mac_values(0x80018001, 0x80018000, values)
    real = maacore.mul2
    monkeypatch.setattr(maacore, "mul2", lambda a, b: real(a, b) ^ 1)
    assert maacore.mac_values(0x80018001, 0x80018000, values) != want
    monkeypatch.undo()
    assert maacore.mac_values(0x80018001, 0x80018000, values) == want


@given(words, words, words, words, words)
@settings(max_examples=60, deadline=None)
def test_loop_trace_true_masks_is_main_loop(x, y, v, w, m):
    tr = loop_trace(x, y, v, w, m, TRUE_MASKS)
    assert (tr["Xp"], tr["Yp"], tr["Vp"]) == main_loop(x, y, v, w, m)
    assert tr["Z"] == tr["Xp"] ^ tr["Yp"]


def test_two_lane_main_loop_on_edge_words(monkeypatch):
    # the two-lane step against loop_trace's op-by-op composition on a
    # grid of edge words, where the folds carry: X, Y and W (E when V is
    # 0 and the block is 0) take every value, under two (V, block) pairs.
    # main_loop reads TRUE_MASKS on each call; under neutral masks G''
    # reaches bit 31, so MUL2A's doubling carries out too
    rng = random.Random(0x1A7E)
    edges = (0, 1, 2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1,
             *(rng.getrandbits(32) for _ in range(3)))
    carries = Counter()
    for masks in (TRUE_MASKS, (0, 2**32 - 1, 0, 2**32 - 1)):
        monkeypatch.setattr(maacore, "TRUE_MASKS", masks)
        for x in edges:
            for y in edges:
                for w in edges:
                    for v, m in ((0, 0), (2**31, 2**32 - 1)):
                        tr = loop_trace(x, y, v, w, m, masks)
                        want = tr["Xp"], tr["Yp"], tr["Vp"]
                        assert main_loop(x, y, v, w, m) == want, \
                            (masks, x, y, v, w, m)
                        u, l = divmod(tr["X"] * tr["Fpp"], 2**32)
                        carries["X"] += u + l >= 2**32
                        u, l = divmod(tr["Y"] * tr["Gpp"], 2**32)
                        carries["Y"] += (2 * u & 0xFFFFFFFF) + l >= 2**32
                        carries["2u"] += 2 * u >= 2**32
    # positive control: each lane's first fold carries out on the grid,
    # and so does the doubling that MUL2A drops
    assert min(carries.values()) > 100, carries


@given(words, words, words, words, words, words)
@settings(max_examples=40, deadline=None)
def test_coda_is_two_more_iterations(x, y, v, w, s, t):
    x1, y1, v1 = main_loop(x, y, v, w, s)
    x2, y2, _ = main_loop(x1, y1, v1, w, t)
    assert coda(x, y, v, w, s, t) == x2 ^ y2


def test_stream_zero_message_chain():
    key = Key.from_hex("80018001", "80018000")
    stream = MacStream(key)
    zero = Block.from_int(0)
    steps = [stream.push(zero) for _ in range(20)]
    assert steps[0][:2] == (B("303FF4AA"), B("1277A6D4"))
    assert steps[1][:2] == (B("55DD063F"), B("4C49AAE0"))
    assert steps[19][:2] == (B("5EBA06C2"), B("91896CFA"))
    assert stream.mac() == B("DB79FBDC")
    assert stream.mac() == B("DB79FBDC")  # idempotent


def test_message_blocks_pads_with_zero_bytes():
    assert [b.hex() for b in message_blocks(b"\x07\x05\x03\x01\x55")] == \
        ["07050301", "55000000"]
    assert [b.hex() for b in message_blocks(b"\xff")] == ["FF000000"]
    assert [b.hex() for b in message_blocks(b"\x00\x01\x02\x03")] == \
        ["00010203"]
    assert len(message_blocks(bytes(9))) == 3


@pytest.mark.parametrize("size", [*range(1, 10), 1025])
def test_message_blocks_reads_as_a_list_of_blocks(size):
    payload = random.Random(size).randbytes(size)
    want = list(map(Block, maa.words((payload,))))
    blocks = message_blocks(payload)
    assert len(blocks) == len(want) and list(blocks) == want
    assert [blocks[i] for i in range(-len(want), len(want))] == want + want
    for cut in (slice(None), slice(1, None), slice(-2, None), slice(None, -1),
                slice(None, None, -1), slice(1, 5, 2), slice(3, 1)):
        assert blocks[cut] == want[cut], cut
    for i in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            blocks[i]
    # read-only: the words of a message cannot be swapped under a MAC
    with pytest.raises(TypeError):
        blocks[0] = Block(0)


def test_message_blocks_holds_one_array_of_words():
    # a Block per word held 19.96 MiB for one MiB; an array of its words
    # holds one, plus its growth and a run of words in flight
    payload = random.Random(3).randbytes(1 << 20)
    tracemalloc.start()
    try:
        blocks = message_blocks(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blocks) == 1 << 18
    assert peak < 2 << 20, peak


def test_mac_message_refuses_an_over_limit_payload_before_any_work(spy):
    key = Key.from_hex("80018001", "80018000")
    limit = 3
    calls = spy(maacore, "main_loop")
    # positive control: the patch sees the work of an accepted message,
    # one step per block and two in the coda
    mac_message(key, bytes(4 * limit), limit=limit)
    assert len(calls) == limit + 2
    calls.clear()
    with pytest.raises(MessageLimitError):
        mac_message(key, bytes(4 * limit + 1), limit=limit)
    assert calls == []
    # a buffer is judged by its bytes: 300 four-byte items are 300 blocks
    with pytest.raises(MessageLimitError):
        mac_message(key, array("I", [0] * 300), limit=SEGMENT_BLOCKS)
    assert calls == []
    # the block count rounds a short tail up: one byte past a whole
    # segment at a one-segment limit runs no segment
    with pytest.raises(MessageLimitError):
        mac_message(key, bytes(4 * SEGMENT_BLOCKS + 1), limit=SEGMENT_BLOCKS)
    assert calls == []
    with pytest.raises(EmptyMessageError):
        mac_message(key, b"", limit=limit)
    # an empty payload is refused before a fresh key is expanded; the
    # positive control expands one
    preludes = spy(maacore, "prelude")
    mac_message(Key.from_hex("00000001", "00000002"), bytes(4))
    assert len(preludes) == 1
    with pytest.raises(EmptyMessageError):
        mac_message(Key.from_hex("00000003", "00000004"), b"")
    assert len(preludes) == 1


@pytest.mark.parametrize("values, runs", [
    ([0] * 10 + [2**32], 0),
    ([0] * 300 + [2**32], SEGMENT_BLOCKS),
], ids=["first-segment", "second-segment"])
def test_mac_values_checks_a_segment_before_it_runs(spy, values, runs):
    # as nativecore.mac_values does: an out-of-range value stops its
    # segment before any block of it reaches the main loop
    calls = spy(maacore, "main_loop")
    with pytest.raises(ValueError):
        maacore.mac_values(1, 2, values)
    assert len(calls) == runs


def test_mac_values_checks_each_word_once(spy):
    # segments checks each segment as a whole and check_key the key; the
    # stream then absorbs the checked words, with no push and no recheck.
    # mac_message reads its bytes through the same segments, with no
    # message_blocks, and runs each segment's coda once, when the next
    # segment starts or the MAC is read
    rng = random.Random(25)
    payload = rng.randbytes(2400)  # 600 words, three segments
    values = list(maa.words([payload]))
    want = nativecore.mac_values(1, 2, values)
    spied = [(name, spy(owner, name)) for owner, name in (
        (maa, "_check_words"), (maacore, "_check_words"),
        (maacore, "main_loop"), (maacore, "message_blocks"),
        (MacStream, "push"))]
    # one check per segment and one of the key halves in the prelude;
    # mac_message checks the halves once more, before it sizes the
    # payload.  600 steps, a restart and two coda steps at each of two
    # segment starts, and the final coda's two
    for run, checks in ((lambda: maacore.mac_values(1, 2, values), 4),
                        (lambda: mac_message(Key(Block(1), Block(2)),
                                             payload).value, 5)):
        for _, calls in spied:
            calls.clear()
        assert run() == want
        assert Counter(name for name, calls in spied for _ in calls) == \
            {"_check_words": checks, "main_loop": 608}


def test_a_key_is_a_read_only_value_of_its_halves():
    key = Key(Block.from_int(0x00FF00FF), Block.from_int(0))
    same = Key.from_hex("00ff00ff", "00000000")  # either case
    assert key == same and hash(key) == hash(same)
    assert key != Key.from_hex("00FF00FF", "00000001")
    assert key != (key.J, key.K)
    assert repr(key) == "Key(J=Block(00FF00FF), K=Block(00000000))"
    # a cached expansion must never outlive a change of halves
    for half in ("J", "K"):
        with pytest.raises(AttributeError):
            setattr(key, half, Block.from_int(1))
    assert key == same
