"""The package root: the boundary both cores share, the public names it
resolves on first use, what each module loads of the package, and every
refusal of the library's public entries, word for word."""

import subprocess
import sys
from functools import partial

import pytest

import maa
from maa import CORES, kat, maacore, nativecore, wordcore
from maa.maacore import (
    EmptyMessageError, Key, MacStream, MessageLimitError, mac_blocks,
    mac_message, message_blocks,
)
from maa.wordcore import Block, adder, multiplier

PUBLIC = ["Block", "EmptyMessageError", "Key", "MESSAGE_BLOCK_LIMIT",
          "MacStream", "MessageLimitError", "SEGMENT_BLOCKS", "mac_blocks",
          "mac_message", "message_blocks", "run_suite", "words"]

# The maa modules that importing each one loads.  Neither core loads the
# other, and the command line loads no core until a command asks for one.
LOADS = {
    "maa": {"maa"},
    "maa.wordcore": {"maa", "maa.wordcore"},
    "maa.maaops": {"maa", "maa.wordcore", "maa.maaops"},
    "maa.maacore": {"maa", "maa.wordcore", "maa.maaops", "maa.maacore"},
    "maa.nativecore": {"maa", "maa.nativecore"},
    "maa.kat": {"maa", "maa.kat"},
    "maa.cli": {"maa", "maa.cli"},
}


@pytest.mark.parametrize("module", sorted(LOADS))
def test_each_module_imports_on_its_own(module, child_env):
    code = (f"import sys, {module}\n"
            "print(*[m for m in sys.modules if m.split('.')[0] == 'maa'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == LOADS[module]


def test_public_names_resolve_to_their_modules():
    assert maa.__all__ == PUBLIC
    homes = {"Block": [wordcore], "run_suite": [kat], "words": [maa],
             "SEGMENT_BLOCKS": [maa]}
    for name in PUBLIC:
        for module in homes.get(name, [maacore]):
            assert getattr(maa, name) is getattr(module, name), name
    namespace = {}
    exec("from maa import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)
    with pytest.raises(ImportError):
        exec("from maa import nope", {})


@pytest.mark.parametrize("name", sorted(maa._LAZY))
def test_a_resolved_name_is_kept_at_the_root(monkeypatch, name):
    # __getattr__ runs once per name: the first access stores it
    monkeypatch.delitem(vars(maa), name, raising=False)
    value = getattr(maa, name)
    assert vars(maa)[name] is value


def test_both_cores_share_the_boundary():
    # both cores read, check and refuse input through the root's names
    for name in ("LIMIT_BELOW_ONE", "MESSAGE_BLOCK_LIMIT", "check_key",
                 "segments"):
        assert getattr(maa, name) is getattr(maacore, name) \
            is getattr(nativecore, name), name
    assert not hasattr(nativecore, "words")


KEY = Key.from_hex("80018001", "80018000")
BIG = Key(Block(2**40), Block(2))  # a Key whose J is no word

# (error type, exact text), shared by rows; each a literal, not the package's
LIMIT = ValueError, "block limit must be at least 1"
BIG_KEY = ValueError, "key halves must be 32-bit words, got 0x2 to " \
    "0x10000000000"
NOT_INT = ValueError, "key halves and block values must be ints"
MINUS_1 = ValueError, "block values must be 32-bit words, got -0x1 to -0x1"
EMPTY = EmptyMessageError, "the MAC of an empty message is undefined"
OVER_1, OVER_2, OVER_3 = ((MessageLimitError, f"message exceeds the {n}-"
                           "block limit (ISO 8731-2 default is 1000000)")
                          for n in (1, 2, 3))
NOT_KEY = TypeError, "expected a Key, got NoneType"
NOT_BLOCK = TypeError, "expected a Block, got int"
HALVES = TypeError, "key halves must be Blocks; use Key.from_hex or " \
    "Block.from_int"
ADDER = ValueError, "adder operands must not be negative"
SELECTOR = ValueError, "multiplier selectors must not be negative"


def _unread():  # blocks that fail the row if one of them is read
    raise AssertionError("a block was read")
    yield


# (id, call, error type, exact text), the call run on each core's module.
# A row with two faults pins which comes first: a limit below one, then
# the key, then the size, then type and range, segment by segment
EACH_CORE = [
    ("limit", lambda c: c.mac_values(1, 2, _unread(), 0), *LIMIT),
    ("limit-before-key", lambda c: c.mac_values(2**40, 2, _unread(), -3),
     *LIMIT),
    ("key-before-size", lambda c: c.mac_values(2**40, 2, [-1] * 4, 3),
     *BIG_KEY),
    ("key-before-empty", lambda c: c.mac_values(2**40, 2, []), *BIG_KEY),
    ("key-k-float", lambda c: c.mac_values(1, 2.0, [5]), *NOT_INT),
    ("size-before-range", lambda c: c.mac_values(1, 2, [-1] * 4, 3), *OVER_3),
    ("size-before-range-in-a-segment",
     lambda c: c.mac_values(1, 2, iter([0, 0, -1]), 2), *OVER_2),
    ("range", lambda c: c.mac_values(1, 2, [2**40, -5]), ValueError,
     "block values must be 32-bit words, got -0x5 to 0x10000000000"),
    ("range-second-segment", lambda c: c.mac_values(1, 2, [0] * 300 + [2**32]),
     ValueError, "block values must be 32-bit words, got 0x0 to 0x100000000"),
    ("range-and-float", lambda c: c.mac_values(1, 2, [2**40, 1.5]), *NOT_INT),
    ("empty", lambda c: c.mac_values(1, 2, []), *EMPTY),
    ("prelude-key", lambda c: c.prelude(2**40, 2), *BIG_KEY),
    ("prelude-key-float", lambda c: c.prelude(1.0, 2), *NOT_INT),
]

# (id, call, error type, exact text) for an entry of one module; push
# checks the block's type, then the limit, then its word
ONE_MODULE = [
    ("stream-limit-before-key", lambda: MacStream(None, 0), *LIMIT),
    ("stream-key", lambda: MacStream(None), *NOT_KEY),
    ("stream-key-range", lambda: MacStream(BIG), *BIG_KEY),
    ("push-int", lambda: MacStream(KEY).push(1), *NOT_BLOCK),
    ("push-range", lambda: MacStream(KEY).push(Block(-1)), *MINUS_1),
    ("push-float", lambda: MacStream(KEY).push(Block(1.5)), *NOT_INT),
    ("mac-empty", lambda: MacStream(KEY).mac(), *EMPTY),
    ("blocks-limit", lambda: mac_blocks(KEY, _unread(), 0), *LIMIT),
    ("blocks-key", lambda: mac_blocks(None, [Block(1)]), *NOT_KEY),
    ("push-type-before-limit", lambda: mac_blocks(KEY, [Block(0), 1], 1),
     *NOT_BLOCK),
    ("push-limit-before-range",
     lambda: mac_blocks(KEY, [Block(0), Block(-1)], 1), *OVER_1),
    ("message-limit-before-key", lambda: mac_message(None, b"", 0), *LIMIT),
    ("message-key-before-empty", lambda: mac_message(None, b""), *NOT_KEY),
    ("message-key-range-before-size", lambda: mac_message(BIG, bytes(16), 3),
     *BIG_KEY),
    ("message-key-range-before-empty", lambda: mac_message(BIG, b""),
     *BIG_KEY),
    ("message-over", lambda: mac_message(KEY, bytes(13), 3), *OVER_3),
    ("message-empty", lambda: mac_message(KEY, b""), *EMPTY),
    ("message-blocks-empty", lambda: message_blocks(b""), *EMPTY),
    ("key-j", lambda: Key(1, Block(2)), *HALVES),
    ("key-k", lambda: Key(Block(1), 2), *HALVES),
    ("key-from-hex", lambda: Key.from_hex("00FF00FF", "XYZ"), ValueError,
     "expected 8 hex digits, got 'XYZ'"),
    ("key-from-hex-j-first", lambda: Key.from_hex("123", "XYZ"), ValueError,
     "expected 8 hex digits, got '123'"),
    # exactly eight hex digits: no prefix, separator, sign or whitespace
    *((f"from-hex-{id}", partial(Block.from_hex, s), ValueError, text)
      for id, s, text in [
          ("short", "123", "expected 8 hex digits, got '123'"),
          ("long", "123456789", "expected 8 hex digits, got '123456789'"),
          ("letters", "XYZWXYZW", "expected 8 hex digits, got 'XYZWXYZW'"),
          ("0x", "0x00FF00", "expected 8 hex digits, got '0x00FF00'"),
          ("underscores", "00_FF_00", "expected 8 hex digits, got '00_FF_00'"),
          ("plus", "+00FF00F", "expected 8 hex digits, got '+00FF00F'"),
          ("space", " 00FF00F", "expected 8 hex digits, got ' 00FF00F'"),
          ("space-after", "00FF00F ", "expected 8 hex digits, got '00FF00F '"),
          ("newline", "00FF00F\n", "expected 8 hex digits, got '00FF00F\\n'"),
          ("arabic-indic", "\u0660" * 8, "expected 8 hex digits, got "
           "'\u0660\u0660\u0660\u0660\u0660\u0660\u0660\u0660'")]),
    ("from-int-range", lambda: Block.from_int(-1), *MINUS_1),
    ("from-int-str", lambda: Block.from_int("5"), *NOT_INT),
    ("check-key-k", lambda: maa.check_key(0, 2**32), ValueError,
     "key halves must be 32-bit words, got 0x0 to 0x100000000"),
    ("segments-empty", lambda: next(maa.segments(iter([]), 3)), *EMPTY),
    ("segments-limit-before-range",
     lambda: next(maa.segments(iter([0, 0, -1]), 2)), *OVER_2),
    ("root-no-such-name", lambda: maa.nope, AttributeError,
     "module 'maa' has no attribute 'nope'"),
    # a negative operand would spin the adder, or be read by its low bits
    ("adder-a", lambda: adder(-1, 1, 0, 32), *ADDER),
    ("adder-b", lambda: adder(1, -1, 0, 32), *ADDER),
    ("multiplicand", lambda: multiplier(-3, 5, 8), *ADDER),
    ("selector", lambda: multiplier(5, -3, 8), *SELECTOR),
    ("second-selector", lambda: multiplier(1, 1, 32, 1 << 64, -1), *SELECTOR),
    ("suite-before-core", lambda: kat.run_suite("t9", "quantum"), ValueError,
     "unknown suite 'T9'; pick one of T1, T2, T3, T4, ANNEX_E, LONG or ALL"),
    ("suite-int", lambda: kat.run_suite(5), ValueError,
     "unknown suite 5; pick one of T1, T2, T3, T4, ANNEX_E, LONG or ALL"),
    ("core", lambda: kat.run_suite("ALL", "quantum"), ValueError,
     "unknown core 'quantum'; pick one of gate, native, both"),
    ("core-none", lambda: kat.run_suite("ALL", None), ValueError,
     "unknown core None; pick one of gate, native, both"),
]

REFUSALS = [(f"{name}-{id}", partial(call, kat.core_module(name)), *want)
            for id, call, *want in EACH_CORE for name in CORES] + ONE_MODULE


@pytest.mark.parametrize("call, error, text", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_each_refusal_is_exact(call, error, text):
    # the exact type: EmptyMessageError and MessageLimitError are ValueErrors
    with pytest.raises(error) as info:
        call()
    assert (info.type, str(info.value)) == (error, text)
