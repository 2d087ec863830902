"""Message Authenticator Algorithm (ISO 8731-2) with two cores.

The gate-level core (wordcore + maaops + maacore) builds every word
operation out of bit logic and is the reference; the native core
(nativecore) redoes the whole computation on machine integers.  Both are
validated against the published test vectors via the kat module, and
against each other.

This module holds what the two cores share: the message limits, the
errors of a refused message, the suite and core names, and the input
boundary (words, the package's one reader of bytes, segments and
check_key), through which both cores and the gate core's Block face
refuse a message alike.  A key half or block value must be an int (bool
is one, so True is the word 1) from 0 to 2**32-1, else a ValueError
refuses it before either core sees it.  Every other public name is
imported from its module on first use (PEP 562).
"""

import sys
from array import array
from itertools import islice

__version__ = "0.1.0"

# ISO's bound on message length, in 32-bit blocks.  Not inherent to the
# algorithm, so callers may raise or lower it per stream, down to 1.
MESSAGE_BLOCK_LIMIT = 1_000_000
LIMIT_BELOW_ONE = "block limit must be at least 1"

SEGMENT_BLOCKS = 256

# words holds at most this many bytes of words beyond its chunk, so a
# caller that keeps every word (message_blocks) keeps no second payload
_RUN_BYTES = 64 << 10

NOT_AN_INT = "key halves and block values must be ints"
assert array("I").itemsize == 4, "array('I') must hold 32-bit words"

SUITES = ("T1", "T2", "T3", "T4", "ANNEX_E", "LONG")
CORES = {"gate": "maacore", "native": "nativecore"}  # name: its module


class EmptyMessageError(ValueError):
    """The MAC of a zero-block message is undefined; we reject it."""

    def __str__(self):
        return "the MAC of an empty message is undefined"


class MessageLimitError(ValueError):
    """MessageLimitError(limit): the message has more blocks than limit."""

    def __str__(self):
        return (f"message exceeds the {self.args[0]}-block limit "
                f"(ISO 8731-2 default is {MESSAGE_BLOCK_LIMIT})")


def _check_words(values, what="block values"):
    """Refuse values unless each is an int from 0 to 2**32-1, checked in C
    by array("I"): a non-int with NOT_AN_INT, an int out of range with
    "<what> must be 32-bit words" and the values' span, built only then."""
    try:
        try:
            array("I", values)
        except OverflowError:
            raise ValueError(f"{what} must be 32-bit words, got "
                             f"{hex(min(values))} to {hex(max(values))}"
                             ) from None
    except TypeError:  # from array, or from min/max on a mixed list
        raise ValueError(NOT_AN_INT) from None


def check_key(j, k):
    _check_words((j, k), "key halves")


def words(chunks):
    """Big-endian 32-bit words of any bytes-like chunks of any size, each
    read by its bytes (one that is not C-contiguous is copied first), a
    run of up to _RUN_BYTES at a time through one array("I"), byteswapped
    on a little-endian host.  Up to three bytes carry over into the next
    chunk, and a short tail is zero-padded on the right."""
    carry = b""
    for chunk in chunks:
        view = memoryview(chunk)
        if carry or not view.c_contiguous:
            view = memoryview(carry + view.tobytes())
        view = view.cast("B")
        cut = len(view) - len(view) % 4
        i = 0
        while i < cut:
            run = array("I", view[i:min(i + _RUN_BYTES, cut)].tobytes())
            if sys.byteorder == "little":
                run.byteswap()
            yield from run
            i += _RUN_BYTES
        carry = view[cut:].tobytes()
    if carry:
        yield int.from_bytes(carry.ljust(4, b"\0"), "big")


def segments(values, limit):
    """Block values as lists of up to SEGMENT_BLOCKS, each checked as a
    whole before it is yielded, the limit first, then type and range; so
    an over-limit stream is read one segment past the limit at most, and
    values with a len over it are refused before any segment.  No values
    at all raise EmptyMessageError."""
    if hasattr(values, "__len__") and len(values) > limit:
        raise MessageLimitError(limit)
    it = iter(values)
    count = 0
    while seg := list(islice(it, SEGMENT_BLOCKS)):
        count += len(seg)
        if count > limit:
            raise MessageLimitError(limit)
        _check_words(seg)
        yield seg
    if not count:
        raise EmptyMessageError()


# Each public name defined elsewhere, by the module that defines it
_LAZY = {"Block": "wordcore", "Key": "maacore", "MacStream": "maacore",
         "mac_blocks": "maacore", "mac_message": "maacore",
         "message_blocks": "maacore", "run_suite": "kat"}

__all__ = sorted([*_LAZY, "EmptyMessageError", "MESSAGE_BLOCK_LIMIT",
                  "MessageLimitError", "SEGMENT_BLOCKS", "words"])


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
