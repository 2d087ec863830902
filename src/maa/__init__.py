"""Message Authenticator Algorithm (ISO 8731-2) with two cores.

The gate-level core (wordcore + maaops + maacore) builds every word
operation out of bit logic and is the reference; the native core
(nativecore) redoes the whole computation on machine integers.  Both are
validated against the published test vectors via the kat module, and
against each other.

This module holds what the two cores share: the message limits, the
errors of a refused message, and the suite and core names.  Every other
public name is imported from its module on first use (PEP 562).
"""

__version__ = "0.1.0"

# ISO's bound on message length, in 32-bit blocks.  Not inherent to the
# algorithm, so callers may raise or lower it per stream, down to 1.
MESSAGE_BLOCK_LIMIT = 1_000_000
LIMIT_BELOW_ONE = "block limit must be at least 1"

SEGMENT_BLOCKS = 256

SUITES = ("T1", "T2", "T3", "T4", "ANNEX_E", "LONG")
CORES = ("gate", "native", "both")


class EmptyMessageError(ValueError):
    """The MAC of a zero-block message is undefined; we reject it."""

    def __str__(self):
        return "the MAC of an empty message is undefined"


class MessageLimitError(ValueError):
    """MessageLimitError(limit): the message has more blocks than limit."""

    def __str__(self):
        return (f"message exceeds the {self.args[0]}-block limit "
                f"(ISO 8731-2 default is {MESSAGE_BLOCK_LIMIT})")


# Each public name defined elsewhere, by the module that defines it
_LAZY = {"Block": "wordcore", "Key": "maacore", "MacStream": "maacore",
         "mac_blocks": "maacore", "mac_message": "maacore",
         "message_blocks": "maacore", "run_suite": "kat"}

__all__ = sorted([*_LAZY, "EmptyMessageError", "MESSAGE_BLOCK_LIMIT",
                  "MessageLimitError", "SEGMENT_BLOCKS"])


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
