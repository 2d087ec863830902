"""Message Authenticator Algorithm (ISO 8731-2) with two cores.

The gate-level core (wordcore + maaops + maacore) builds every word
operation out of bit logic and is the reference; the native core
(nativecore) redoes the whole computation on machine integers.  Both are
validated against the published test vectors via the kat module, and
against each other.
"""

from .kat import run_suite
from .maacore import (
    EmptyMessageError,
    Key,
    MESSAGE_BLOCK_LIMIT,
    MacStream,
    MessageLimitError,
    SEGMENT_BLOCKS,
    mac_blocks,
    mac_message,
    message_blocks,
)
from .nativecore import native_mac
from .wordcore import Block

__version__ = "0.1.0"

__all__ = [
    "Block",
    "EmptyMessageError",
    "Key",
    "MESSAGE_BLOCK_LIMIT",
    "MacStream",
    "MessageLimitError",
    "SEGMENT_BLOCKS",
    "mac_blocks",
    "mac_message",
    "message_blocks",
    "native_mac",
    "run_suite",
]
