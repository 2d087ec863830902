"""The package root: the boundary both cores share, the public names it
resolves on first use, and what each module loads of the package."""

import subprocess
import sys

import pytest

import maa
from maa import kat, maacore, nativecore, wordcore

PUBLIC = ["Block", "EmptyMessageError", "Key", "MESSAGE_BLOCK_LIMIT",
          "MacStream", "MessageLimitError", "SEGMENT_BLOCKS", "mac_blocks",
          "mac_message", "message_blocks", "run_suite", "words"]

# The maa modules that importing each one loads.  Neither core loads the
# other, and the command line loads only the native core until a command
# asks for more.
LOADS = {
    "maa": {"maa"},
    "maa.wordcore": {"maa", "maa.wordcore"},
    "maa.maaops": {"maa", "maa.wordcore", "maa.maaops"},
    "maa.maacore": {"maa", "maa.wordcore", "maa.maaops", "maa.maacore"},
    "maa.nativecore": {"maa", "maa.nativecore"},
    "maa.kat": {"maa", "maa.kat"},
    "maa.cli": {"maa", "maa.nativecore", "maa.cli"},
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
    homes = {"Block": [wordcore], "run_suite": [kat], "words": [maa]}
    for name in PUBLIC:
        for module in homes.get(name, [maacore]):
            assert getattr(maa, name) is getattr(module, name), name
    namespace = {}
    exec("from maa import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        maa.nope
    with pytest.raises(ImportError):
        exec("from maa import nope", {})


def test_both_cores_share_the_boundary():
    # both cores read, check and refuse input through the root's names
    for name in ("LIMIT_BELOW_ONE", "MESSAGE_BLOCK_LIMIT", "check_key",
                 "segments"):
        assert getattr(maa, name) is getattr(maacore, name) \
            is getattr(nativecore, name), name
    assert not hasattr(nativecore, "words")
    # so one except clause catches either core's refusal
    key = maacore.Key.from_hex("00000001", "00000002")
    refusals = {
        maa.EmptyMessageError: (lambda: nativecore.mac_values(1, 2, []),
                                lambda: maacore.mac_blocks(key, [])),
        maa.MessageLimitError: (
            lambda: nativecore.mac_values(1, 2, [0, 0], limit=1),
            lambda: maacore.mac_blocks(key, [wordcore.Block.from_int(0)] * 2,
                                       limit=1)),
    }
    for error, calls in refusals.items():
        for call in calls:
            with pytest.raises(error):
                call()
