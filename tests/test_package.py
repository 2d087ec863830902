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
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        maa.nope
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
