import os

import pytest


@pytest.fixture
def child_env():
    """The environment with this checkout's package first on PYTHONPATH;
    pytest's own pythonpath setting does not reach a child interpreter."""
    import maa
    src = os.path.dirname(os.path.dirname(maa.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture
def segment_blocks(monkeypatch):
    """segment_blocks(n) sets the package root's SEGMENT_BLOCKS, the one
    segment length that both cores read when called, to n for this test."""
    import maa

    def install(n):
        monkeypatch.setattr(maa, "SEGMENT_BLOCKS", n)
    return install


@pytest.fixture
def spy(monkeypatch):
    """spy(owner, name) rebinds owner.name, for this test, to a wrapper
    that records each call's positional arguments as a tuple and calls
    through; it returns the list of records."""
    def install(owner, name):
        calls = []
        real = getattr(owner, name)

        def recorded(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(owner, name, recorded)
        return calls
    return install


_BY_NODE = {}
_ROWS = {}


def pytest_collection_modifyitems(items):
    for item in items:
        marker = item.get_closest_marker("criterion")
        if marker:
            _BY_NODE[item.nodeid] = (marker.args[0], marker.args[1])


def pytest_runtest_logreport(report):
    info = _BY_NODE.get(report.nodeid)
    if info is None:
        return
    number, title = info
    if report.when == "call":
        _ROWS[number] = ("PASS" if report.passed else "FAIL", title)
    elif not report.passed:
        # setup or teardown blew up; the criterion did not hold
        _ROWS[number] = ("FAIL", title)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ROWS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(_ROWS):
        outcome, title = _ROWS[number]
        terminalreporter.write_line(f"criterion {number:2d}: {outcome}  {title}")
