"""The README's Python examples run as written and print what they say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 2
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert "F14D6E28" in out
    assert "526 0" in out
