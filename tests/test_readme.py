"""The README's Python examples run as written and print what they claim."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_quick_taste_runs():
    blocks = _python_blocks()
    assert blocks
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for code in blocks:
            exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    lines = out.getvalue().splitlines()
    assert "4.82842712474619" in lines
    assert "6.82842712474619" in lines
    rows = lines.index("('b1',) Phi/2")
    assert lines[rows + 1] == "('b2', 'c1') Phi"
