"""The README's library example runs and prints what its comments say, so
a change to the public names it imports shows here."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_documented_values():
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    s0_ratio, all_pass, min_ratio = out.getvalue().split()
    assert float(s0_ratio) == pytest.approx(2 / 3, rel=1e-12)
    assert all_pass == "True"
    assert float(min_ratio) == pytest.approx(0.5, rel=1e-12)
