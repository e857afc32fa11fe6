"""The README's Python examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = [(text[:m.start()].count("\n") + 2, m.group(1))
          for text in [README.read_text()]
          for m in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S)]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("line,code", BLOCKS, ids=[f"line{n}" for n, _ in BLOCKS])
def test_readme_python_block_runs(line, code):
    # padded so that a traceback names the README's own line
    exec(compile("\n" * (line - 1) + code, str(README), "exec"), {})
