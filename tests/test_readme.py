"""The README's Python examples run against the package as it is."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.DOTALL | re.MULTILINE)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_example_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
