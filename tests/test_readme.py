"""The README's Python examples and CLI lines run against the package as it is."""

import json
import pathlib
import re
import shlex

import pytest

from gausssep.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, flags=re.DOTALL | re.MULTILINE)
# the ``gausssep ...`` lines of the first shell block of the "## CLI" section
CLI_LINES = [line for line in re.search(r"^## CLI\n.*?^```sh\n(.*?)^```$", TEXT,
                                        flags=re.DOTALL | re.MULTILINE)[1].splitlines()
             if line.startswith("gausssep ")]
STATES = [{"id": "vacuum", "params": {"n1": 0.5, "n2": 0.5}},
          {"id": "ent", "params": {"n1": 1, "n2": 1, "mc": [0.6, 0]}},
          {"id": "sq", "params": {"n1": 1.2, "n2": 0.9, "m1": [0.3, 0], "ms": [0.1, 0.2]}}]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_example_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})


def test_readme_has_cli_lines():
    assert len(CLI_LINES) >= 5


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_line_runs(line, tmp_path, monkeypatch, capsys):
    """Each line exits 0, run in a fresh directory that holds a small
    ``states.jsonl``."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "states.jsonl").write_text("".join(json.dumps(r) + "\n" for r in STATES))
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().err == ""
