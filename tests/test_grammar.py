"""Every Python file of the project parses with the grammar of the oldest
Python that `pyproject.toml` declares. This checks the grammar only, not
that the standard library calls exist in that version."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_python_file_parses_with_the_oldest_declared_grammar():
    (minor,) = re.findall(r'requires-python = ">=3\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    files = sorted(f for d in ("src", "tests", "perfbench") for f in (ROOT / d).rglob("*.py"))
    assert len(files) > 10
    for f in files:
        ast.parse(f.read_text(), filename=str(f), feature_version=(3, int(minor)))
