"""The docstring examples of every polyban module, and the python code
blocks of README.md, run and pass."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import polyban

MODULES = ["polyban"] + [
    f"polyban.{info.name}" for info in pkgutil.iter_modules(polyban.__path__)
]


@pytest.mark.parametrize("name", sorted(MODULES))
def test_docstring_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_readme_python_blocks_run():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {"__name__": "readme"})
