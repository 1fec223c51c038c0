"""The docstring examples of every polyban module run and pass."""

import doctest
import importlib
import pkgutil

import pytest

import polyban

MODULES = ["polyban"] + [
    f"polyban.{info.name}" for info in pkgutil.iter_modules(polyban.__path__)
]


@pytest.mark.parametrize("name", sorted(MODULES))
def test_docstring_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
