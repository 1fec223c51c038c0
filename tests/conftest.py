"""Shared fixtures."""

from fractions import Fraction

import pytest

FRACTION_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
)


@pytest.fixture
def forbid_fraction_arithmetic(monkeypatch):
    """Call it to make Fraction +, -, * and / raise for the rest of the test;
    building, comparing and negating Fractions stay allowed."""

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic on an integer path")

    def forbid():
        for name in FRACTION_ARITHMETIC:
            monkeypatch.setattr(Fraction, name, forbidden)

    return forbid
