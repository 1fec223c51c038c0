"""Check records and their certification."""

from fractions import Fraction

import pytest

from polyban.errors import VerificationError
from polyban.report import certify, check_eq, check_le, check_true


class TestCertify:
    def test_returns_its_checks_when_all_pass(self):
        checks = (
            check_eq("dist == 0", Fraction(0), Fraction(0)),
            check_true("isometric", True),
        )
        assert certify(*checks) == checks

    def test_first_failure_names_bound_and_values(self):
        with pytest.raises(VerificationError) as exc:
            certify(
                check_true("isometric", True),
                check_le("norm <= 1", Fraction(3, 2), Fraction(1)),
                check_true("never reached", False),
            )
        assert str(exc.value) == "norm <= 1: claimed <= 1, computed 3/2"
