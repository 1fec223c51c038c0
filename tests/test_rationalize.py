"""Functional extension, norm repair, operator repair."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyban.banach import (
    LinMap,
    dual_norm_eval,
    is_isometric,
    l1_space,
    line,
    linf_space,
    norm_eval,
    operator_norm,
    pullback_space,
    space_from_hrep,
    space_from_vrep,
    zero_space,
)
from polyban.errors import PreconditionError, VerificationError
from polyban.exactlin import QMat, QVec
from polyban.rationalize import extend_functional, repair_norm, repair_operator


def lmap(rows, domain, codomain):
    return LinMap(QMat.from_rows(rows, cols=domain.dim), domain, codomain)


def axis_inclusion(space):
    B = QMat.from_rows([[1], [0]])
    return LinMap(B, pullback_space(B, space), space)


class TestExtendFunctional:
    def test_identity_inclusion(self):
        X = l1_space(2)
        phi = QVec.of([1, Fraction(-1, 2)])
        assert extend_functional(phi, LinMap.identity(X)) == phi

    def test_zero_functional(self):
        incl = axis_inclusion(linf_space(2))
        assert extend_functional(QVec.zero(1), incl) == QVec.zero(2)

    def test_coordinate_functional_on_linf(self):
        incl = axis_inclusion(linf_space(2))
        assert extend_functional(QVec.of([1]), incl) == QVec.of([1, 0])

    def test_rejects_non_isometric(self):
        X = line()
        incl = lmap([[Fraction(1, 2)], [0]], X, linf_space(2))
        with pytest.raises(PreconditionError):
            extend_functional(QVec.of([1]), incl)

    @settings(max_examples=20, deadline=None)
    @given(st.fractions(min_value=-3, max_value=3, max_denominator=6))
    def test_dual_norm_preserved(self, scale):
        incl = axis_inclusion(l1_space(2))
        phi = QVec.of([scale])
        psi = extend_functional(phi, incl)
        assert psi.dot(incl(QVec.of([1]))) == phi[0]
        assert dual_norm_eval(incl.codomain, psi) == dual_norm_eval(
            incl.domain, phi
        )


def vspace(*gens):
    return space_from_vrep(len(gens[0]), [QVec.of(g) for g in gens])


HEXAGON = vspace((1, 0), (0, 1), (1, 1))
OCTAHEDRAL = space_from_hrep(3, [QVec.of(v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))])

# (codomain, inclusion matrix, phi, the extension the simplex picks).  Most
# of these LPs have more than one optimum, so the pick depends on the
# tableau: it moves when the columns are laid out as all (+) then all (-),
# or when the vertex rows are reversed.  Repair norms are built from these
# picks, so they are pinned.  The first pick is no facet of l1(2): it need
# not be one.
PINNED_EXTENSIONS = [
    (l1_space(2), [[1], [0]], ["1"], ["1", "0"]),
    (HEXAGON, [[1], [-1]], ["5/7"], ["5/14", "-5/14"]),
    (OCTAHEDRAL, [[1, 0], [0, 1], [1, -1]], ["1", "1"], ["1/2", "3/2", "1/2"]),
    (l1_space(4), [[1, 0], [1, -1], [0, 1], [2, 1]], ["1", "2"], ["1/3", "-2/3", "2/3", "2/3"]),
    (linf_space(3), [[-1, 1], [1, -1], [0, 1]], ["3/2", "1/2"], ["-3/2", "0", "2"]),
    (linf_space(3), [[-1, 0], [1, -2], [-1, 0]], ["-3/2", "1/2"], ["0", "-1/4", "5/4"]),
    (linf_space(2), [[-2], [2]], ["1/2"], ["-1/4", "0"]),
    (l1_space(3), [[2, -1], [-2, 1], [-2, -2]], ["-3/2", "-2"], ["-3/4", "-11/12", "11/12"]),
    (l1_space(3), [[-2, -2], [-1, 0], [2, 0]], ["3/2", "1"], ["-1/2", "-1/2", "0"]),
    (l1_space(3), [[-2, 1], [-1, 2], [1, -2]], ["3/2", "0"], ["-1", "1", "1/2"]),
    (
        vspace(("-1", "-3/2", "-2"), ("1", "0", "-1"), ("-1", "1", "-1"), ("-1/2", "1/2", "0")),
        [[0, -1], [1, 2], [-1, -2]],
        ["-1/2", "-3/2"],
        ["1/2", "-5/7", "-3/14"],
    ),
    (
        vspace(("0", "0", "1"), ("0", "1", "-3"), ("2", "-2", "1/2"), ("1", "1", "-2")),
        [[2, 0], [-2, 0], [0, -2]],
        ["-1", "1"],
        ["-11/8", "-7/8", "-1/2"],
    ),
    (
        vspace(("-1", "3/2", "-1/2"), ("-3/2", "2", "-2"), ("1/2", "-1", "1"), ("-3", "-1/2", "-1")),
        [[-1], [2], [2]],
        ["3"],
        ["-11/51", "25/51", "46/51"],
    ),
    (vspace(("1", "1/2"), ("-1/2", "-1"), ("3/2", "3/2")), [[-1], [-1]], ["-2"], ["4", "-2"]),
    (vspace(("-2", "0"), ("1", "-1"), ("1", "1"), ("-3", "2")), [[-1], [0]], ["-1"], ["1", "1"]),
    (vspace(("3", "1/2"), ("-2", "2")), [[1], [-1]], ["-3"], ["-15/7", "6/7"]),
]


@pytest.mark.parametrize("Y, rows, phi, expected", PINNED_EXTENSIONS)
def test_extension_pick_is_pinned(Y, rows, phi, expected):
    B = QMat.from_rows(rows, cols=len(rows[0]))
    incl = LinMap(B, pullback_space(B, Y), Y)
    assert extend_functional(QVec.of(phi), incl) == QVec.of(expected)


class TestRepairNorm:
    def test_full_subspace_changes_nothing(self):
        Y = linf_space(2)
        got = repair_norm(Y, LinMap.identity(Y), Fraction(1, 4))
        assert got.repaired == Y

    def test_zero_subspace_scales(self):
        Y = line()
        incl = LinMap.zero(zero_space(), Y)
        got = repair_norm(Y, incl, Fraction(1, 4))
        assert got.repaired.ball.hrep == (QVec.of([Fraction(4, 5)]),)

    def test_pins_axis_of_l1(self):
        Y = l1_space(2)
        incl = axis_inclusion(Y)
        got = repair_norm(Y, incl, Fraction(1, 4))
        assert is_isometric(got.pinned)
        assert norm_eval(got.repaired, QVec.of([1, 0])) == 1

    def test_two_sided_bounds_at_representatives(self):
        Y = l1_space(2)
        got = repair_norm(Y, axis_inclusion(Y), Fraction(1, 4))
        factor = Fraction(5, 4)
        for v in Y.ball.vrep:
            assert norm_eval(got.repaired, v) <= factor
        for w in got.repaired.ball.vrep:
            assert norm_eval(Y, w) <= factor

    def test_repaired_norm_never_grows(self):
        # The construction is one-sided: extensions have dual norm <= 1 and
        # the old facets are shrunk, so the repaired norm is <= the original.
        Y = linf_space(2)
        got = repair_norm(Y, axis_inclusion(Y), Fraction(1, 3))
        for v in Y.ball.vrep:
            assert norm_eval(got.repaired, v) <= 1

    def test_delta_positive_required(self):
        Y = line()
        with pytest.raises(PreconditionError):
            repair_norm(Y, LinMap.identity(Y), 0)


class TestRepairOperator:
    def test_already_nonexpansive_full_pins(self):
        X = linf_space(2)
        T = lmap([[Fraction(1, 2), 0], [0, Fraction(1, 2)]], X, X)
        rx, ry, tp, _ = repair_operator(
            T, LinMap.identity(X), LinMap.identity(X), Fraction(1, 4)
        )
        assert rx.repaired == X and ry.repaired == X
        assert tp.matrix == T.matrix

    def test_expanding_identity_on_line(self):
        Y = line()
        T = lmap([[Fraction(6, 5)]], Y, Y)
        zero_pin = LinMap.zero(zero_space(), Y)
        rx, ry, tp, _ = repair_operator(T, zero_pin, zero_pin, Fraction(1, 5))
        assert operator_norm(tp) == Fraction(5, 6)
        assert rx.repaired.ball.vrep == (QVec.of([Fraction(5, 6)]),)
        assert ry.repaired.ball.vrep == (QVec.of([Fraction(6, 5)]),)

    def test_dims_two_drifted_instance(self):
        X = linf_space(2)
        T = lmap([[1, 0], [0, Fraction(9, 8)]], X, X)
        pin = axis_inclusion(X)
        rx, ry, tp, _ = repair_operator(T, pin, pin, Fraction(1, 4))
        assert operator_norm(tp) <= 1
        assert is_isometric(rx.pinned) and is_isometric(ry.pinned)
        assert norm_eval(rx.repaired, QVec.of([1, 0])) == 1
        for v in X.ball.vrep:
            assert norm_eval(rx.repaired, v) <= Fraction(25, 16)

    def test_rejects_untracked_pin(self):
        X = linf_space(2)
        T = lmap([[0, 1], [1, 0]], X, X)
        pin = axis_inclusion(X)
        # T maps e1 to e2; the pinned codomain is span e1, so T does not
        # restrict.  The pinned square is unsolvable.
        ok_pin = axis_inclusion(X)
        with pytest.raises(PreconditionError):
            repair_operator(T, pin, ok_pin, Fraction(1, 4))

    def test_rejects_norm_beyond_headroom(self):
        Y = line()
        T = lmap([[2]], Y, Y)
        zero_pin = LinMap.zero(zero_space(), Y)
        with pytest.raises(PreconditionError):
            repair_operator(T, zero_pin, zero_pin, Fraction(1, 5))

    def test_expansive_restriction_detected(self):
        X = linf_space(2)
        T = lmap([[Fraction(9, 8), 0], [0, 1]], X, X)
        pin = axis_inclusion(X)
        # T restricted to the pin is (9/8) id, which no norm repair can make
        # nonexpansive while both pins keep their norms.
        with pytest.raises(VerificationError):
            repair_operator(T, pin, pin, Fraction(1, 4))
