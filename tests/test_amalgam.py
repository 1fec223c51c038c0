"""Pushouts, correction sums, mediating maps, square sums."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyban.amalgam import (
    correction_norm_inf,
    correction_sum,
    mediating_map,
    pushout,
    pushout_mediating,
    square_sum,
)
from polyban.banach import (
    LinMap,
    classify_embedding,
    is_isometric,
    l1_space,
    l1_sum,
    line,
    linf_space,
    map_distance,
    norm_eval,
    operator_norm,
    quotient,
    zero_space,
)
from polyban.errors import PreconditionError
from polyban.exactlin import QMat, QVec, _rref
from polyban.polytope import Ball, canon_set, symmetric_hull
from test_banach import matrices, vrep_spaces


def lmap(rows, domain, codomain):
    return LinMap(QMat.from_rows(rows, cols=domain.dim), domain, codomain)


def image_part(leg):
    gens = [leg(v) for v in leg.domain.ball.vrep]
    return Ball(leg.codomain.dim, canon_set(gens), None)


@st.composite
def nonexpansive_maps(draw, domain, codomain):
    """A random map scaled down to norm at most 1."""
    T = lmap(draw(matrices(codomain.dim, domain.dim)), domain, codomain)
    norm = operator_norm(T)
    return LinMap(T.matrix.scale(1 / norm), domain, codomain) if norm > 1 else T


class TestPushout:
    def test_zero_domain_gives_l1_sum(self):
        X, Y = linf_space(2), line()
        Z = zero_space()
        got = pushout(LinMap.zero(Z, X), LinMap.zero(Z, Y))
        total, inl, inr = l1_sum(X, Y)
        assert got.W == total
        assert got.g.matrix == inl.matrix and got.j.matrix == inr.matrix
        assert got.delta_basis == ()

    def test_along_identity(self):
        X = l1_space(2)
        Y = linf_space(2)
        f = lmap([[Fraction(1, 2), 0], [0, Fraction(1, 2)]], X, Y)
        got = pushout(LinMap.identity(X), f)
        assert got.W == Y
        assert got.j.matrix == QMat.identity(2)
        assert got.g.matrix == f.matrix

    def test_line_inside_linf_square(self):
        Z, X, Y = line(), linf_space(2), line()
        i = lmap([[1], [0]], Z, X)
        f = LinMap.identity(Z)
        got = pushout(i, f)
        assert got.delta_basis == (QVec.of([1, 0, -1]),)
        assert got.W == linf_space(2)

    def test_square_commutes(self):
        Z, X, Y = line(), linf_space(2), l1_space(2)
        i = lmap([[1], [0]], Z, X)
        f = lmap([[Fraction(1, 2)], [Fraction(1, 2)]], Z, Y)
        got = pushout(i, f)
        assert got.g.matrix @ i.matrix == got.j.matrix @ f.matrix

    def test_j_isometric_when_i_is(self):
        Z, X, Y = line(), linf_space(2), l1_space(2)
        i = lmap([[1], [0]], Z, X)
        f = lmap([[Fraction(1, 2)], [Fraction(1, 2)]], Z, Y)
        got = pushout(i, f)
        assert is_isometric(got.j)

    def test_ball_is_hull_of_images(self):
        Z, X, Y = line(), linf_space(2), l1_space(2)
        i = lmap([[1], [0]], Z, X)
        f = lmap([[Fraction(1, 2)], [Fraction(1, 2)]], Z, Y)
        got = pushout(i, f)
        hull = symmetric_hull(got.W.dim, [image_part(got.g), image_part(got.j)])
        assert got.W.ball == hull

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_quotient_of_l1_sum(self, data):
        """The pushout equals the quotient of the completed l1 sum by Delta."""
        Z = data.draw(vrep_spaces(data.draw(st.integers(0, 2))))
        if data.draw(st.booleans()):
            # An isometric inclusion, so the "j isometric" check runs too.
            extra = data.draw(vrep_spaces(data.draw(st.integers(0, 3 - Z.dim))))
            X, i, _ = l1_sum(Z, extra)
        else:
            X = data.draw(vrep_spaces(data.draw(st.integers(Z.dim, 3))))
            i = data.draw(nonexpansive_maps(Z, X))
        Y = data.draw(vrep_spaces(data.draw(st.integers(0, 3))))
        f = data.draw(nonexpansive_maps(Z, Y))
        got = pushout(i, f)
        units = [QVec.unit(Z.dim, k) for k in range(Z.dim)]
        raw = [list(i(e).concat(-f(e)).entries) for e in units]
        reduced, _ = _rref([r for r in raw if any(r)])
        delta = tuple(QVec.of(r) for r in reduced)
        total, inl, inr = l1_sum(X, Y)
        W, q = quotient(total, delta)
        assert got.delta_basis == delta
        assert got.W == W
        assert got.g == q.compose(inl) and got.j == q.compose(inr)

    def test_identity_on_linf5_completes_only_the_amalgam(self):
        # The l1 sum has dim 10, past the hard cap; the amalgam has dim 5.
        X = linf_space(5)
        got = pushout(LinMap.identity(X), LinMap.identity(X))
        assert got.W == X
        assert got.g.matrix == got.j.matrix == QMat.identity(5)
        assert all(c.ok for c in got.checks) and len(got.checks) == 4

    def test_expansive_input_rejected(self):
        Z = line()
        with pytest.raises(PreconditionError):
            pushout(lmap([[2]], Z, Z), LinMap.identity(Z))

    def test_mediating_map(self):
        Z, X, Y = line(), linf_space(2), l1_space(2)
        i = lmap([[1], [0]], Z, X)
        f = lmap([[Fraction(1, 2)], [Fraction(1, 2)]], Z, Y)
        got = pushout(i, f)
        # The pushout's own legs form a cocone; the induced map is the identity.
        h = pushout_mediating(got, got.g, got.j)
        assert h.matrix == QMat.identity(got.W.dim)

    def test_mediating_rejects_non_cocone(self):
        Z, X, Y = line(), line(), line()
        i = LinMap.identity(Z)
        f = LinMap.identity(Z)
        got = pushout(i, f)
        g2 = LinMap.identity(X)
        j2 = lmap([[-1]], Y, Y)
        with pytest.raises(PreconditionError):
            pushout_mediating(got, g2, j2)


class TestCorrectionSum:
    def test_zero_map_eps_one_is_coproduct(self):
        f = LinMap.zero(line(), line())
        got = correction_sum(f, 1)
        assert got.Z0 == l1_space(2)

    def test_identity_line_half(self):
        f = LinMap.identity(line())
        got = correction_sum(f, Fraction(1, 2))
        assert got.Z0.ball.vrep == (
            QVec.of([0, 1]),
            QVec.of([1, 0]),
            QVec.of([2, -2]),
        )
        assert norm_eval(got.Z0, QVec.of([1, -1])) == Fraction(1, 2)

    def test_legs_isometric(self):
        X = linf_space(2)
        f = lmap([[1, 0], [0, Fraction(9, 10)]], X, X)
        got = correction_sum(f, Fraction(1, 4))
        assert is_isometric(got.iX) and is_isometric(got.jY)

    def test_closeness_bound(self):
        f = lmap([[Fraction(4, 5)]], line(), line())
        got = correction_sum(f, Fraction(1, 2))
        assert map_distance(got.iX, got.jY.compose(f)) <= Fraction(1, 2)

    def test_non_embedding_rejected_at_small_eps(self):
        f = LinMap.zero(line(), line())
        with pytest.raises(PreconditionError, match="iX is not isometric"):
            correction_sum(f, Fraction(1, 2))

    def test_eps_must_be_positive(self):
        with pytest.raises(PreconditionError):
            correction_sum(LinMap.identity(line()), 0)

    def test_monotone_balls(self):
        f = LinMap.identity(line())
        small = correction_sum(f, Fraction(1, 4))
        big = correction_sum(f, Fraction(1, 2))
        # Cheaper w-cost at eps = 1/4 means a weaker norm and a larger ball.
        for v in big.Z0.ball.vrep:
            assert norm_eval(small.Z0, v) <= 1

    def test_isometric_f_preserves_iX_norms(self):
        X = line()
        f = lmap([[1], [0]], X, linf_space(2))
        got = correction_sum(f, Fraction(1, 4))
        for v in (QVec.of([1]), QVec.of([Fraction(-3, 2)])):
            assert norm_eval(got.Z0, got.iX(v)) == norm_eval(X, v)


class TestCorrectionNormInf:
    def test_embedded_x_norm(self):
        f = LinMap.identity(line())
        got = correction_sum(f, Fraction(1, 2))
        assert correction_norm_inf(got, QVec.of([1, 0])) == 1

    def test_graph_point_cheap(self):
        f = LinMap.identity(line())
        got = correction_sum(f, Fraction(1, 2))
        assert correction_norm_inf(got, QVec.of([1, -1])) == Fraction(1, 2)

    def test_zero(self):
        f = LinMap.identity(line())
        got = correction_sum(f, Fraction(1, 2))
        assert correction_norm_inf(got, QVec.zero(2)) == 0

    @settings(max_examples=30, deadline=None)
    @given(
        st.tuples(
            st.fractions(min_value=-3, max_value=3, max_denominator=5),
            st.fractions(min_value=-3, max_value=3, max_denominator=5),
            st.fractions(min_value=-3, max_value=3, max_denominator=5),
        )
    )
    def test_agrees_with_hull_gauge(self, raw):
        X, Y = line(), linf_space(2)
        f = lmap([[1], [Fraction(1, 2)]], X, Y)
        got = correction_sum(f, Fraction(1, 4))
        v = QVec.of(list(raw))
        assert correction_norm_inf(got, v) == norm_eval(got.Z0, v)


class TestMediatingMap:
    def test_initial_to_itself(self):
        f = LinMap.identity(line())
        got = correction_sum(f, Fraction(1, 2))
        h = mediating_map(got, got.iX, got.jY)
        assert h.matrix == QMat.identity(2)

    def test_sum_map_on_line_pair(self):
        Z = line()
        f = LinMap.identity(Z)
        got = correction_sum(f, Fraction(1, 2))
        h = mediating_map(got, LinMap.identity(Z), LinMap.identity(Z))
        assert h.matrix == QMat.from_rows([[1, 1]])
        assert operator_norm(h) == 1

    def test_zero_legs(self):
        f = LinMap.zero(line(), line())
        got = correction_sum(f, 1)
        h = mediating_map(got, LinMap.zero(line(), line()), LinMap.zero(line(), line()))
        assert h.matrix.is_zero()

    def test_rejects_far_pair(self):
        f = LinMap.identity(line())
        got = correction_sum(f, Fraction(1, 2))
        i = LinMap.identity(line())
        j = lmap([[-1]], line(), line())
        with pytest.raises(PreconditionError):
            mediating_map(got, i, j)

    def test_rejects_expansive_leg(self):
        f = LinMap.identity(line())
        got = correction_sum(f, Fraction(1, 2))
        with pytest.raises(PreconditionError):
            mediating_map(got, lmap([[2]], line(), line()), LinMap.identity(line()))


class TestSquareSum:
    def test_identity_square(self):
        Z = line()
        one = LinMap.identity(Z)
        got = square_sum(one, one, one, one, Fraction(1, 4), Fraction(1, 4)).phi
        assert got.matrix == QMat.identity(2)

    def test_zero_operators(self):
        Z = line()
        one = LinMap.identity(Z)
        zero = LinMap.zero(Z, Z)
        got = square_sum(zero, zero, one, one, Fraction(1, 4), Fraction(1, 4)).phi
        assert got.matrix.is_zero()

    def test_commuting_identities(self):
        Z = line()
        T0 = lmap([[Fraction(1, 2)]], Z, Z)
        T1 = lmap([[Fraction(1, 2)]], Z, Z)
        f0 = LinMap.identity(Z)
        f1 = lmap([[Fraction(7, 8)]], Z, Z)
        eps = delta = Fraction(1, 4)
        res = square_sum(T0, T1, f0, f1, eps, delta)
        got, src, dst = res.phi, res.source, res.target
        assert src == correction_sum(f0, eps + delta)
        assert dst == correction_sum(f1, eps)
        assert got.matrix @ src.iX.matrix == dst.iX.matrix @ T0.matrix
        assert got.matrix @ src.jY.matrix == dst.jY.matrix @ T1.matrix
        assert operator_norm(got) <= 1

    def test_dims_two_instance(self):
        X = linf_space(2)
        Y = l1_space(2)
        half = Fraction(1, 2)
        f0 = lmap([[half, 0], [0, half]], X, Y)
        f1 = f0
        T0 = LinMap.identity(X)
        T1 = LinMap.identity(Y)
        assert classify_embedding(f0, Fraction(1)).verdict != "not-eps"
        got = square_sum(T0, T1, f0, f1, Fraction(1), Fraction(1, 4)).phi
        assert operator_norm(got) <= 1

    def test_rejects_non_embedding(self):
        Z = line()
        one = LinMap.identity(Z)
        shrink = lmap([[Fraction(1, 10)]], Z, Z)
        with pytest.raises(PreconditionError):
            square_sum(one, one, shrink, one, Fraction(1, 4), Fraction(1, 4))

    def test_rejects_large_defect(self):
        Z = line()
        one = LinMap.identity(Z)
        T0 = lmap([[Fraction(1, 2)]], Z, Z)
        with pytest.raises(PreconditionError):
            square_sum(T0, one, one, one, Fraction(1, 4), Fraction(1, 4))
