"""Norm evaluation, operator norms, embedding verdicts, sums, quotients."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    coset_min_norm,
    fraction_dual_norm_eval,
    fraction_is_isometric,
    fraction_norm_eval,
    fraction_operator_norm,
    sphere_min_by_facet_lp,
)
from polyban import banach, exactlin, polytope
from polyban.banach import (
    EPS,
    ISOMETRIC,
    NOT_EPS,
    STRICT_EPS,
    LinMap,
    Space,
    classify_embedding,
    dual_norm_eval,
    is_isometric,
    l1_space,
    l1_sum,
    line,
    linf_space,
    lower_isometry_bound,
    map_distance,
    norm_eval,
    operator_norm,
    pullback_space,
    quotient,
    space_from_hrep,
    space_from_vrep,
    zero_space,
)
from polyban.cli import main
from polyban.errors import DimensionMismatch, NotANorm, PreconditionError
from polyban.exactlin import QMat, QVec, rank, rat
from polyban.io import load_json, save_json, space_from_json, space_to_json
from polyban.polytope import Ball


def lmap(rows, domain, codomain):
    return LinMap(QMat.from_rows(rows, cols=domain.dim), domain, codomain)


small = st.fractions(min_value=-2, max_value=2, max_denominator=2)


def matrices(rows, cols, entries=small):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


@st.composite
def vrep_spaces(draw, dim):
    """A random vrep ball of the given dim (dim 0 gives the zero space)."""
    if dim == 0:
        return zero_space()
    gens = draw(matrices(draw(st.integers(dim, dim + 2)), dim))
    assume(rank(QMat.from_rows(gens, cols=dim)) == dim)
    return space_from_vrep(dim, [QVec.of(g) for g in gens])


class TestSpace:
    def test_completes_a_half_ball(self):
        units = [QVec.of([1, 0]), QVec.of([0, 1])]
        assert Space(2, Ball.from_vrep(2, units)) == l1_space(2)
        assert Space(2, Ball.from_hrep(2, units)) == linf_space(2)

    @pytest.mark.parametrize(
        "route", ["space_from_vrep", "space_from_json", "quotient", "cmd_space_check"]
    )
    def test_each_route_completes_once(self, monkeypatch, tmp_path, capsys, route):
        X = l1_space(3)
        path = tmp_path / "space.json"
        save_json(str(path), space_to_json(X))
        calls = []

        def counted(ball):
            calls.append(ball)
            return polytope.complete_representations(ball)

        monkeypatch.setattr(banach, "complete_representations", counted)
        if route == "space_from_vrep":
            space_from_vrep(3, [QVec.unit(3, i) for i in range(3)])
        elif route == "space_from_json":
            space_from_json(load_json(str(path)))
        elif route == "quotient":
            quotient(X, [QVec.of([1, -1, 2])])
        else:
            assert main(["space-check", str(path)]) == 0
            capsys.readouterr()
        assert len(calls) == 1

    def test_dim_must_match(self):
        with pytest.raises(DimensionMismatch):
            Space(3, l1_space(2).ball)

    def test_canonical_equality(self):
        assert l1_space(2) == space_from_vrep(2, [QVec.of([0, -1]), QVec.of([1, 0])])

    def test_hand_built_ball_stored_canonical(self):
        # (1/2, 1/2) is no vertex of the l1 ball and (1, 0) no facet of it.
        X = l1_space(2)
        half = QVec.of([Fraction(1, 2), Fraction(1, 2)])
        padded = Space(2, Ball(2, X.ball.vrep + (half,), X.ball.hrep + (QVec.of([1, 0]),)))
        assert padded == X
        assert is_isometric(LinMap.identity(padded))
        assert is_isometric(LinMap(QMat.identity(2), padded, X))

    def test_inconsistent_hand_built_ball_rejected(self):
        with pytest.raises(NotANorm):
            Space(2, Ball(2, l1_space(2).ball.vrep, linf_space(2).ball.hrep))


class TestNormEval:
    def test_linf(self):
        assert norm_eval(linf_space(2), QVec.of([1, -2])) == 2

    def test_l1(self):
        assert norm_eval(l1_space(2), QVec.of([1, 1])) == 2

    def test_sheared_ball(self):
        space = space_from_vrep(2, [QVec.of([1, 0]), QVec.of([1, 1])])
        assert norm_eval(space, QVec.of([0, 1])) == 2

    def test_zero_space(self):
        assert norm_eval(zero_space(), QVec.of([])) == 0

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            norm_eval(line(), QVec.of([1, 2]))


class TestDualNormEval:
    def test_l1_coordinate_functional(self):
        assert dual_norm_eval(l1_space(2), QVec.unit(2, 0)) == 1

    def test_linf_sum_functional(self):
        assert dual_norm_eval(linf_space(2), QVec.of([1, 1])) == 2

    def test_zero_functional(self):
        assert dual_norm_eval(l1_space(2), QVec.zero(2)) == 0


class TestOperatorNorm:
    def test_zero_map(self):
        assert operator_norm(LinMap.zero(l1_space(2), line())) == 0

    def test_identity(self):
        assert operator_norm(LinMap.identity(linf_space(2))) == 1

    def test_sum_functional_from_linf(self):
        T = lmap([[1, 1]], linf_space(2), line())
        assert operator_norm(T) == 2

    def test_zero_dim_domain(self):
        assert operator_norm(LinMap.zero(zero_space(), line())) == 0


class TestMapDistance:
    def test_equal_maps(self):
        T = lmap([[1, 0], [0, 1]], l1_space(2), l1_space(2))
        assert map_distance(T, T) == 0

    def test_identity_vs_zero(self):
        X = linf_space(1)
        assert map_distance(LinMap.identity(X), LinMap.zero(X, X)) == 1

    def test_identity_vs_shrink(self):
        X = line()
        S = LinMap.identity(X)
        T = lmap([[Fraction(3, 4)]], X, X)
        assert map_distance(S, T) == Fraction(1, 4)

    def test_mismatched_spaces(self):
        with pytest.raises(DimensionMismatch):
            map_distance(LinMap.identity(line()), LinMap.identity(l1_space(2)))


class TestLowerIsometryBound:
    def test_identity(self):
        assert lower_isometry_bound(LinMap.identity(l1_space(2))) == 1

    def test_projection_has_kernel_on_sphere(self):
        T = lmap([[1, 0]], linf_space(2), line())
        assert lower_isometry_bound(T) == 0

    def test_graph_map_into_linf(self):
        T = lmap([[1], [Fraction(1, 2)]], line(), linf_space(2))
        assert lower_isometry_bound(T) == 1

    def test_zero_dim_domain(self):
        assert lower_isometry_bound(LinMap.zero(zero_space(), line())) == 1

    def test_zero_dim_codomain(self):
        assert lower_isometry_bound(LinMap.zero(line(), zero_space())) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_primal_facet_lp(self, data):
        dom_dim = data.draw(st.integers(1, 3))
        domain = data.draw(vrep_spaces(dom_dim))
        kind = data.draw(st.sampled_from(["random", "rank-deficient", "l1-pad", "pullback"]))
        if kind == "l1-pad":
            # inl into X (+)_1 W, scaled: isometric exactly at scale 1.
            extra = data.draw(st.integers(0, 4 - dom_dim))
            codomain, T, _ = l1_sum(domain, data.draw(vrep_spaces(extra)))
            scale = data.draw(st.sampled_from(["1", "1/2", "3/2"]))
            scaled = [[rat(scale) * x for x in row] for row in T.matrix.entries]
            T = LinMap(QMat.from_rows(scaled, cols=dom_dim), domain, codomain)
        elif kind == "pullback":
            # B is isometric from its pullback space; so is B with one entry
            # moved only by chance.
            codomain = data.draw(vrep_spaces(data.draw(st.integers(dom_dim, 4))))
            rows = data.draw(matrices(codomain.dim, dom_dim))
            assume(rank(QMat.from_rows(rows, cols=dom_dim)) == dom_dim)
            domain = pullback_space(QMat.from_rows(rows, cols=dom_dim), codomain)
            if data.draw(st.booleans()):
                r = data.draw(st.integers(0, codomain.dim - 1))
                c = data.draw(st.integers(0, dom_dim - 1))
                rows[r][c] += data.draw(st.sampled_from([Fraction(1, 2), Fraction(-1)]))
            T = lmap(rows, domain, codomain)
        else:
            codomain = data.draw(vrep_spaces(data.draw(st.integers(1, 4))))
            rows = data.draw(matrices(codomain.dim, dom_dim))
            if kind == "rank-deficient":
                # The last column repeats half the first, or is zero.
                rows = [row[:-1] + [row[0] / 2 if dom_dim > 1 else 0] for row in rows]
            T = lmap(rows, domain, codomain)
        expected = sphere_min_by_facet_lp(T.matrix, domain, codomain)
        assert lower_isometry_bound(T) == expected
        assert is_isometric(T) == (operator_norm(T) == 1 and expected == 1)
        if rank(T.matrix) == dom_dim:
            # The definition the facet lemma replaced: T pulls the codomain
            # ball back onto the domain ball.
            pulled = pullback_space(T.matrix, codomain).ball
            assert is_isometric(T) == (pulled == domain.ball)

    def test_isometry_certified_without_completion_or_rank(self, monkeypatch):
        X = l1_space(2)
        maps = [
            LinMap.identity(X),
            lmap([[1, 1], [1, -1]], X, linf_space(2)),
            l1_sum(X, line())[1],
            lmap([[1, 0]], linf_space(2), line()),
            lmap([[2, 0], [0, 1]], X, X),
            LinMap.zero(zero_space(), line()),
        ]

        def forbidden(*args, **kwargs):
            raise AssertionError("is_isometric must not complete a ball or take a rank")

        for module in (banach, polytope, exactlin):
            for name in ("complete_representations", "pullback_space", "rank"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        assert [is_isometric(T) for T in maps] == [True, True, True, False, False, True]


@st.composite
def hrep_spaces(draw, dim):
    """A random hrep ball of the given dim (dim 0 gives the zero space)."""
    if dim == 0:
        return zero_space()
    rows = draw(matrices(draw(st.integers(dim, dim + 2)), dim))
    assume(rank(QMat.from_rows(rows, cols=dim)) == dim)
    return space_from_hrep(dim, [QVec.of(r) for r in rows])


def balls(dim):
    return st.one_of(vrep_spaces(dim), hrep_spaces(dim))


fine = st.fractions(min_value=-3, max_value=3, max_denominator=6)


class TestIntegerEvaluation:
    """The integer norm, dual norm, operator norm and isometry test against
    their Fraction forms in tests/oracles.py."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_same_values_as_fraction_path(self, data):
        kind = data.draw(
            st.sampled_from(
                ["random", "pullback", "pad", "kernel", "zero-domain", "zero-codomain"]
            )
        )
        dom_dim = {"zero-domain": 0}.get(kind, data.draw(st.integers(1, 4)))
        if kind == "pullback":
            codomain = data.draw(balls(data.draw(st.integers(dom_dim, 5))))
            rows = data.draw(matrices(codomain.dim, dom_dim, fine))
            assume(rank(QMat.from_rows(rows, cols=dom_dim)) == dom_dim)
            domain = pullback_space(QMat.from_rows(rows, cols=dom_dim), codomain)
            T = lmap(rows, domain, codomain)
            assert is_isometric(T)
        elif kind == "pad":
            # inl into X (+)_1 W, the coordinate pad [I; 0]: isometric.
            domain = data.draw(balls(dom_dim))
            extra = data.draw(balls(data.draw(st.integers(0, 5 - dom_dim))))
            codomain, T, _ = l1_sum(domain, extra)
            assert is_isometric(T)
        else:
            domain = data.draw(balls(dom_dim))
            cod_dim = 0 if kind == "zero-codomain" else data.draw(st.integers(1, 5))
            codomain = data.draw(balls(cod_dim))
            rows = data.draw(matrices(cod_dim, dom_dim, fine))
            if kind == "kernel":
                # The last column repeats a rational multiple of the first.
                c = data.draw(fine)
                rows = [row[:-1] + [c * row[0] if dom_dim > 1 else 0] for row in rows]
            if kind == "random":
                assume(any(x.denominator > 1 for row in rows for x in row))
            T = lmap(rows, domain, codomain)
        x, phi = (QVec(tuple(v)) for v in data.draw(matrices(2, dom_dim, fine)))
        assert norm_eval(domain, x) == fraction_norm_eval(domain, x)
        assert dual_norm_eval(domain, phi) == fraction_dual_norm_eval(domain, phi)
        assert operator_norm(T) == fraction_operator_norm(T)
        assert is_isometric(T) == fraction_is_isometric(T)

    def test_evaluation_takes_no_rational_products(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("evaluation must not take a rational product")

        l1, linf = l1_space(6), linf_space(6)
        B = QMat.from_rows(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, -1], [1, 0, Fraction(1, 2)]]
        )
        P = pullback_space(B, linf)
        maps = [
            LinMap.identity(l1),
            LinMap(QMat.identity(6), l1, linf),
            LinMap(QMat.identity(6), linf, l1),
            LinMap(B, P, linf),
            LinMap(B.transpose(), l1, P),
        ]
        x = QVec.of([1, -2, "1/3", 0, "1/2", -1])
        y = QVec.of([1, "-3/2", 2])
        vectors = ((l1, x), (linf, x), (P, y))
        expected = (
            [1, 1, 6, 1, 2],
            [True, False, False, True, False],
            [Fraction(29, 6), 2, Fraction(7, 2)],
            [2, Fraction(29, 6), Fraction(5, 2)],
        )
        assert (
            [fraction_operator_norm(T) for T in maps],
            [fraction_is_isometric(T) for T in maps],
            [fraction_norm_eval(S, v) for S, v in vectors],
            [fraction_dual_norm_eval(S, v) for S, v in vectors],
        ) == expected
        for owner, name in ((QVec, "dot"), (QMat, "apply"), (QMat, "__matmul__")):
            monkeypatch.setattr(owner, name, forbidden)
        assert (
            [operator_norm(T) for T in maps],
            [is_isometric(T) for T in maps],
            [norm_eval(S, v) for S, v in vectors],
            [dual_norm_eval(S, v) for S, v in vectors],
        ) == expected


class TestClassifyEmbedding:
    def test_identity_isometric(self):
        got = classify_embedding(LinMap.identity(l1_space(2)), Fraction(1, 2))
        assert got.verdict == ISOMETRIC
        assert got.lower == 1 and got.upper == 1

    def test_strict(self):
        T = lmap([[Fraction(4, 5)]], line(), line())
        got = classify_embedding(T, Fraction(1, 2))
        assert got.verdict == STRICT_EPS
        assert got.lower == Fraction(4, 5)

    def test_boundary(self):
        T = lmap([[Fraction(2, 3)]], line(), line())
        got = classify_embedding(T, Fraction(1, 2))
        assert got.verdict == EPS
        assert got.lower == Fraction(2, 3) == 1 / (1 + Fraction(1, 2))

    def test_not_eps_too_small(self):
        T = lmap([[Fraction(1, 2)]], line(), line())
        assert classify_embedding(T, Fraction(1, 2)).verdict == NOT_EPS

    def test_not_eps_expanding(self):
        T = lmap([[2]], line(), line())
        assert classify_embedding(T, Fraction(1, 2)).verdict == NOT_EPS

    def test_zero_dim_domain_isometric(self):
        T = LinMap.zero(zero_space(), line())
        got = classify_embedding(T, Fraction(1, 4))
        assert (got.lower, got.upper, got.verdict) == (1, 1, ISOMETRIC)

    def test_lower_le_upper(self):
        T = lmap([[1, 0], [1, 1]], l1_space(2), linf_space(2))
        got = classify_embedding(T, Fraction(1))
        assert 0 <= got.lower <= got.upper

    def test_eps_must_be_positive(self):
        with pytest.raises(PreconditionError):
            classify_embedding(LinMap.identity(line()), 0)


class TestL1Sum:
    def test_line_plus_line(self):
        total, inl, inr = l1_sum(line(), line())
        assert total == l1_space(2)
        assert inl(QVec.of([1])) == QVec.of([1, 0])
        assert inr(QVec.of([1])) == QVec.of([0, 1])

    def test_zero_summand(self):
        X = linf_space(2)
        total, inl, inr = l1_sum(X, zero_space())
        assert total == X
        assert inl.matrix == QMat.identity(2)

    def test_linf_plus_line_vrep(self):
        total, _, _ = l1_sum(linf_space(2), line())
        assert total.ball.vrep == (
            QVec.of([0, 0, 1]),
            QVec.of([1, -1, 0]),
            QVec.of([1, 1, 0]),
        )

    def test_injections_isometric(self):
        X, Y = linf_space(2), l1_space(2)
        total, inl, inr = l1_sum(X, Y)
        for leg in (inl, inr):
            got = classify_embedding(leg, Fraction(1))
            assert got.verdict == ISOMETRIC

    @settings(max_examples=15, deadline=None)
    @given(
        st.tuples(
            st.fractions(min_value=-2, max_value=2, max_denominator=4),
            st.fractions(min_value=-2, max_value=2, max_denominator=4),
        ),
        st.tuples(
            st.fractions(min_value=-2, max_value=2, max_denominator=4),
            st.fractions(min_value=-2, max_value=2, max_denominator=4),
        ),
    )
    def test_norm_additive(self, raw_x, raw_y):
        X, Y = linf_space(2), l1_space(2)
        total, inl, inr = l1_sum(X, Y)
        x, y = QVec.of(list(raw_x)), QVec.of(list(raw_y))
        combined = inl(x) + inr(y)
        assert norm_eval(total, combined) == norm_eval(X, x) + norm_eval(Y, y)


class TestQuotient:
    def test_empty_kernel(self):
        X = l1_space(2)
        Q, q = quotient(X, [])
        assert Q == X and q.matrix == QMat.identity(2)

    def test_l1_diagonal_kernel(self):
        Q, q = quotient(l1_space(2), [QVec.of([1, -1])])
        assert Q == line()
        assert q(QVec.of([1, 0])) == QVec.of([1])
        assert q(QVec.of([0, 1])) == QVec.of([1])

    def test_linf_axis_kernel(self):
        Q, q = quotient(linf_space(2), [QVec.of([0, 1])])
        assert Q == line()
        assert q(QVec.of([5, 7])) == QVec.of([5])

    def test_dependent_kernel_rejected(self):
        with pytest.raises(PreconditionError):
            quotient(l1_space(2), [QVec.of([1, 1]), QVec.of([2, 2])])

    def test_quotient_map_norm_one(self):
        Q, q = quotient(l1_space(3), [QVec.of([1, -1, 0])])
        assert operator_norm(q) == 1

    def test_kernel_killed(self):
        kernel = [QVec.of([1, 2, 3])]
        Q, q = quotient(linf_space(3), kernel)
        assert q(kernel[0]) == QVec.zero(2)

    @settings(max_examples=15, deadline=None)
    @given(
        st.tuples(
            st.fractions(min_value=-2, max_value=2, max_denominator=3),
            st.fractions(min_value=-2, max_value=2, max_denominator=3),
            st.fractions(min_value=-2, max_value=2, max_denominator=3),
        )
    )
    def test_quotient_norm_is_coset_inf(self, raw):
        X = l1_space(3)
        kernel = [QVec.of([1, -1, 2])]
        Q, q = quotient(X, kernel)
        x = QVec.of(list(raw))
        assert norm_eval(Q, q(x)) == coset_min_norm(X, kernel, x)


class TestPullback:
    def test_diagonal_into_linf(self):
        B = QMat.from_rows([[1], [1]])
        assert pullback_space(B, linf_space(2)) == line()

    def test_diagonal_into_l1(self):
        B = QMat.from_rows([[1], [1]])
        sub = pullback_space(B, l1_space(2))
        assert norm_eval(sub, QVec.of([1])) == 2
        assert sub.ball.vrep == (QVec.of([Fraction(1, 2)]),)

    def test_not_injective_rejected(self):
        B = QMat.from_rows([[1, 1], [1, 1]])
        with pytest.raises(PreconditionError):
            pullback_space(B, l1_space(2))

    def test_inclusion_becomes_isometry(self):
        B = QMat.from_rows([[1, 0], [0, 1], [0, 0]])
        Y = l1_space(3)
        sub = pullback_space(B, Y)
        incl = LinMap(B, sub, Y)
        assert classify_embedding(incl, Fraction(1)).verdict == ISOMETRIC
