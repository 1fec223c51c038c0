"""Double description engine: conversions, minimality, gauge agreement."""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_facets,
    brute_force_gauge,
    brute_force_vertices,
    fraction_canon_set,
    fraction_enumerate_vertices,
    gauge_vrep,
    sequential_enumerate_vertices,
)
from polyban.banach import Space, l1_space, linf_space, quotient, space_from_vrep
from polyban.errors import CapExceeded, DimensionMismatch, NotANorm, VerificationError
from polyban.exactlin import QMat, QVec, _cleared_rows, rank
from polyban.polytope import (
    Ball,
    IntegerBall,
    _enumerate_vertices,
    canon_ints,
    canon_rows,
    canon_set,
    canon_sign,
    complete_representations,
)


def vecs(*rows):
    return tuple(QVec.of(list(r)) for r in rows)


def complete_from_vrep(dim, rows):
    return complete_representations(Ball.from_vrep(dim, vecs(*rows)))


def complete_from_hrep(dim, rows):
    return complete_representations(Ball.from_hrep(dim, vecs(*rows)))


class TestCanon:
    def test_sign_first_nonzero_positive(self):
        assert canon_sign(QVec.of([0, -2, 1])) == QVec.of([0, 2, -1])
        assert canon_sign(QVec.of([1, -2])) == QVec.of([1, -2])
        assert canon_sign(QVec.of([0, 0])) == QVec.of([0, 0])

    def test_set_dedupes_pairs_and_sorts(self):
        out = canon_set(vecs((0, 1), (-1, 0), (0, -1), (1, 0)))
        assert out == vecs((0, 1), (1, 0))


# Column scales: mixed and large denominators, and both signs.
SCALES = (Fraction(1), Fraction(1, 7), Fraction(3, 11), Fraction(2**40, 3), Fraction(-5, 2))


@st.composite
def touching_rows(draw, max_cube_dim=5, max_cross_dim=3):
    """Cube or cross-polytope rows plus redundant rows that touch the ball,
    with column j then multiplied by a drawn scale t_j.

    A row of l1 norm 1 is valid on the cube, and a row of sup norm 1 on the
    cross-polytope; each is tight on a face, mostly one below a facet, so
    the hrep is not simple.  As a vrep, neither is the polar's.  The scaled
    rows describe diag(t)^-1 of that ball, so the redundant rows still touch
    it, and the rows have mixed and large denominators.
    """
    cube = draw(st.booleans())
    dim = draw(st.integers(1, max_cube_dim if cube else max_cross_dim))
    if cube:
        rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    else:
        rows = [[1, *signs] for signs in itertools.product([1, -1], repeat=dim - 1)]
    sign_rows = st.lists(st.integers(-1, 1), min_size=dim, max_size=dim).filter(any)
    for row in draw(st.lists(sign_rows, min_size=1, max_size=2 if dim < 5 else 1)):
        scale = sum(map(abs, row)) if cube else 1
        rows.append([Fraction(x, scale) for x in row])
    scales = draw(st.lists(st.sampled_from(SCALES), min_size=dim, max_size=dim))
    return [[x * t for x, t in zip(row, scales)] for row in rows]


class TestConversions:
    def test_l1_ball_to_hrep(self):
        ball = complete_from_vrep(2, ((1, 0), (0, 1)))
        assert ball.vrep == vecs((0, 1), (1, 0))
        assert ball.hrep == vecs((1, -1), (1, 1))

    def test_linf_ball_to_vrep(self):
        ball = complete_from_hrep(2, ((1, 0), (0, 1)))
        assert ball.vrep == vecs((1, -1), (1, 1))
        assert ball.hrep == vecs((0, 1), (1, 0))

    def test_l1_ball_dim3(self):
        ball = complete_from_vrep(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert ball.vrep == vecs((0, 0, 1), (0, 1, 0), (1, 0, 0))
        assert ball.hrep == vecs((1, -1, -1), (1, -1, 1), (1, 1, -1), (1, 1, 1))

    def test_parallelogram_hull(self):
        ball = complete_from_vrep(2, ((1, 0), (1, 1)))
        assert ball.vrep == vecs((1, 0), (1, 1))
        assert ball.hrep == vecs((1, -2), (1, 0))

    def test_redundant_generator_dropped(self):
        ball = complete_from_vrep(2, ((1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 2))))
        assert ball.vrep == vecs((0, 1), (1, 0))

    def test_redundant_functional_dropped(self):
        ball = complete_from_hrep(2, ((1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 2))))
        assert ball.hrep == vecs((0, 1), (1, 0))

    def test_dim_zero(self):
        ball = complete_representations(Ball(0, None, ()))
        assert ball.vrep == () and ball.hrep == ()

    def test_idempotent(self):
        once = complete_from_vrep(2, ((1, 0), (1, 1), (0, 1)))
        twice = complete_representations(once)
        assert once == twice

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda dim: st.tuples(
                st.lists(
                    st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
                    min_size=dim,
                    # The oracle tries every dim-subset of the signed rows.
                    max_size=dim + 3 if dim < 5 else dim + 1,
                ),
                st.none() | st.fractions(-3, 3, max_denominator=4),
            )
        )
        | st.tuples(touching_rows(), st.none()),
    )
    @example(([[1, 2], [3, -1], [1, 0], [0, 1]], None))
    @example(([[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1], [1, 0, 0], [0, 1, 1]], None))
    def test_matches_brute_force_vertices(self, drawn):
        rows, multiple = drawn
        dim = len(rows[0])
        if multiple is not None:
            rows = rows + [[multiple * x for x in rows[0]]]
        assume(rank(QMat.from_rows(rows, cols=dim)) == dim)
        vertices = canon_set(brute_force_vertices(rows, dim))
        facets = canon_set(brute_force_facets(rows, dim))
        from_h = complete_from_hrep(dim, rows)
        assert from_h.vrep == vertices
        assert from_h.hrep == facets
        # V -> H is H -> V on the polar: the roles of the two sides swap.
        from_v = complete_from_vrep(dim, rows)
        assert from_v.hrep == vertices
        assert from_v.vrep == facets

    def test_octahedron_from_cube_hrep_dim3(self):
        funcs = vecs((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1))
        ball = complete_from_hrep(3, funcs)
        assert ball.vrep == vecs((0, 0, 1), (0, 1, 0), (1, 0, 0))
        assert ball.hrep == canon_set(funcs)


def cube_rows(dim):
    return [[int(i == j) for j in range(dim)] for i in range(dim)]


def cross_rows(dim):
    """The cube's vertices, one per +-pair: the cross-polytope's facets."""
    return [[1, *s] for s in itertools.product([1, -1], repeat=dim - 1)]


def tied_rows(dim):
    """The cube's facets and every (e_i +- e_j) / 2, each tight on a
    codimension-2 face of the cube: many vertices of slack 0."""
    half = [
        [Fraction(int(k == i) + s * int(k == j), 2) for k in range(dim)]
        for i, j in itertools.combinations(range(dim), 2)
        for s in (1, -1)
    ]
    return cube_rows(dim) + half


def random_rows(dim, count, seed):
    """Rational rows that span, drawn with a fixed seed."""
    rng = random.Random(seed)
    while True:
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(dim)]
                for _ in range(count)]
        if rank(QMat.from_rows(rows, cols=dim)) == dim:
            return rows


def signed_points(points, masks, count):
    """Both signs of each representative ``[*n, d]``, with tight masks over
    ``count`` rows: -n / d is tight at constraint c when n / d is at c ^ 1."""
    plus_bits = sum(1 << 2 * k for k in range(count))
    out = set()
    for p, mask in zip(points, masks):
        out.add((tuple(p), mask))
        partner = (mask & plus_bits) << 1 | (mask >> 1) & plus_bits
        out.add((tuple(-x for x in p[:-1]) + (p[-1],), partner))
    return out


class TestIntegerEnumeration:
    """The double description against the sequential integer routine it
    replaced and that routine's Fraction form; the brute force comparison
    is TestConversions.test_matches_brute_force_vertices."""

    @settings(max_examples=60, deadline=None)
    @given(touching_rows(max_cube_dim=8, max_cross_dim=6))
    @example([[Fraction(1, 7), 0, 0], [0, Fraction(3, 11), 0], [0, 0, Fraction(2**40, 3)],
              [Fraction(1, 21), Fraction(1, 11), Fraction(2**40, 9)]])
    # The edge-count precheck prunes most pairs here.
    @example(cube_rows(6))
    @example(cube_rows(7))
    @example(cube_rows(8))
    @example(cross_rows(6))
    @example(cross_rows(7))
    @example(cross_rows(8))
    @example(tied_rows(5))
    @example(tied_rows(6))
    # In dim 1, v and -v are adjacent: the new vertex is on their edge.
    @example([[1], [2]])
    @example([[Fraction(1, 3)], [3], [Fraction(-5, 2)]])
    @example([[1, 0], [0, 1], [1, 1]])
    # Both representatives of the square are outside |4x + 2y| <= 1, and
    # each new vertex is on the edge from one to the other's partner.
    @example([[1, 0], [0, 1], [4, 2]])
    # The vertex (0, 1) is tight at -q only for the row (2, -1), and at +q
    # for the row (2, 1).
    @example([[1, 0], [0, 1], [2, -1], [2, 1]])
    def test_same_vertices_and_masks_as_fraction_path(self, rows):
        dim = len(rows[0])
        canonical, den = canon_rows([QVec.of(row) for row in rows])
        points, masks = _enumerate_vertices(canonical, den, dim)
        # One homogeneous integer [*n, d] per +-pair: no two are equal or
        # antipodal.  The order is free, so the paths are compared as sets.
        assert len({(canon_ints(p[:-1]), p[-1]) for p in points}) == len(points)
        signed = signed_points(points, masks, len(canonical))
        assert len(signed) == 2 * len(points)
        sequential = sequential_enumerate_vertices(canonical, den, dim)
        assert len(sequential[0]) == 2 * len(points)
        assert signed == {(tuple(p), mask) for p, mask in zip(*sequential)}
        functionals = [QVec(tuple(Fraction(x, den) for x in row)) for row in canonical]
        vertices, fraction_masks = fraction_enumerate_vertices(functionals, dim)
        assert len(vertices) == 2 * len(points)
        assert {(QVec(tuple(Fraction(x, p[-1]) for x in p[:-1])), mask) for p, mask in signed} == (
            set(zip(vertices, fraction_masks))
        )

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.lists(st.fractions(-3, 3, max_denominator=2**40), min_size=3, max_size=3),
        max_size=6,
    ))
    def test_canon_rows_is_canon_set_over_least_denominator(self, rows):
        vectors = [QVec.of(row) for row in rows]
        canonical, den = canon_rows(vectors)
        reference = fraction_canon_set(vectors)
        assert tuple(QVec(tuple(Fraction(x, den) for x in row)) for row in canonical) == reference
        assert den == lcm(*(x.denominator for v in reference for x in v))
        assert canon_set(vectors) == reference

    def test_completion_keeps_its_integer_form_over_least_denominators(self):
        rows = vecs(*random_rows(4, 7, seed=3))
        ball = complete_representations(Ball.from_vrep(4, rows))
        # The dropped row (or generator) carries the largest denominator, 13,
        # so the kept ones are over a smaller one.
        inner = (Fraction(1, 13), Fraction(1, 13))
        square = complete_from_hrep(2, ((1, 0), (0, 1), inner))
        diamond = complete_from_vrep(2, ((1, 0), (0, 1), inner))
        assert square.cleared().facet_den == 1 and diamond.cleared().vertex_den == 1
        for completed in (
            ball,
            complete_representations(Ball.from_hrep(4, ball.hrep)),
            complete_representations(Ball(4, ball.vrep, ball.hrep)),
            complete_representations(Ball.from_hrep(4, rows)),
            square,
            diamond,
            complete_representations(Ball(2, square.vrep, square.hrep + vecs(inner))),
            complete_representations(Ball(0, None, ())),
        ):
            assert completed.cleared() == IntegerBall(
                *_cleared_rows(completed.hrep), *_cleared_rows(completed.vrep)
            )

    def test_completion_takes_no_rational_products(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("completion must not take a rational product")

        units, signs = cube_rows(6), cross_rows(6)
        for owner, name in ((QVec, "dot"), (QVec, "scale"), (QMat, "apply")):
            monkeypatch.setattr(owner, name, forbidden)
        l1 = complete_from_vrep(6, units)
        assert (l1.vrep, l1.hrep) == (canon_set(vecs(*units)), canon_set(vecs(*signs)))
        linf = complete_from_hrep(6, units)
        assert (linf.vrep, linf.hrep) == (canon_set(vecs(*signs)), canon_set(vecs(*units)))

    def test_completion_takes_no_fraction_arithmetic(self, forbid_fraction_arithmetic):
        units, signs = vecs(*cube_rows(6)), vecs(*cross_rows(6))
        l1 = Ball(6, canon_set(units), canon_set(signs))
        linf = Ball(6, canon_set(signs), canon_set(units))
        rows = vecs(*random_rows(5, 9, seed=5))
        ball = complete_representations(Ball.from_vrep(5, rows))
        polar = complete_representations(Ball.from_hrep(5, rows))
        # A row valid on the ball but no facet of it: the declared-hrep check.
        extra = QVec(tuple(x / 2 for x in ball.hrep[0]))
        forbid_fraction_arithmetic()
        for given, reference in (
            (Ball.from_vrep(6, units), l1),
            (Ball.from_hrep(6, signs), l1),
            (Ball.from_hrep(6, units), linf),
            (Ball.from_vrep(6, signs), linf),
            (Ball.from_vrep(5, rows), ball),
            (Ball.from_hrep(5, ball.hrep), ball),
            (Ball(5, ball.vrep, ball.hrep), ball),
            (Ball(5, ball.vrep, ball.hrep + (extra,)), ball),
            (Ball.from_hrep(5, rows), polar),
            (Ball.from_vrep(5, polar.vrep), polar),
        ):
            assert complete_representations(given) == reference


class TestValidation:
    def test_unbounded_hrep_rejected(self):
        with pytest.raises(NotANorm):
            complete_from_hrep(2, ((1, 0),))

    def test_degenerate_vrep_rejected(self):
        with pytest.raises(NotANorm, match="vertices do not span; the ball is degenerate"):
            complete_from_vrep(2, ((1, 1), (2, 2)))

    def test_inconsistent_pair_rejected(self):
        bad = Ball(2, vecs((1, 0), (0, 1)), vecs((2, 0), (0, 1)))
        with pytest.raises(NotANorm):
            complete_representations(bad)

    def test_declared_hrep_too_loose_rejected(self):
        bad = Ball(2, vecs((1, 0), (0, 1)), vecs((Fraction(1, 2), 0), (0, 1)))
        with pytest.raises(NotANorm):
            complete_representations(bad)

    def test_consistent_pair_accepted(self):
        ball = Ball(2, vecs((0, 1), (1, 0)), vecs((1, -1), (1, 1)))
        assert complete_representations(ball) == ball

    def test_redundant_declared_functional_accepted(self):
        # (1, 0) is valid on the l1 ball but no facet of it.
        ball = Ball(2, vecs((0, 1), (1, 0)), vecs((1, -1), (1, 1), (1, 0)))
        assert complete_representations(ball).hrep == vecs((1, -1), (1, 1))

    @pytest.mark.parametrize(
        "extra, ok",
        [
            # Valid on the hexagon hull of (1, 0), (0, 1), (1, 1), no facets.
            (((Fraction(1, 2), Fraction(1, 2)),), True),
            (((1, Fraction(-1, 2)), (Fraction(1, 3), 0)), True),
            # Each cuts a generator: (1, 1) or (0, 1) or (1, 0).
            (((1, 0), (1, 1)), False),
            (((0, Fraction(3, 2)),), False),
            (((Fraction(1, 2), Fraction(1, 2)), (2, -1)), False),
        ],
    )
    def test_declared_redundant_rows(self, extra, ok):
        hull = complete_from_vrep(2, ((1, 0), (0, 1), (1, 1)))
        ball = Ball(2, hull.vrep, hull.hrep + vecs(*extra))
        if ok:
            assert complete_representations(ball) == hull
        else:
            with pytest.raises(NotANorm, match="vrep point violates declared hrep"):
                complete_representations(ball)

    def test_declared_facets_take_no_products(self, monkeypatch):
        """A declared hrep that is the hull's facet list is not tested
        against the generators again: they satisfy their own facets."""
        units = [[int(i == j) for j in range(6)] for i in range(6)]
        signs = [[1, *s] for s in itertools.product([1, -1], repeat=5)]

        def forbidden(*args):
            raise AssertionError("rational product in the declared-hrep check")

        monkeypatch.setattr(QVec, "dot", forbidden)
        ball = Ball(6, vecs(*units), vecs(*signs))
        assert complete_representations(ball).hrep == canon_set(vecs(*signs))

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda dim: st.lists(
                st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
                min_size=dim,
                max_size=dim + 2,
            )
        ),
    )
    def test_declared_hrep_missing_a_facet_rejected(self, rows):
        dim = len(rows[0])
        assume(rank(QMat.from_rows(rows, cols=dim)) == dim)
        ball = complete_from_vrep(dim, rows)
        for drop in range(len(ball.hrep)):
            declared = ball.hrep[:drop] + ball.hrep[drop + 1 :]
            with pytest.raises(NotANorm):
                complete_representations(Ball(dim, ball.vrep, declared))

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Ball.from_vrep(2, vecs((1, 0, 0), (0, 1, 0))), "declared cols 2 != row width 3"),
            (lambda: Ball.from_vrep(3, vecs((1, 0), (0, 1))), "declared cols 3 != row width 2"),
            (lambda: Ball.from_vrep(2, vecs((1, 0), (0, 1, 0))), "ragged rows"),
            (lambda: Ball.from_hrep(2, vecs((1, 0, 0), (0, 1, 0))), "declared cols 2 != row width 3"),
            (lambda: Ball.from_hrep(2, vecs((1, 0), (0, 1, 0))), "ragged rows"),
            (lambda: Ball(2, vecs((1, 0, 0), (0, 1, 0)), vecs((1, 0), (0, 1))),
             "declared cols 2 != row width 3"),
            (lambda: Ball(2, vecs((1, 0), (0, 1, 0)), vecs((1, 0), (0, 1))), "ragged rows"),
            # A declared hrep row is measured against the generators.
            (lambda: Ball(2, vecs((1, 0), (0, 1)), vecs((1, 1, 0), (1, -1, 0))), "vector dims 3 != 2"),
            (lambda: Ball(2, vecs((1, 0), (0, 1)), vecs((1, 1), (1, -1, 0))), "vector dims 3 != 2"),
            (lambda: Ball(2, vecs((1, 0), (0, 1)), vecs((1, 1), (1, -1), (1,))), "vector dims 1 != 2"),
        ],
        ids=[
            "vrep-wide", "vrep-narrow", "vrep-ragged", "hrep-wide", "hrep-ragged",
            "both-vrep-wide", "both-vrep-ragged", "both-hrep-wide", "both-hrep-ragged",
            "both-hrep-narrow",
        ],
    )
    def test_mis_sized_rows_rejected(self, make, message):
        with pytest.raises(DimensionMismatch, match=message):
            complete_representations(make())

    def test_zero_rows_are_dropped_before_the_width_check(self):
        ball = Ball.from_vrep(2, vecs((1, 0), (0, 1), (0, 0, 0)))
        assert complete_representations(ball) == complete_from_vrep(2, ((1, 0), (0, 1)))

    def test_cleared_form_of_an_uncompleted_ball_rejected(self):
        # Both representations, consistent, but not from complete_representations.
        l1 = Ball(2, vecs((0, 1), (1, 0)), vecs((1, -1), (1, 1)))
        for ball in (l1, Ball.from_hrep(1, vecs((1,)))):
            with pytest.raises(VerificationError, match="ball is not completed"):
                ball.cleared()

    def test_signed_rep_of_a_missing_side_rejected(self):
        with pytest.raises(VerificationError):
            Ball.from_hrep(1, vecs((1,))).signed_vrep()

    def test_cap(self):
        with pytest.raises(CapExceeded, match="dimension 9 exceeds cap 8"):
            complete_representations(Ball(9, None, None))
        # A hand-built Space completes its ball, so it meets the same cap.
        units = tuple(QVec.unit(9, i) for i in range(9))
        with pytest.raises(CapExceeded, match="dimension 9 exceeds cap 8"):
            Space(9, Ball(9, units, units))


class TestGauge:
    def test_hull_gauge_frozen_value(self):
        ball = complete_from_vrep(2, ((1, 0), (1, 1)))
        assert gauge_vrep(ball, QVec.of([0, 1])) == 2

    def test_matches_oracle(self):
        gens = vecs((1, 0), (1, 1), (0, 1))
        ball = complete_representations(Ball.from_vrep(2, gens))
        for point in vecs((1, 1), (2, -1), (0, 0), (Fraction(1, 3), Fraction(5, 7))):
            assert gauge_vrep(ball, point) == brute_force_gauge(list(gens), point)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=-3, max_value=3, max_denominator=4),
                st.fractions(min_value=-3, max_value=3, max_denominator=4),
            ),
            min_size=2,
            max_size=5,
        ),
        st.tuples(
            st.fractions(min_value=-4, max_value=4, max_denominator=6),
            st.fractions(min_value=-4, max_value=4, max_denominator=6),
        ),
    )
    def test_gauge_equals_hrep_sup(self, raw_gens, raw_point):
        gens = [QVec.of(list(g)) for g in raw_gens]
        try:
            ball = complete_representations(Ball.from_vrep(2, gens))
        except NotANorm:
            return
        point = QVec.of(list(raw_point))
        sup = max(abs(phi.dot(point)) for phi in ball.hrep)
        assert gauge_vrep(ball, point) == sup


class TestImageAndHull:
    # An image ball is the hull of the images of the vertices: the path
    # quotient, pushout and realize_over take.
    def test_image_shear(self):
        shear = QMat.from_rows([[1, 1], [0, 1]])
        image = space_from_vrep(2, [shear.apply(v) for v in l1_space(2).ball.vrep])
        assert image.ball.vrep == vecs((1, 0), (1, 1))

    def test_image_projection(self):
        image, q = quotient(linf_space(2), vecs((0, 1)))
        assert q.matrix == QMat.from_rows([[1, 0]], cols=2)
        assert image.ball.vrep == vecs((1,)) and image.ball.hrep == vecs((1,))

    def test_image_to_dim_zero(self):
        image, q = quotient(l1_space(2), vecs((1, 0), (0, 1)))
        assert q.matrix.shape == (0, 2)
        assert image.dim == 0 and image.ball.vrep == () and image.ball.hrep == ()

    def test_hull_of_axis_parts(self):
        # Each axis alone spans a degenerate segment; their union is a ball.
        hull = complete_from_vrep(2, ((1, 0), (0, 1)))
        assert hull.vrep == vecs((0, 1), (1, 0))
        assert hull.hrep == vecs((1, -1), (1, 1))

    def test_hull_non_spanning_rejected(self):
        with pytest.raises(NotANorm):
            complete_from_vrep(2, ((1, 0), (-2, 0)))
