"""Exact linear algebra and LP tests, pinned against independent oracles."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyban.errors import DimensionMismatch, ParseError
from polyban.exactlin import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LpProblem,
    QMat,
    QVec,
    _rref,
    lp_solve,
    pivot_columns,
    rank,
    rat,
    rat_str,
    solve,
    solve_linear,
)

from oracles import (
    brute_force_lp,
    fraction_apply,
    fraction_matmul,
    fraction_rref,
    greedy_columns,
    minor_rank,
    split,
)

rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=12
)


def qvec(*values):
    return QVec.of(values)


def draw_matrix(draw, rows, cols, entries=rationals):
    row = st.lists(entries, min_size=cols, max_size=cols)
    return QMat.from_rows(draw(st.lists(row, min_size=rows, max_size=rows)), cols=cols)


@st.composite
def small_matrices(draw):
    """Matrices of up to 4 x 4, empty ones included; half of them are a
    product through an inner dimension k, so their rank is at most k."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    if draw(st.booleans()):
        k = draw(st.integers(0, min(rows, cols)))
        return draw_matrix(draw, rows, k) @ draw_matrix(draw, k, cols)
    return draw_matrix(draw, rows, cols)


@st.composite
def systems(draw):
    """(a, b) with up to 3 right-hand sides, each in the column span of a
    or drawn freely."""
    a = draw(small_matrices())
    columns = []
    for _ in range(draw(st.integers(0, 3))):
        column = draw_matrix(draw, a.rows, 1).col(0)
        if draw(st.booleans()):
            column = a.apply(draw_matrix(draw, a.cols, 1).col(0))
        columns.append(column)
    return a, QMat.from_cols(columns, rows=a.rows)


@st.composite
def elimination_inputs(draw):
    """Rows of an up to 6 x 7 matrix: small and large denominators of both
    signs, some rows and columns zeroed, and half of them of low rank."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    entry = rationals | st.builds(
        Fraction, st.integers(-(2**45), 2**45), st.sampled_from([1, 3, 7, 11, 2**40])
    )
    matrix = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    if draw(st.booleans()) and rows and cols:
        k = draw(st.integers(1, min(rows, cols)))
        product = draw_matrix(draw, rows, k) @ QMat.from_rows(matrix[:k], cols=cols)
        matrix = [list(row) for row in product.entries]
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2))
    return [
        [Fraction(0) if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(matrix)
    ]


class TestQMatShapes:
    def test_negative_sizes_rejected(self):
        for make in (lambda: QMat.zeros(-1, 2), lambda: QMat.zeros(2, -1), lambda: QMat.identity(-2)):
            with pytest.raises(DimensionMismatch):
                make()

    def test_from_cols_checks_declared_height(self):
        with pytest.raises(DimensionMismatch, match="declared rows 5 != column height 3"):
            QMat.from_cols([qvec(1, 2, 3)], rows=5)
        assert QMat.from_cols([qvec(1, 2, 3)], rows=3).shape == (3, 1)
        assert QMat.from_cols([], rows=5).shape == (5, 0)


# Both signs, and denominators up to 2^40.
wide_rationals = rationals | st.fractions(
    min_value=-(2**45), max_value=2**45, max_denominator=2**40
)


@st.composite
def product_operands(draw):
    """(a, b, v) with a of shape r x k, b of shape k x c and v of dim k,
    every size from 0 to 4."""
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    a = draw_matrix(draw, r, k, wide_rationals)
    b = draw_matrix(draw, k, c, wide_rationals)
    v = QVec(tuple(draw(st.lists(wide_rationals, min_size=k, max_size=k))))
    return a, b, v


class TestProducts:
    """Products on cleared forms against their Fraction forms."""

    @given(product_operands())
    @settings(max_examples=150, deadline=None)
    @example((QMat.zeros(0, 3), QMat.zeros(3, 2), QVec.of([1, "-1/2", 3])))
    @example((QMat.zeros(2, 0), QMat.zeros(0, 3), QVec.of([])))
    @example((QMat.zeros(3, 2), QMat.zeros(2, 0), QVec.of(["2/3", "-5/7"])))
    @example((QMat.from_rows([[-(2**45), Fraction(1, 2**40)]]),
              QMat.from_rows([[Fraction(-3, 2**40)], [Fraction(2**40 - 1, 2**40)]]),
              QVec.of([Fraction(7, 2**40), -1])))
    def test_same_values_as_fraction_path(self, operands):
        a, b, v = operands
        product = a @ b
        assert product.shape == (a.rows, b.cols)
        assert product == fraction_matmul(a, b)
        assert a.apply(v) == fraction_apply(a, v)

    def test_products_take_no_fraction_arithmetic(self, forbid_fraction_arithmetic):
        a = QMat.from_rows([["1/2", -3], ["2/3", 0], [0, "-5/7"]])
        b = QMat.from_rows([[1, "1/4"], ["-2/5", 3]])
        v = QVec.of(["3/2", "-1/3"])
        forbid_fraction_arithmetic()
        assert a.apply(v) == QVec.of(["7/4", 1, "5/21"])
        assert a @ b == QMat.from_rows([["17/10", "-71/8"], ["2/3", "1/6"], ["2/7", "-15/7"]])
        assert (b @ QMat.zeros(2, 0)).shape == (2, 0)
        assert QMat.zeros(0, 2).apply(v) == QVec.of([])

    def test_shape_mismatch_rejected(self):
        a = QMat.from_rows([[1, 2]])
        with pytest.raises(DimensionMismatch, match="inner dims 2 != 1"):
            a @ a
        with pytest.raises(DimensionMismatch, match="matrix cols 2 != vector dim 3"):
            a.apply(qvec(1, 2, 3))


class TestRat:
    def test_parse_forms(self):
        assert rat("3/4") == Fraction(3, 4)
        assert rat("-3/4") == Fraction(-3, 4)
        assert rat("-7") == Fraction(-7)
        assert rat(" 6/4\n") == Fraction(3, 2)
        assert rat(2) == Fraction(2)
        assert rat(Fraction(1, 3)) == Fraction(1, 3)

    def test_canonical_string(self):
        assert rat_str(Fraction(3, 4)) == "3/4"
        assert rat_str(Fraction(-8, 2)) == "-4"
        for value in (Fraction(-3, 4), Fraction(5), Fraction(7)):
            assert rat(rat_str(value)) == value

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            rat("1/0")
        with pytest.raises(ParseError):
            rat("two")

    @pytest.mark.parametrize(
        "value",
        ["3/0", "1e3", "0.5", "1_000", "+1", "1/-2", "", "\u0661\u0662", 0.5, True],
        ids=repr,
    )
    def test_rejects_outside_grammar(self, value):
        with pytest.raises(ParseError):
            rat(value)


class TestSolveLinear:
    def test_diagonal(self):
        a = QMat.from_rows([[2, 0], [0, 4]])
        assert solve_linear(a, qvec(1, 1)) == qvec("1/2", "1/4")

    def test_inconsistent(self):
        a = QMat.from_rows([[1, 1], [1, 1]])
        assert solve_linear(a, qvec(0, 1)) is None

    def test_underdetermined_sets_free_vars_to_zero(self):
        a = QMat.from_rows([[1, 1]])
        x = solve_linear(a, qvec(3))
        assert x == qvec(3, 0)
        assert a.apply(x) == qvec(3)

    def test_zero_by_zero(self):
        a = QMat.from_rows([], cols=0)
        assert solve_linear(a, QVec.zero(0)) == QVec.zero(0)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_linear(QMat.from_rows([[1, 0]]), qvec(1, 2))


class TestRank:
    def test_examples(self):
        assert rank(QMat.from_rows([[1, 2], [2, 4]])) == 1
        assert rank(QMat.identity(4)) == 4
        assert rank(QMat.zeros(0, 5)) == 0

    @given(small_matrices())
    @settings(max_examples=80, deadline=None)
    def test_pivot_columns_are_the_greedy_prefix_rank_choice(self, a):
        assert pivot_columns(a) == greedy_columns(a)
        assert rank(a) == minor_rank(a)


class TestRref:
    @given(elimination_inputs())
    @settings(max_examples=120, deadline=None)
    @example([[Fraction(0), Fraction(-3, 7)], [Fraction(0), Fraction(0)], [Fraction(2**40, 3), Fraction(1, 11)]])
    def test_matches_fraction_gauss_jordan(self, rows):
        assert _rref([list(row) for row in rows]) == fraction_rref(rows)


class TestSolve:
    @given(systems())
    @settings(max_examples=80, deadline=None)
    def test_matches_minor_rank_oracle(self, system):
        a, b = system
        x = solve(a, b)
        base = minor_rank(a)
        consistent = all(
            minor_rank(a.hstack(QMat.from_cols([b.col(j)], rows=a.rows))) == base
            for j in range(b.cols)
        )
        assert (x is not None) == consistent
        if x is not None:
            assert x.shape == (a.cols, b.cols)
            assert a @ x == b
            free = set(range(a.cols)) - set(greedy_columns(a))
            assert all(x.row(i).is_zero() for i in free)

    def test_columns_solved_together_match_one_at_a_time(self):
        a = QMat.from_rows([[1, 2, 0], [2, 4, 1]])
        b = QMat.from_rows([[1, 0, 3], [0, 1, 5]])
        x = solve(a, b)
        assert [x.col(j) for j in range(3)] == [
            solve_linear(a, b.col(j)) for j in range(3)
        ]

    def test_one_inconsistent_column_fails_the_whole_system(self):
        a = QMat.from_rows([[1, 1], [1, 1]])
        assert solve(a, QMat.from_rows([[1, 1], [1, 2]])) is None

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve(QMat.from_rows([[1, 0]]), QMat.zeros(2, 1))


class TestLp:
    """Standard form: minimize over x >= 0 with <= and = rows.  A maximum is
    posed as the minimum of -c, a >= row as a negated <= row, and a free
    variable as a (+, -) pair of columns."""

    def test_square_maximum(self):
        # max x + y over the square [-1, 1]^2: optimum 2 at (1, 1).  The
        # free x and y are the pairs (x+, x-), (y+, y-).
        problem = LpProblem(
            objective=qvec(-1, 1, -1, 1),
            constraints=(
                (qvec(1, -1, 0, 0), "<=", Fraction(1)),
                (qvec(-1, 1, 0, 0), "<=", Fraction(1)),
                (qvec(0, 0, 1, -1), "<=", Fraction(1)),
                (qvec(0, 0, -1, 1), "<=", Fraction(1)),
            ),
        )
        status, payload = lp_solve(problem)
        assert status == OPTIMAL
        value, point = payload
        assert -value == 2
        assert (point[0] - point[1], point[2] - point[3]) == (1, 1)

    def test_infeasible(self):
        # x <= 0 and x >= 1, the second as -x <= -1.
        problem = LpProblem(
            objective=qvec(-1),
            constraints=(
                (qvec(1), "<=", Fraction(0)),
                (qvec(-1), "<=", Fraction(-1)),
            ),
        )
        assert lp_solve(problem) == (INFEASIBLE, None)

    def test_unbounded(self):
        # max x over x >= 0, with no row at all.
        assert lp_solve(LpProblem(qvec(-1), ())) == (UNBOUNDED, None)

    def test_equality_and_min(self):
        # min x + 2y on the segment x + y = 1, x <= 1, x, y >= 0.
        problem = LpProblem(
            objective=qvec(1, 2),
            constraints=(
                (qvec(1, 1), "=", Fraction(1)),
                (qvec(1, 0), "<=", Fraction(1)),
            ),
        )
        status, (value, point) = lp_solve(problem)
        assert status == OPTIMAL
        assert value == 1
        assert point == qvec(1, 0)

    def test_rejects_ge_relation(self):
        with pytest.raises(ValueError, match="bad relation: >="):
            LpProblem(qvec(1), ((qvec(1), ">=", Fraction(0)),))

    @given(
        st.lists(rationals, min_size=2, max_size=2),
        st.lists(
            st.tuples(
                st.lists(rationals, min_size=2, max_size=2),
                st.fractions(min_value=Fraction(1, 4), max_value=Fraction(4), max_denominator=8),
            ),
            min_size=0,
            max_size=4,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_box_lp_matches_brute_force(self, objective, extra_rows):
        # Bounded by the unit box, with extra random <= cuts through it.
        constraints = [
            ([1, 0], "<=", Fraction(1)),
            ([-1, 0], "<=", Fraction(1)),
            ([0, 1], "<=", Fraction(1)),
            ([0, -1], "<=", Fraction(1)),
        ]
        for coeffs, bound in extra_rows:
            constraints.append((coeffs, "<=", bound))
        # max c.x over free x is min -c.x over the pairs (x+, x-).
        problem = LpProblem(
            objective=QVec.of(split([-c for c in objective])),
            constraints=tuple(
                (QVec.of(split(c)), relation, Fraction(b)) for c, relation, b in constraints
            ),
        )
        status, payload = lp_solve(problem)
        assert status == OPTIMAL
        expected_value, _ = brute_force_lp(objective, constraints, sense="max")
        assert -payload[0] == expected_value

    def test_determinism(self):
        # max x + y + z over x, y, z >= 0 with the pairwise sums at most 1.
        problem = LpProblem(
            objective=qvec(-1, -1, -1),
            constraints=(
                (qvec(1, 1, 0), "<=", Fraction(1)),
                (qvec(0, 1, 1), "<=", Fraction(1)),
                (qvec(1, 0, 1), "<=", Fraction(1)),
            ),
        )
        results = {lp_solve(problem) for _ in range(3)}
        assert len(results) == 1
        status, (value, point) = next(iter(results))
        assert value == Fraction(-3, 2)
