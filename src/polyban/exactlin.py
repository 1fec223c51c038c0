"""Exact rational scalars, vectors, matrices, elimination, and the simplex.

Every quantity a caller sees is a ``fractions.Fraction``; nothing in this
module (or in the modules built on it) touches floating point.  Elimination
is fraction-free inside: its core `_rref_ints` eliminates integer rows
without division, and `_rref` clears each rational row to integers, runs
it, and converts back to canonical fractions only at return.  Matrix-vector
and matrix-matrix products run on the cleared forms (`QMat.cleared`, kept
on each matrix) and build one ``Fraction`` per output entry.
The exact simplex `lp_solve` takes standard-form problems only (minimize
over nonnegative variables, ``<=`` and ``=`` rows); it is the LP behind
`rationalize.extend_functional`.  Determinism matters as much as exactness
here: elimination pivots, simplex pivots, and tie-breaks all follow fixed
index order so that repeated runs produce identical results.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence, Union

from .errors import DimensionMismatch, ParseError

RatLike = Union[int, str, Fraction]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LE = "<="
EQ = "="

_RAT_GRAMMAR = re.compile(r"-?[0-9]+(/[0-9]+)?")

_TOO_LONG = f"an integer of more than {sys.get_int_max_str_digits()} digits"


def rat(value: RatLike) -> Fraction:
    """Convert an int, a ``p/q`` string, or a Fraction to an exact rational.

    Strings must match ``-?[0-9]+(/[0-9]+)?`` once surrounding whitespace is
    stripped; decimals, exponents, underscores and non-ASCII digits are
    rejected, so a number's size is bounded by the length of its text.

    Examples:
        >>> rat("3/4")
        Fraction(3, 4)
        >>> rat(-2)
        Fraction(-2, 1)
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RAT_GRAMMAR.fullmatch(text := value.strip()):
        num, _, den = text.partition("/")
        try:
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        except ZeroDivisionError as exc:
            raise ParseError(f"not a rational: {value!r}") from exc
        except ValueError as exc:
            raise ParseError(f"not a rational: {_TOO_LONG}") from exc
    raise ParseError(f"not a rational: {value!r}")


def rat_str(value: Fraction) -> str:
    """Canonical ``p/q`` form; the denominator is omitted when it is 1."""
    return str(value)


@dataclass(frozen=True)
class QVec:
    """Immutable rational vector."""

    entries: tuple[Fraction, ...]

    @staticmethod
    def of(values: Iterable[RatLike]) -> "QVec":
        return QVec(tuple(rat(v) for v in values))

    @staticmethod
    def zero(dim: int) -> "QVec":
        return QVec((Fraction(0),) * dim)

    @staticmethod
    def unit(dim: int, index: int) -> "QVec":
        return QVec(tuple(Fraction(1 if i == index else 0) for i in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index: int) -> Fraction:
        return self.entries[index]

    def __add__(self, other: "QVec") -> "QVec":
        self._check(other)
        return QVec(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "QVec") -> "QVec":
        self._check(other)
        return QVec(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "QVec":
        return QVec(tuple(-a for a in self.entries))

    def scale(self, factor: RatLike) -> "QVec":
        c = rat(factor)
        return QVec(tuple(c * a for a in self.entries))

    def dot(self, other: "QVec") -> Fraction:
        self._check(other)
        return sum((a * b for a, b in zip(self.entries, other.entries)), Fraction(0))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def concat(self, other: "QVec") -> "QVec":
        return QVec(self.entries + other.entries)

    def _check(self, other: "QVec") -> None:
        if len(self.entries) != len(other.entries):
            raise DimensionMismatch(
                f"vector dims {len(self.entries)} != {len(other.entries)}"
            )


@dataclass(frozen=True)
class QMat:
    """Immutable rational matrix, stored by rows.

    ``rows == 0`` or ``cols == 0`` is legal; maps in and out of the
    zero-dimensional space are everywhere in the chain construction.
    """

    entries: tuple[tuple[Fraction, ...], ...]
    shape: tuple[int, int]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[RatLike]], cols: Optional[int] = None) -> "QMat":
        data = tuple(tuple(rat(v) for v in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise DimensionMismatch("ragged rows")
            if cols is not None and cols != width:
                raise DimensionMismatch(f"declared cols {cols} != row width {width}")
        else:
            width = 0 if cols is None else cols
        return QMat(data, (len(data), width))

    @staticmethod
    def identity(n: int) -> "QMat":
        if n < 0:
            raise DimensionMismatch(f"negative size {n}")
        one, zero = Fraction(1), Fraction(0)
        rows = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        return QMat(rows, (n, n))

    @staticmethod
    def zeros(rows: int, cols: int) -> "QMat":
        if rows < 0 or cols < 0:
            raise DimensionMismatch(f"negative shape ({rows}, {cols})")
        return QMat(tuple((Fraction(0),) * cols for _ in range(rows)), (rows, cols))

    @staticmethod
    def from_cols(cols: Sequence[QVec], rows: Optional[int] = None) -> "QMat":
        if cols:
            height = cols[0].dim
            if any(c.dim != height for c in cols):
                raise DimensionMismatch("ragged columns")
            if rows is not None and rows != height:
                raise DimensionMismatch(f"declared rows {rows} != column height {height}")
        else:
            height = 0 if rows is None else rows
        return QMat.from_rows(
            [[cols[j][i] for j in range(len(cols))] for i in range(height)],
            cols=len(cols),
        )

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    def row(self, i: int) -> QVec:
        return QVec(self.entries[i])

    def cleared(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """Integer rows ``M`` and the least ``E > 0`` with ``self == M / E``.

        Computed once per matrix and kept on it; equality and hashing stay
        on ``entries``.
        """
        form = vars(self).get("_cleared")
        if form is None:
            form = _cleared_rows(self.entries)
            object.__setattr__(self, "_cleared", form)
        return form

    def col(self, j: int) -> QVec:
        return QVec(tuple(self.entries[i][j] for i in range(self.rows)))

    def transpose(self) -> "QMat":
        return QMat(
            tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
            (self.cols, self.rows),
        )

    def apply(self, v: QVec) -> QVec:
        """``(M / E)(n / d)``: integer dot products on the cleared forms, one
        Fraction per output entry."""
        if v.dim != self.cols:
            raise DimensionMismatch(f"matrix cols {self.cols} != vector dim {v.dim}")
        rows, e = self.cleared()
        n, d = _cleared(v.entries)
        den = e * d
        return QVec(tuple(Fraction(sum(map(mul, row, n)), den) for row in rows))

    def __matmul__(self, other: "QMat") -> "QMat":
        """``(A / E)(B / F)``: integer products on the cleared forms, one
        Fraction per output entry."""
        if self.cols != other.rows:
            raise DimensionMismatch(f"inner dims {self.cols} != {other.rows}")
        a, e = self.cleared()
        b, f = other.cleared()
        cols = list(zip(*b)) if b else [()] * other.cols
        den = e * f
        return QMat(
            tuple(tuple(Fraction(sum(map(mul, row, col)), den) for col in cols) for row in a),
            (self.rows, other.cols),
        )

    def __add__(self, other: "QMat") -> "QMat":
        if self.shape != other.shape:
            raise DimensionMismatch(f"shapes {self.shape} != {other.shape}")
        return QMat(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            ),
            self.shape,
        )

    def __sub__(self, other: "QMat") -> "QMat":
        if self.shape != other.shape:
            raise DimensionMismatch(f"shapes {self.shape} != {other.shape}")
        return QMat(
            tuple(
                tuple(a - b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            ),
            self.shape,
        )

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.entries for a in row)

    def hstack(self, other: "QMat") -> "QMat":
        if self.rows != other.rows:
            raise DimensionMismatch(f"row counts {self.rows} != {other.rows}")
        return QMat(
            tuple(r1 + r2 for r1, r2 in zip(self.entries, other.entries)),
            (self.rows, self.cols + other.cols),
        )

    def vstack(self, other: "QMat") -> "QMat":
        if self.cols != other.cols:
            raise DimensionMismatch(f"col counts {self.cols} != {other.cols}")
        return QMat(self.entries + other.entries, (self.rows + other.rows, self.cols))


def block_diag(a: QMat, b: QMat) -> QMat:
    top = a.hstack(QMat.zeros(a.rows, b.cols))
    bottom = QMat.zeros(b.rows, a.cols).hstack(b)
    return top.vstack(bottom)


def _cleared(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers n and the least d > 0 with ``values == n / d``."""
    d = lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def _cleared_rows(
    rows: Sequence[Sequence[Fraction]],
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer rows and the least d > 0 with ``rows == integer rows / d``."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in rows), d


def _primitive(ints: list[int]) -> list[int]:
    """An integer vector divided by the gcd of its entries; signs are kept.

    A zero vector, whose gcd is 0, comes back as it is.
    """
    g = gcd(*ints)
    return ints if g <= 1 else [x // g for x in ints]


def _rref_ints(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Integer reduced row echelon form; returns (rows, pivot columns).

    Pivot choice is the first row with a nonzero entry in the current column,
    scanning columns left to right: fully deterministic.  ``p*row_i -
    f*row_r`` replaces a rational row operation, and every row is kept
    divided by the gcd of its entries with its sign unchanged, so each row
    is a nonzero multiple of the rational row it stands for.  Row ``r`` of
    the result is row ``r`` of the reduced echelon form times its pivot
    entry ``rows[r][pivots[r]]``, which may be negative; only the rows with
    a pivot are returned.
    """
    work = [_primitive(list(row)) for row in rows]
    if not work:
        return [], []
    pivots: list[int] = []
    r = 0
    for c in range(len(work[0])):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        top = work[r]
        p = top[c]
        for i in range(len(work)):
            f = work[i][c]
            if i != r and f:
                work[i] = _primitive([p * x - f * y for x, y in zip(work[i], top)])
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot columns).

    `_rref_ints` on the rows cleared of denominators; a pivot row is divided
    by its pivot only at the end, and since the reduced echelon form is
    unique, so is the result.
    """
    work, pivots = _rref_ints([_cleared(row)[0] for row in rows])
    return [[Fraction(x, row[c]) for x in row] for row, c in zip(work, pivots)], pivots


def pivot_columns(a: QMat) -> list[int]:
    """The columns of ``a`` outside the span of the columns before them.

    These are the pivots of the reduced echelon form, picked left to right,
    so they are the greedy choice of an independent set of columns.

    Examples:
        >>> pivot_columns(QMat.from_rows([[1, 2, 0], [2, 4, 1]]))
        [0, 2]
    """
    return _rref([list(row) for row in a.entries])[1]


def rank(a: QMat) -> int:
    return len(pivot_columns(a))


def solve(a: QMat, b: QMat) -> Optional[QMat]:
    """One exact solution X of ``a X = b`` with free variables set to 0, or None.

    One elimination of ``[a | b]`` solves every column of ``b``; a pivot in
    the ``b`` block means some column is not in the column span of ``a``.

    Examples:
        >>> a = QMat.from_rows([[1, 1], [2, 2]])
        >>> solve(a, QMat.from_rows([[3, 1], [6, 2]])).entries
        ((Fraction(3, 1), Fraction(1, 1)), (Fraction(0, 1), Fraction(0, 1)))
        >>> solve(a, QMat.from_rows([[3], [7]])) is None
        True
    """
    if b.rows != a.rows:
        raise DimensionMismatch(f"matrix rows {a.rows} != rhs rows {b.rows}")
    reduced, pivots = _rref([list(ra + rb) for ra, rb in zip(a.entries, b.entries)])
    if pivots and pivots[-1] >= a.cols:
        return None
    solution = [(Fraction(0),) * b.cols] * a.cols
    for row, col in zip(reduced, pivots):
        solution[col] = tuple(row[a.cols :])
    return QMat(tuple(solution), (a.cols, b.cols))


def solve_linear(a: QMat, b: QVec) -> Optional[QVec]:
    """One exact solution of ``a x = b`` with free variables set to 0, or None.

    Examples:
        >>> solve_linear(QMat.from_rows([[2, 0], [0, 4]]), QVec.of([1, 1]))
        QVec(entries=(Fraction(1, 2), Fraction(1, 4)))
    """
    x = solve(a, QMat.from_cols([b]))
    return None if x is None else x.col(0)


def invert(a: QMat) -> QMat:
    """Exact inverse of a square matrix; raises if singular."""
    if a.rows != a.cols:
        raise DimensionMismatch(f"not square: {a.shape}")
    inverse = solve(a, QMat.identity(a.rows))
    if inverse is None:
        raise ValueError("matrix is singular")
    return inverse


@dataclass(frozen=True)
class LpProblem:
    """A linear program in standard form: minimize ``objective . x`` over x >= 0.

    ``constraints`` are (coefficients, relation, bound) with relation ``<=``
    or ``=``.  A free variable is posed as a (+, -) pair of columns, a
    maximum as the minimum of the negated objective, and a ``>=`` row as a
    negated ``<=`` row.
    """

    objective: QVec
    constraints: tuple[tuple[QVec, str, Fraction], ...]

    def __post_init__(self):
        for coeffs, relation, _ in self.constraints:
            if relation not in (LE, EQ):
                raise ValueError(f"bad relation: {relation}")
            if coeffs.dim != self.objective.dim:
                raise DimensionMismatch("constraint width != objective width")


def lp_solve(problem: LpProblem) -> tuple[str, Optional[tuple[Fraction, QVec]]]:
    """Exact two-phase simplex with Bland's rule.

    Returns (status, payload) with payload = (optimal value, witness point)
    when status is ``optimal`` and None otherwise.  Bland's rule (least index
    entering, least ratio then least basic index leaving) makes the run
    deterministic and cycle-free.
    """
    n = problem.objective.dim
    m = len(problem.constraints)
    # Column layout: the variables, one slack per <= row, then one artificial
    # per row whose slack cannot start basic: an = row, or a <= row with a
    # negative bound, which is negated so that every bound is nonnegative.
    slack_col: dict[int, int] = {}
    for i, (_, relation, _) in enumerate(problem.constraints):
        if relation == LE:
            slack_col[i] = n + len(slack_col)
    total_core = n + len(slack_col)
    art_col: dict[int, int] = {}
    for i, (_, relation, bound) in enumerate(problem.constraints):
        if relation == EQ or rat(bound) < 0:
            art_col[i] = total_core + len(art_col)
    art_cols = list(art_col.values())
    width = total_core + len(art_cols)

    tab: list[list[Fraction]] = []
    basis: list[int] = []
    for i, (coeffs, _, bound) in enumerate(problem.constraints):
        row = list(coeffs.entries) + [Fraction(0)] * (width - n) + [rat(bound)]
        if i in slack_col:
            row[slack_col[i]] = Fraction(1)
        if row[-1] < 0:
            row = [-x for x in row]
        if i in art_col:
            row[art_col[i]] = Fraction(1)
            basis.append(art_col[i])
        else:
            basis.append(slack_col[i])
        tab.append(row)

    def pivot(row_index: int, col_index: int) -> None:
        inv = Fraction(1) / tab[row_index][col_index]
        tab[row_index] = [x * inv for x in tab[row_index]]
        pivot_row = tab[row_index]
        for i in range(m):
            if i != row_index and tab[i][col_index] != 0:
                factor = tab[i][col_index]
                tab[i] = [x - factor * y for x, y in zip(tab[i], pivot_row)]
        basis[row_index] = col_index

    def run_simplex(cost: list[Fraction]) -> str:
        """Bland's pivots with only the core columns entering; phase 1 bans
        exactly the artificials, which are the columns from total_core on."""
        while True:
            in_basis = set(basis)
            # Reduced costs: cost_j - cost_B . column_j, Bland: least index < 0.
            dual = [cost[basis[i]] for i in range(m)]
            entering = -1
            for j in range(total_core):
                if j in in_basis:
                    continue
                reduced = cost[j] - sum(
                    (dual[i] * tab[i][j] for i in range(m)), Fraction(0)
                )
                if reduced < 0:
                    entering = j
                    break
            if entering < 0:
                return OPTIMAL
            leaving = -1
            best: Optional[Fraction] = None
            for i in range(m):
                a = tab[i][entering]
                if a > 0:
                    ratio = tab[i][-1] / a
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leaving]
                    ):
                        best = ratio
                        leaving = i
            if leaving < 0:
                return UNBOUNDED
            pivot(leaving, entering)

    # Phase 1: minimize sum of artificials.
    if art_cols:
        cost1 = [Fraction(0)] * width
        for j in art_cols:
            cost1[j] = Fraction(1)
        status = run_simplex(cost1)
        if status != OPTIMAL:
            raise AssertionError("phase 1 cannot be unbounded")
        phase1_value = sum(
            (tab[i][-1] for i in range(m) if basis[i] in art_cols), Fraction(0)
        )
        if phase1_value != 0:
            return INFEASIBLE, None
        # Drive lingering artificials out of the basis.
        for i in range(m):
            if basis[i] in art_cols:
                entering = -1
                for j in range(total_core):
                    if tab[i][j] != 0:
                        entering = j
                        break
                if entering >= 0:
                    pivot(i, entering)
        # Rows still basic in an artificial are identically zero: harmless.

    # Phase 2 over core columns only.
    cost2 = list(problem.objective.entries) + [Fraction(0)] * (width - n)
    status = run_simplex(cost2)
    if status == UNBOUNDED:
        return UNBOUNDED, None

    values = [Fraction(0)] * width
    for i in range(m):
        values[basis[i]] = tab[i][-1]
    point = QVec(tuple(values[:n]))
    return OPTIMAL, (problem.objective.dot(point), point)
