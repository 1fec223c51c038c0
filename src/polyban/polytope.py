"""Centrally symmetric rational polytopes serving as unit balls.

A ball is carried in up to two forms: the V-representation (vertices, one
canonical representative per +-pair) and the H-representation (facet
functionals, same convention).  The norm is ``max_j |phi_j(x)|`` and the dual
norm is ``max_v |phi(v)|``; conversion between the two forms is the double
description method, run incrementally with bitmask tight sets.  H -> V
enumerates the vertices of the hrep; V -> H is the same enumeration on the
polar ball, whose H-description is the vrep.  A listed functional is a facet
exactly when its tight vertex set is nonempty and strictly inside no other
signed functional's tight set; no rank is taken to find facets.

The double description runs on Python integers.  The functionals are read
as integer rows over their least common denominator, then signed, deduped
and sorted as integers (`canon_rows`); the first parallelotope comes from
one integer elimination (`exactlin._rref_ints`); vertices are homogeneous
integer vectors; and a pair of vertices with fewer than dim - 1 common
tight constraints is no edge, so it skips the adjacency scan.  Fractions
are built only for the facets and vertices kept.  A ball's fields are
canonical rationals, and equality and hashing use them alone; a completed
ball also keeps its cleared integer form (`Ball.cleared`: facet rows over
one denominator, vertex rows over another), made once on first use, on
which norms, operator norms and the isometry test run.

Symmetry is exploited throughout: only one representative per antipodal pair
is stored, with the canonical sign making the first nonzero coordinate
positive, and representatives sorted lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .errors import CapExceeded, DimensionMismatch, NotANorm, VerificationError
from .exactlin import QVec, _cleared_rows, _primitive, _rref_ints

DIM_CAP = 8


def canon_sign(vec: QVec) -> QVec:
    """Flip the sign so the first nonzero coordinate is positive."""
    for value in vec.entries:
        if value > 0:
            return vec
        if value < 0:
            return -vec
    return vec


def canon_ints(row: Sequence[int]) -> tuple[int, ...]:
    """canon_sign of an integer vector, as a tuple."""
    for value in row:
        if value:
            return tuple(row) if value > 0 else tuple(-x for x in row)
    return tuple(row)


def canon_set(vectors: Sequence[QVec]) -> tuple[QVec, ...]:
    """Canonical storage: one representative per +-pair, deduped, sorted."""
    seen = {canon_sign(v).entries for v in vectors if not v.is_zero()}
    return tuple(QVec(e) for e in sorted(seen))


class IntegerBall(NamedTuple):
    """A completed ball cleared of denominators: ``hrep == facets /
    facet_den`` and ``vrep == vertices / vertex_den``, row for row, each
    denominator the least."""

    facets: tuple[tuple[int, ...], ...]
    facet_den: int
    vertices: tuple[tuple[int, ...], ...]
    vertex_den: int


@dataclass(frozen=True)
class Ball:
    """Unit ball data; either representation may be missing before completion.

    Invariants once completed: both reps present, minimal, canonically
    ordered, and describing the same centrally symmetric full-dimensional
    polytope.  Only a ball that complete_representations returns is marked
    canonical.
    """

    dim: int
    vrep: Optional[tuple[QVec, ...]] = None
    hrep: Optional[tuple[QVec, ...]] = None

    @staticmethod
    def from_vrep(dim: int, vectors: Sequence[QVec]) -> "Ball":
        return Ball(dim, canon_set(vectors), None)

    @staticmethod
    def from_hrep(dim: int, functionals: Sequence[QVec]) -> "Ball":
        return Ball(dim, None, canon_set(functionals))

    def signed_vrep(self) -> list[QVec]:
        if self.vrep is None:
            raise VerificationError("ball has no vrep")
        return [s for v in self.vrep for s in (v, -v)]

    def is_canonical(self) -> bool:
        """True when complete_representations returned this very ball."""
        return "_canonical" in vars(self)

    def cleared(self) -> IntegerBall:
        """The integer form of a ball with both representations, computed
        once per ball and kept on it."""
        form = vars(self).get("_cleared")
        if form is None:
            if self.vrep is None or self.hrep is None:
                raise VerificationError("ball is not completed")
            form = IntegerBall(*_cleared_rows(self.hrep), *_cleared_rows(self.vrep))
            object.__setattr__(self, "_cleared", form)
        return form


def canon_rows(vectors: Sequence[QVec]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """canon_set as integers: the rows ``R`` and denominator ``d`` with
    ``canon_set(vectors) == R / d``, d the least.

    The vectors are cleared over their least common denominator, so integer
    order is rational order, then signed, deduped and sorted; zero rows are
    dropped.  No Fraction arithmetic is done.
    """
    d = lcm(*(x.denominator for v in vectors for x in v.entries))
    seen = {
        canon_ints([x.numerator * (d // x.denominator) for x in v.entries]) for v in vectors
    }
    return tuple(sorted(row for row in seen if any(row))), d


def _check_width(rows: Sequence[Sequence[int]], dim: int) -> None:
    """The row-shape errors of ``QMat.from_rows(rows, cols=dim)``."""
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise DimensionMismatch("ragged rows")
    if widths and dim not in widths:
        raise DimensionMismatch(f"declared cols {dim} != row width {widths.pop()}")


def _rationals(rows: Sequence[Sequence[int]], den: int) -> tuple[QVec, ...]:
    return tuple(QVec(tuple(Fraction(x, den) for x in row)) for row in rows)


def _enumerate_vertices(
    rows: Sequence[Sequence[int]], den: int, dim: int
) -> tuple[list[list[int]], list[int]]:
    """Vertices of {x : |row . x| <= den for every row}, with tight bitmasks.

    Takes integer rows of width dim and ``den > 0``.  Constraints are
    indexed by signed rows (+row k at 2k, -row k at 2k+1); the i-th returned
    mask has bit c set when signed constraint c is tight at the i-th vertex.
    Raises NotANorm when the region is unbounded.

    The arithmetic is on integers.  Signed constraint c reads ``a.x <= q``
    with ``(a, q)`` the primitive multiple of ``(row, den)``; a vertex is a
    homogeneous integer vector ``(n, d)`` with ``d > 0``, standing for
    ``n / d`` and divided by the gcd of its entries, so it is unique; and
    the sign of the slack ``q*d - a.n`` tells inside, on and outside apart.
    The vertices are returned in that form, as lists ``[*n, d]``.
    """
    signed: list[tuple[list[int], int]] = []
    for row in rows:
        *a, q = _primitive([*row, den])
        signed.append((a, q))
        signed.append(([-x for x in a], q))
    m = len(rows)
    # The initial parallelotope: one elimination of [A^t | I] picks the
    # greedy independent rows as the pivots among A^t's columns, and leaves
    # E with E A_c^t diagonal, so column r of A_c^-1 is E_r / p_r.
    reduced, chosen = _rref_ints(
        [[a[j] for a, _ in signed[::2]] + [int(i == j) for i in range(dim)] for j in range(dim)]
    )
    if chosen[-1] >= m:
        raise NotANorm("functionals do not span; the region is unbounded")
    e = lcm(*(row[c] for row, c in zip(reduced, chosen)))
    # The chosen row k = chosen[r] is tight where a_k . x = s_r q_k, so the
    # vertex for signs s is (1/e) sum_r s_r cols[r].
    cols = [
        [signed[2 * c][1] * (e // row[c]) * x for x in row[m:]]
        for row, c in zip(reduced, chosen)
    ]

    # Initial vertices: one per sign vector s, where the chosen row k =
    # chosen[r] is tight with sign s_r (+row k at bit 2k, -row k at 2k+1).
    # Vertex number sum_r b_r 2^r has s_r = (-1)^b_r; the sums are built by
    # doubling the list once per column, the last column first.
    partial: list[tuple[list[int], int]] = [([0] * dim, 0)]
    for col, k in zip(reversed(cols), reversed(chosen)):
        steps = ((col, 1 << 2 * k), ([-x for x in col], 1 << 2 * k + 1))
        partial = [
            ([x + y for x, y in zip(v, step)], mask | bit)
            for v, mask in partial
            for step, bit in steps
        ]
    vertices = [_primitive([*v, e]) for v, _ in partial]
    masks = [mask for _, mask in partial]
    processed = {c for k in chosen for c in (2 * k, 2 * k + 1)}

    # Add the remaining signed constraints one at a time.
    for c, (a, q) in enumerate(signed):
        if c in processed:
            continue
        slack = [q * v[-1] - sum(map(mul, a, v)) for v in vertices]
        inside = [i for i, g in enumerate(slack) if g > 0]
        on = [i for i, g in enumerate(slack) if g == 0]
        outside = [i for i, g in enumerate(slack) if g < 0]
        if not outside:
            for i in on:
                masks[i] |= 1 << c
            continue
        new_vertices: list[list[int]] = []
        new_masks: list[int] = []
        for i in inside:
            for j in outside:
                common = masks[i] & masks[j]
                # An edge lies on at least dim - 1 tight constraints, so a
                # pair with fewer in common is no edge; the combinatorial
                # test below would reject it too, only later.
                if common.bit_count() < dim - 1:
                    continue
                # Combinatorial adjacency: no third vertex's tight set
                # contains the common tight set.
                adjacent = True
                for k, mk in enumerate(masks):
                    if k != i and k != j and common & mk == common:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                # The point of the edge where the slack is 0; both weights
                # are positive, so the denominator stays positive.
                si, sj = slack[i], slack[j]
                point = [si * y - sj * x for x, y in zip(vertices[i], vertices[j])]
                new_vertices.append(_primitive(point))
                new_masks.append(common | (1 << c))
        on_set = set(on)
        keep_idx = inside + on
        vertices = [vertices[i] for i in keep_idx] + new_vertices
        masks = [
            masks[i] | ((1 << c) if i in on_set else 0) for i in keep_idx
        ] + new_masks
    # The points are distinct vertices with exact tight sets.  A new point
    # lies strictly inside an edge, since both weights are positive; the
    # combinatorial test admits only true edges, and distinct edges have
    # disjoint interiors, so no two points coincide; and a constraint tight
    # inside an edge is tight along the whole edge, so common | bit c is the
    # exact tight set.
    return vertices, masks


def _canon_points(points: list[list[int]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """canon_rows of homogeneous integer points ``[*n, d]`` with ``d > 0``.

    The points are brought to their least common denominator, so integer
    order is rational order, then signed, deduped and sorted as integers.
    """
    common = lcm(*(p[-1] for p in points))
    seen = {canon_ints([x * (common // p[-1]) for x in p[:-1]]) for p in points}
    return tuple(sorted(seen)), common


def _vertices_and_facets(
    rows: tuple[tuple[int, ...], ...], den: int, dim: int
) -> tuple[tuple[tuple[tuple[int, ...], ...], int], tuple[tuple[int, ...], ...]]:
    """Canonical vertices (integer rows and their denominator) and the
    facet rows of {x : |row . x| <= den}.

    Takes canonical rows.  Each signed row is tight on a face; every proper
    face lies in a facet, and every facet is listed, so a row is a facet
    exactly when its tight vertex set is nonempty and strictly inside no
    other signed row's tight set.  Both signs are compared, so the rule
    needs no argument about the canonical sign.
    """
    points, masks = _enumerate_vertices(rows, den, dim)
    # tight[c] has bit i set when signed constraint c is tight at vertex i.
    tight = [0] * (2 * len(rows))
    for i, m in enumerate(masks):
        while m:
            tight[(m & -m).bit_length() - 1] |= 1 << i
            m &= m - 1
    facets = []
    for k, row in enumerate(rows):
        own = tight[2 * k]
        if own and not any(own & t == own and own != t for t in tight):
            facets.append(row)
    return _canon_points(points), tuple(facets)


def _canonical(ball: Ball) -> Ball:
    object.__setattr__(ball, "_canonical", True)
    return ball


def complete_representations(ball: Ball) -> Ball:
    """Fill in the missing representation and canonically minimalize both.

    H -> V is vertex enumeration of the hrep; V -> H is the same routine run
    on the polar, whose H-description is the generators: the polar's
    vertices are the ball's facets and its facets the ball's vertices.
    Idempotent; marks the result canonical.  Raises NotANorm when the data
    does not describe a norm and CapExceeded past DIM_CAP.  Every Space's
    ball comes from here, so this is the one check of the hard cap.
    """
    dim = ball.dim
    if dim > DIM_CAP:
        raise CapExceeded(f"dimension {dim} exceeds cap {DIM_CAP}")
    if dim == 0:
        return _canonical(Ball(0, (), ()))
    if ball.vrep is None and ball.hrep is None:
        raise NotANorm("ball has neither representation")
    if ball.vrep is None:
        rows, den = canon_rows(ball.hrep)
        _check_width(rows, dim)
        (vertices, vden), facets = _vertices_and_facets(rows, den, dim)
        return _canonical(Ball(dim, _rationals(vertices, vden), _rationals(facets, den)))

    gens, gden = canon_rows(ball.vrep)
    _check_width(gens, dim)
    try:
        (hrep, hden), vrep = _vertices_and_facets(gens, gden, dim)
    except NotANorm:
        # The polar is unbounded exactly when the generators do not span.
        raise NotANorm("vertices do not span; the ball is degenerate") from None
    if ball.hrep is not None and (declared := canon_rows(ball.hrep)) != (hrep, hden):
        # Mutual containment against the declared hrep, on integer rows
        # over one denominator.  The generators satisfy every facet of
        # their own hull, so only the declared rows that are no facets are
        # tested on them; and the declared region lies inside the hull
        # exactly when it lists every facet, since each facet appears, with
        # right-hand side 1, in any H-description of the hull.
        rows, den = declared
        wrong = {len(row) for row in rows} - {dim}
        if wrong:
            raise DimensionMismatch(f"vector dims {min(wrong)} != {dim}")
        scale = lcm(den, hden)
        declared_rows = {tuple(x * (scale // den) for x in row) for row in rows}
        facets = {tuple(x * (scale // hden) for x in row) for row in hrep}
        extras = declared_rows - facets
        bound = scale * gden
        if any(abs(sum(map(mul, phi, g))) > bound for g in gens for phi in extras):
            raise NotANorm("vrep point violates declared hrep")
        if not facets <= declared_rows:
            raise NotANorm("declared hrep region is larger than the hull")
    return _canonical(Ball(dim, _rationals(vrep, gden), _rationals(hrep, hden)))
