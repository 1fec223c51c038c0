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

The double description runs on Python integers and keeps one vertex per
+-pair.  The functionals are read as integer rows over their least common
denominator, then signed, deduped and sorted as integers (`canon_rows`).
The first parallelotope comes from one integer elimination
(`exactlin._rref_ints`), with the sign of its first row fixed, so it has
2^(dim-1) representatives; vertices are homogeneous integer vectors.  Each
further row cuts its slab ``|a.x| <= q`` in one step: the new vertices on
``a.x = -q`` are the partners of those on ``a.x = q``, so only the latter
are computed.  A tight mask has +row k at bit 2k and -row k at 2k+1, so a
vertex's partner is tight at the partner bits ``c ^ 1``.  A pair of
vertices with fewer than dim - 1 common tight constraints is no edge, so it
skips the adjacency scan.  Fractions are built only for the facets and
vertices kept, one per distinct entry.  A ball's fields are canonical
rationals, and equality and hashing use them alone; a completed ball also
keeps the cleared integer form its completion computed in (`Ball.cleared`:
facet rows over one least denominator, vertex rows over another), on which
norms, operator norms and the isometry test run.

Symmetry is exploited throughout: only one representative per antipodal pair
is stored, with the canonical sign making the first nonzero coordinate
positive, and representatives sorted lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .errors import CapExceeded, DimensionMismatch, NotANorm, VerificationError
from .exactlin import QVec, _primitive, _rref_ints

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
        return "_cleared" in vars(self)

    def cleared(self) -> IntegerBall:
        """The integer form that complete_representations computed this
        ball in and kept on it."""
        form = vars(self).get("_cleared")
        if form is None:
            raise VerificationError("ball is not completed")
        return form


def canon_rows(vectors: Sequence[QVec]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Canonical storage as integers: the rows ``R`` and the least
    denominator ``d`` with ``canon_set(vectors) == R / d``.

    The vectors are cleared over their least common denominator, so integer
    order is rational order, then signed, deduped and sorted; zero rows are
    dropped.  No Fraction arithmetic is done.
    """
    d = lcm(*(x.denominator for v in vectors for x in v.entries))
    seen = {
        canon_ints([x.numerator * (d // x.denominator) for x in v.entries]) for v in vectors
    }
    return tuple(sorted(row for row in seen if any(row))), d


def canon_set(vectors: Sequence[QVec]) -> tuple[QVec, ...]:
    """Canonical storage: one representative per +-pair with its first
    nonzero coordinate positive, deduped, sorted; zero vectors dropped."""
    return _rationals(*canon_rows(vectors))


def _check_width(rows: Sequence[Sequence[int]], dim: int) -> None:
    """The row-shape errors of ``QMat.from_rows(rows, cols=dim)``."""
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise DimensionMismatch("ragged rows")
    if widths and dim not in widths:
        raise DimensionMismatch(f"declared cols {dim} != row width {widths.pop()}")


def _rationals(rows: Sequence[Sequence[int]], den: int) -> tuple[QVec, ...]:
    """Integer rows over ``den`` as QVecs; equal entries share one Fraction."""
    made = {x: Fraction(x, den) for x in set(chain.from_iterable(rows))}
    return tuple(QVec(tuple(map(made.__getitem__, row))) for row in rows)


def _least(rows: Sequence[Sequence[int]], den: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer rows over ``den`` divided by the gcd of ``den`` and their
    entries: the same rationals, over the least denominator."""
    g = gcd(den, *chain.from_iterable(rows))
    return tuple(tuple(x // g for x in row) for row in rows), den // g


def _enumerate_vertices(
    rows: Sequence[Sequence[int]], den: int, dim: int
) -> tuple[list[list[int]], list[int]]:
    """Vertices of {x : |row . x| <= den for every row}, one representative
    per +-pair, with tight bitmasks.

    Takes integer rows of width dim and ``den > 0``.  Constraints are
    indexed by signed rows (+row k at bit 2k, -row k at 2k+1); the i-th
    returned mask has bit c set when signed constraint c is tight at the
    i-th representative v.  The partner -v is a vertex too, tight exactly at
    the partner constraints ``c ^ 1``.  Raises NotANorm when the region is
    unbounded.  The representatives come in no set order or sign.

    The arithmetic is on integers.  Row k reads ``|a.x| <= q`` with ``(a,
    q)`` the primitive multiple of ``(row, den)``; a vertex is a homogeneous
    integer vector ``(n, d)`` with ``d > 0``, standing for ``n / d`` and
    divided by the gcd of its entries, so it is unique; and the sign of the
    slack ``q*d - a.n`` tells inside, on and outside apart.  The vertices
    are returned in that form, as lists ``[*n, d]``.

    The first parallelotope has the sign of its first chosen row fixed.
    Each further row cuts its slab in one step.  Every representative is
    turned to the side ``a.n >= 0`` (negating it swaps each mask bit 2c with
    its partner 2c+1), so its partner is inside, and classified once:
    inside, on ``a.x = q`` (tight at +row k) or outside, where it goes with
    its partner.  The new vertices on ``a.x = -q`` are the partners of those
    on ``a.x = q``, so only the latter are made: one on each edge from an
    outside w to a signed vertex below ``a.x = q``, which is +v or -v of an
    inside v, or -v of an on or outside v (w and -w are adjacent in dim 1).
    """
    cuts = [_primitive([*row, den]) for row in rows]
    m = len(rows)
    # The initial parallelotope: one elimination of [A^t | I] picks the
    # greedy independent rows as the pivots among A^t's columns, and leaves
    # E with E A_c^t diagonal, so column r of A_c^-1 is E_r / p_r.
    reduced, chosen = _rref_ints(
        [[cut[j] for cut in cuts] + [int(i == j) for i in range(dim)] for j in range(dim)]
    )
    if chosen[-1] >= m:
        raise NotANorm("functionals do not span; the region is unbounded")
    e = lcm(*(row[c] for row, c in zip(reduced, chosen)))
    # The chosen row k = chosen[r] is tight where a_k . x = s_r q_k, so the
    # vertex for signs s is (1/e) sum_r s_r cols[r].
    cols = [
        [cuts[c][-1] * (e // row[c]) * x for x in row[m:]]
        for row, c in zip(reduced, chosen)
    ]

    # Initial representatives: one per sign vector s with s_0 = +1, where
    # the chosen row k = chosen[r] is tight with sign s_r (+row k at bit 2k,
    # -row k at 2k+1); the vertex for -s is the partner.
    partial = [(cols[0], 1 << 2 * chosen[0])]
    for col, k in zip(cols[1:], chosen[1:]):
        steps = ((col, 1 << 2 * k), ([-x for x in col], 2 << 2 * k))
        partial = [
            ([x + y for x, y in zip(v, step)], mask | bit)
            for v, mask in partial
            for step, bit in steps
        ]
    vertices = [_primitive([*v, e]) for v, _ in partial]
    masks = [mask for _, mask in partial]
    # The +row bits; a partner's mask swaps them with the -row bits.
    plus_bits = sum(1 << 2 * k for k in range(m))
    chosen_set = set(chosen)

    # Cut the slabs of the remaining rows one at a time.
    for k, (*a, q) in enumerate(cuts):
        if k in chosen_set:
            continue
        plus = 1 << 2 * k
        dots = []
        for i, v in enumerate(vertices):
            t = sum(map(mul, a, v))
            if t < 0:
                t = -t
                v[:-1] = [-x for x in v[:-1]]
                mask = masks[i]
                masks[i] = (mask & plus_bits) << 1 | (mask >> 1) & plus_bits
            dots.append(t)
        slack = [q * v[-1] - t for v, t in zip(vertices, dots)]
        inside = [i for i, g in enumerate(slack) if g > 0]
        on = [i for i, g in enumerate(slack) if not g]
        outside = [i for i, g in enumerate(slack) if g < 0]
        n = len(vertices)
        # Signed vertex i < n is +vertices[i] and n + i is -vertices[i].
        signed = masks + [(mask & plus_bits) << 1 | (mask >> 1) & plus_bits for mask in masks]
        below = inside + list(range(n, 2 * n))
        new_vertices: list[list[int]] = []
        new_masks: list[int] = []
        for j in outside:
            w, sw, mw = vertices[j], slack[j], masks[j]
            for p in below:
                common = mw & signed[p]
                # An edge lies on at least dim - 1 tight constraints, so a
                # pair with fewer in common is no edge; the combinatorial
                # test below would reject it too, only later.
                if common.bit_count() < dim - 1:
                    continue
                # Combinatorial adjacency: no third signed vertex's tight
                # set contains the common tight set.  Both ends contain it
                # and no two vertices share a tight set, so a third is a
                # third hit.
                hits = 0
                for mask in signed:
                    if common & mask == common:
                        hits += 1
                        if hits > 2:
                            break
                if hits > 2:
                    continue
                # The point of the edge where a.x = q, su * w - sw * u for
                # the signed vertex u = (+-n_u, d_u) below, of slack su > 0;
                # sw < 0, so the denominator stays positive.
                if p < n:
                    u, su = vertices[p], slack[p]
                    point = [su * x - sw * y for x, y in zip(w, u)]
                else:
                    u = vertices[p - n]
                    su = q * u[-1] + dots[p - n]
                    point = [su * x + sw * y for x, y in zip(w, u)]
                    point[-1] = su * w[-1] - sw * u[-1]
                new_vertices.append(_primitive(point))
                new_masks.append(common | plus)
        vertices = [vertices[i] for i in inside + on] + new_vertices
        masks = [masks[i] for i in inside] + [masks[i] | plus for i in on] + new_masks
    # The points are the vertices, one per +-pair, with exact tight sets.
    # A new point lies strictly inside an edge, since both weights are
    # positive; the combinatorial test admits only true edges, and distinct
    # edges have disjoint interiors, so no two points coincide; new points
    # lie on a.x = q and their partners on a.x = -q, so no two of them are
    # partners; and a constraint tight inside an edge is tight along the
    # whole edge, so common | bit 2k is the exact tight set.
    return vertices, masks


def _canon_points(points: list[list[int]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """canon_rows of homogeneous integer points ``[*n, d]`` with ``d > 0``,
    one per +-pair.

    The points are brought to their least common denominator, so integer
    order is rational order, then signed and sorted as integers.
    """
    common = lcm(*(p[-1] for p in points))
    rows = (canon_ints([x * (common // p[-1]) for x in p[:-1]]) for p in points)
    return tuple(sorted(rows)), common


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
    # rep[c] has bit i set when signed constraint c is tight at points[i].
    rep = [0] * (2 * len(rows))
    for i, m in enumerate(masks):
        while m:
            rep[(m & -m).bit_length() - 1] |= 1 << i
            m &= m - 1
    # tight[c] over the signed vertices: bit i for points[i] and bit n + i
    # for its partner, which is tight at c exactly when points[i] is at c ^ 1.
    n = len(points)
    tight = [rep[c] | rep[c ^ 1] << n for c in range(len(rep))]
    facets = []
    for k, row in enumerate(rows):
        own = tight[2 * k]
        if own and not any(own & t == own and own != t for t in tight):
            facets.append(row)
    return _canon_points(points), tuple(facets)


def _completed(dim: int, form: IntegerBall) -> Ball:
    """The canonical ball of a completion, keeping the integer form it was
    computed in as its `Ball.cleared`, which also marks it canonical."""
    ball = Ball(
        dim, _rationals(form.vertices, form.vertex_den), _rationals(form.facets, form.facet_den)
    )
    object.__setattr__(ball, "_cleared", form)
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
        return _completed(0, IntegerBall((), 1, (), 1))
    if ball.vrep is None and ball.hrep is None:
        raise NotANorm("ball has neither representation")
    if ball.vrep is None:
        rows, den = canon_rows(ball.hrep)
        _check_width(rows, dim)
        (vertices, vden), facets = _vertices_and_facets(rows, den, dim)
        return _completed(dim, IntegerBall(*_least(facets, den), vertices, vden))

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
    return _completed(dim, IntegerBall(hrep, hden, *_least(vrep, gden)))
