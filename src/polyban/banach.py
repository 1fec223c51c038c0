"""Finite-dimensional spaces with polytopal rational norms, and linear maps.

A Space is a coordinate space Q^n together with a completed unit Ball; a
LinMap is a rational matrix between two such spaces.  Everything downstream
(amalgams, repairs, chains) is phrased in terms of the operations here:
norm and dual norm evaluation, operator norm, the exact lower isometry
bound over the unit sphere, embedding classification, l1 sums, quotients
and pullbacks.

All values are exact rationals; every optimum is attained at a vertex of a
completed ball, never sampled.  A Space's ball is always canonical, so the
facet lemma certifies an isometry with no double description.

The evaluations run on integers: a ball's cleared form (`Ball.cleared`,
kept on the ball once made) holds its facets as rows over one denominator
and its vertices as rows over another, and a matrix's (`QMat.cleared`) is
``M / E``.  A norm is the integer max of ``|a . n|`` over the facet rows
``a`` for ``x == n / d``; an operator norm pulls the codomain facet rows
through ``M`` once and takes the integer max over the domain vertex rows;
each builds one Fraction, at return.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import DimensionMismatch, PreconditionError
from .exactlin import QMat, QVec, _cleared, _rref, rank, rat
from .polytope import Ball, canon_ints, complete_representations

ISOMETRIC = "isometric"
STRICT_EPS = "strict-eps"
EPS = "eps"
NOT_EPS = "not-eps"


@dataclass(frozen=True)
class Space:
    """Q^dim with a canonical unit ball.  The ball may be given by its vrep,
    its hrep or both, listing redundant rows; it is stored completed, and
    this is the one place a ball is completed."""

    dim: int
    ball: Ball

    def __post_init__(self) -> None:
        if self.ball.dim != self.dim:
            raise DimensionMismatch(
                f"ball dim {self.ball.dim} != space dim {self.dim}"
            )
        if not self.ball.is_canonical():
            object.__setattr__(self, "ball", complete_representations(self.ball))


@dataclass(frozen=True)
class LinMap:
    matrix: QMat
    domain: Space
    codomain: Space

    def __post_init__(self) -> None:
        if self.matrix.shape != (self.codomain.dim, self.domain.dim):
            raise DimensionMismatch(
                f"matrix shape {self.matrix.shape} does not map "
                f"dim {self.domain.dim} into dim {self.codomain.dim}"
            )

    def __call__(self, x: QVec) -> QVec:
        return self.matrix.apply(x)

    def compose(self, other: "LinMap") -> "LinMap":
        """self after other."""
        if other.codomain != self.domain:
            raise DimensionMismatch("composition spaces do not match")
        return LinMap(self.matrix @ other.matrix, other.domain, self.codomain)

    @staticmethod
    def identity(space: Space) -> "LinMap":
        return LinMap(QMat.identity(space.dim), space, space)

    @staticmethod
    def zero(domain: Space, codomain: Space) -> "LinMap":
        return LinMap(QMat.zeros(codomain.dim, domain.dim), domain, codomain)


@dataclass(frozen=True)
class EmbeddingClass:
    lower: Fraction
    upper: Fraction
    verdict: str


def space_from_vrep(dim: int, vectors: Sequence[QVec]) -> Space:
    return Space(dim, Ball.from_vrep(dim, vectors))


def space_from_hrep(dim: int, functionals: Sequence[QVec]) -> Space:
    return Space(dim, Ball.from_hrep(dim, functionals))


def zero_space() -> Space:
    return Space(0, Ball(0, (), ()))


def line() -> Space:
    """(R, |.|) in rational coordinates."""
    one = (QVec.of([1]),)
    return Space(1, Ball(1, one, one))


def linf_space(dim: int) -> Space:
    return space_from_hrep(dim, [QVec.unit(dim, i) for i in range(dim)])


def l1_space(dim: int) -> Space:
    return space_from_vrep(dim, [QVec.unit(dim, i) for i in range(dim)])


def _peak(rows, points) -> int:
    """max |row . point| over integer rows and points; 0 when either is empty."""
    return max((abs(sum(map(mul, r, p))) for r in rows for p in points), default=0)


def _pulled_facets(matrix: QMat, Y: Space) -> tuple[list[list[int]], int]:
    """Y's facets pulled back through the matrix B, over integers.

    With ``B == M / E`` and Y's facets the rows of ``A / D``, the rows of
    ``A M`` over ``D E`` are the functionals ``B^t psi``.  The product runs
    over the nonzero entries of each column of M, so pulling through a
    coordinate pad costs a copy.
    """
    facets, facet_den = Y.ball.cleared()[:2]
    M, E = matrix.cleared()
    columns = [[(k, x) for k, x in enumerate(col) if x] for col in zip(*M)]
    pulled = [[sum(a[k] * x for k, x in col) for col in columns] for a in facets]
    return pulled, facet_den * E


def norm_eval(space: Space, x: QVec) -> Fraction:
    """max |phi(x)| over the facet functionals; the gauge of the ball."""
    if x.dim != space.dim:
        raise DimensionMismatch(f"vector dim {x.dim} != space dim {space.dim}")
    nums, den = _cleared(x.entries)
    ball = space.ball.cleared()
    return Fraction(_peak(ball.facets, [nums]), ball.facet_den * den)


def dual_norm_eval(space: Space, phi: QVec) -> Fraction:
    """max |phi(v)| over the ball's vertex representatives."""
    if phi.dim != space.dim:
        raise DimensionMismatch(f"functional dim {phi.dim} != space dim {space.dim}")
    nums, den = _cleared(phi.entries)
    ball = space.ball.cleared()
    return Fraction(_peak(ball.vertices, [nums]), ball.vertex_den * den)


def operator_norm(T: LinMap) -> Fraction:
    """Exact norm, attained at a domain ball vertex: the largest pulled
    facet value over the domain vertex rows."""
    pulled, den = _pulled_facets(T.matrix, T.codomain)
    domain = T.domain.ball.cleared()
    return Fraction(_peak(pulled, domain.vertices), den * domain.vertex_den)


def map_distance(S: LinMap, T: LinMap) -> Fraction:
    if S.domain != T.domain or S.codomain != T.codomain:
        raise DimensionMismatch("maps do not share domain and codomain")
    return operator_norm(LinMap(S.matrix - T.matrix, S.domain, S.codomain))


def lower_isometry_bound(T: LinMap) -> Fraction:
    """Exact min of ||T x|| over the domain unit sphere.

    For injective T the pullback ball P = {x : ||T x|| <= 1} is a polytope,
    and min ||T x|| / ||x|| = 1 / max ||w|| over the vertices w of P, since a
    norm is largest on P at a vertex.  A T with a kernel reaches 0.
    """
    if T.domain.dim == 0:
        return Fraction(1)
    try:
        pullback = pullback_space(T.matrix, T.codomain).ball.cleared()
    except PreconditionError:
        return Fraction(0)
    domain = T.domain.ball.cleared()
    peak = _peak(domain.facets, pullback.vertices)
    return Fraction(domain.facet_den * pullback.vertex_den, peak)


def is_isometric(T: LinMap) -> bool:
    """Exact isometry test by the facet lemma: every facet of a polytope
    appears, with right-hand side 1, in any H-description of it, and the
    T^t psi over codomain facets psi describe the pullback ball.  So T is
    isometric exactly when it is nonexpansive and every domain facet (the
    minimal hrep a Space holds) is some +-T^t psi.  A T with a kernel fails,
    as the domain facets span the dual; a zero-dimensional domain holds.

    On integers, with the pulled rows ``p`` over ``D_Y E`` and the domain
    facet rows ``b`` over ``D_X``: ``b / D_X == +-p / (D_Y E)`` exactly when
    ``D_Y E b == +-D_X p``.  The domain facets are canonically signed, so
    only the pulled side needs its sign picked.
    """
    pulled, den = _pulled_facets(T.matrix, T.codomain)
    domain = T.domain.ball.cleared()
    if _peak(pulled, domain.vertices) > den * domain.vertex_den:
        return False
    found = {canon_ints([domain.facet_den * x for x in p]) for p in pulled}
    return all(tuple(den * x for x in b) in found for b in domain.facets)


def classify_embedding(T: LinMap, eps) -> EmbeddingClass:
    """Verdict ladder: isometric, then strict below eps, then boundary eps.

    A zero-dimensional domain embeds isometrically by convention.
    """
    eps = rat(eps)
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    if T.domain.dim == 0:
        return EmbeddingClass(Fraction(1), Fraction(1), ISOMETRIC)
    upper = operator_norm(T)
    lower = lower_isometry_bound(T)
    threshold = 1 / (1 + eps)
    if lower == 1 and upper == 1:
        verdict = ISOMETRIC
    elif upper <= 1 and lower > threshold:
        verdict = STRICT_EPS
    elif upper <= 1 and lower >= threshold:
        verdict = EPS
    else:
        verdict = NOT_EPS
    return EmbeddingClass(lower, upper, verdict)


def _l1_generators(X: Space, Y: Space) -> list[QVec]:
    """The l1 sum's ball generators: (vrep X x 0), then (0 x vrep Y)."""
    zero_x, zero_y = QVec.zero(X.dim), QVec.zero(Y.dim)
    gens = [v.concat(zero_y) for v in X.ball.vrep]
    return gens + [zero_x.concat(w) for w in Y.ball.vrep]


def l1_sum(X: Space, Y: Space):
    """Coproduct: ball hull of (vrep X x 0) and (0 x vrep Y).

    Returns (space, inl, inr); both injections are isometric.
    """
    total = space_from_vrep(X.dim + Y.dim, _l1_generators(X, Y))
    inl = LinMap(QMat.identity(X.dim).vstack(QMat.zeros(Y.dim, X.dim)), X, total)
    inr = LinMap(QMat.zeros(X.dim, Y.dim).vstack(QMat.identity(Y.dim)), Y, total)
    return total, inl, inr


def quotient_matrix(dim: int, kernel: Sequence[QVec]) -> QMat:
    """Projection along the kernel onto the non-pivot coordinates.

    The kernel's reduced row echelon form fixes pivot coordinates p_j; the
    complement coordinates c survive, adjusted by q_c(x) = x_c - sum_j
    x_{p_j} R[j][c].  The result vanishes exactly on the kernel and is the
    identity on the complement coordinates.
    """
    if not kernel:
        return QMat.identity(dim)
    reduced, pivots = _rref([list(k.entries) for k in kernel])
    if len(pivots) != len(kernel):
        raise PreconditionError("kernel vectors are dependent")
    complement = [c for c in range(dim) if c not in pivots]
    rows = []
    for c in complement:
        row = [Fraction(0)] * dim
        row[c] = Fraction(1)
        for j, p in enumerate(pivots):
            row[p] = -reduced[j][c]
        rows.append(row)
    return QMat.from_rows(rows, cols=dim)


def quotient(X: Space, kernel: Sequence[QVec]):
    """Quotient space and map; the quotient ball is the image of the ball.

    q is the identity on the complement coordinates, so it is surjective and
    the images of X's vertices span the quotient.
    """
    for k in kernel:
        if k.dim != X.dim:
            raise DimensionMismatch("kernel vector dim mismatch")
    q_mat = quotient_matrix(X.dim, kernel)
    if not kernel:
        return X, LinMap.identity(X)
    target = space_from_vrep(q_mat.rows, [q_mat.apply(v) for v in X.ball.vrep])
    return target, LinMap(q_mat, X, target)


def pullback_space(B: QMat, Y: Space) -> Space:
    """Space on Q^k carrying the norm x -> ||B x||_Y, for injective B."""
    if B.rows != Y.dim:
        raise DimensionMismatch("matrix rows must match the ambient dimension")
    k = B.cols
    if rank(B) < k:
        raise PreconditionError("pullback needs an injective matrix")
    pulled, den = _pulled_facets(B, Y)
    return space_from_hrep(k, [QVec(tuple(Fraction(x, den) for x in p)) for p in pulled])
