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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, PreconditionError
from .exactlin import QMat, QVec, _rref, rank, rat
from .polytope import Ball, canon_sign, complete_representations, image_ball

ISOMETRIC = "isometric"
STRICT_EPS = "strict-eps"
EPS = "eps"
NOT_EPS = "not-eps"


@dataclass(frozen=True)
class Space:
    """Q^dim with a canonical unit ball: a ball built by hand, which may list
    redundant vertices or functionals, is stored completed."""

    dim: int
    ball: Ball

    def __post_init__(self) -> None:
        if self.ball.dim != self.dim:
            raise DimensionMismatch(
                f"ball dim {self.ball.dim} != space dim {self.dim}"
            )
        if not self.ball.is_complete():
            raise PreconditionError("space needs a completed ball")
        if not self.ball.is_canonical():
            canonical = complete_representations(self.ball)
            object.__setattr__(self, "ball", canonical)


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
    return Space(dim, complete_representations(Ball.from_vrep(dim, vectors)))


def space_from_hrep(dim: int, functionals: Sequence[QVec]) -> Space:
    return Space(dim, complete_representations(Ball.from_hrep(dim, functionals)))


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


def norm_eval(space: Space, x: QVec) -> Fraction:
    """max |phi(x)| over the facet functionals; the gauge of the ball."""
    if x.dim != space.dim:
        raise DimensionMismatch(f"vector dim {x.dim} != space dim {space.dim}")
    if space.dim == 0:
        return Fraction(0)
    return max(abs(phi.dot(x)) for phi in space.ball.hrep)


def dual_norm_eval(space: Space, phi: QVec) -> Fraction:
    """max |phi(v)| over the ball's vertex representatives."""
    if phi.dim != space.dim:
        raise DimensionMismatch(f"functional dim {phi.dim} != space dim {space.dim}")
    if space.dim == 0:
        return Fraction(0)
    return max(abs(phi.dot(v)) for v in space.ball.vrep)


def operator_norm(T: LinMap) -> Fraction:
    """Exact norm, attained at a domain ball vertex."""
    if T.domain.dim == 0:
        return Fraction(0)
    return max(norm_eval(T.codomain, T(v)) for v in T.domain.ball.vrep)


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
        pullback = pullback_space(T.matrix, T.codomain).ball
    except PreconditionError:
        return Fraction(0)
    return 1 / max(norm_eval(T.domain, w) for w in pullback.vrep)


def is_isometric(T: LinMap) -> bool:
    """Exact isometry test by the facet lemma: every facet of a polytope
    appears, with right-hand side 1, in any H-description of it, and the
    T^t psi over codomain facets psi describe the pullback ball.  So T is
    isometric exactly when it is nonexpansive and every domain facet (the
    minimal hrep a Space holds) is some +-T^t psi.  A T with a kernel fails,
    as the domain facets span the dual; a zero-dimensional domain holds.
    """
    if operator_norm(T) > 1:
        return False
    bt = T.matrix.transpose()
    pulled = {canon_sign(bt.apply(psi)) for psi in T.codomain.ball.hrep}
    return all(phi in pulled for phi in T.domain.ball.hrep)


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
    """Quotient space and map; the quotient ball is the image of the ball."""
    for k in kernel:
        if k.dim != X.dim:
            raise DimensionMismatch("kernel vector dim mismatch")
    q_mat = quotient_matrix(X.dim, kernel)
    if not kernel:
        return X, LinMap.identity(X)
    ball = image_ball(X.ball, q_mat)
    target = Space(q_mat.rows, ball)
    return target, LinMap(q_mat, X, target)


def pullback_space(B: QMat, Y: Space) -> Space:
    """Space on Q^k carrying the norm x -> ||B x||_Y, for injective B."""
    if B.rows != Y.dim:
        raise DimensionMismatch("matrix rows must match the ambient dimension")
    k = B.cols
    if rank(B) < k:
        raise PreconditionError("pullback needs an injective matrix")
    bt = B.transpose()
    return space_from_hrep(k, [bt.apply(phi) for phi in Y.ball.hrep])
