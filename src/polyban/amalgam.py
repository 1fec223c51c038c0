"""Amalgamation of spaces and maps: pushout, correction sum, square sum.

Three devices, all exact:

* ``pushout`` glues two nonexpansive maps with a common domain into an
  amalgam W = (X + Y)/Delta along the antidiagonal subspace Delta.
* ``correction_sum`` absorbs the defect of an almost-commuting pair: it
  embeds X and Y isometrically into one space Z0 in which jY(f(x)) sits
  within eps of iX(x).  Its unit ball is the hull of both balls together
  with the graph segment generators (w, -f(w)) for ||w|| <= 1/eps.
* ``square_sum`` joins two correction sums into a single nonexpansive
  block map turning a delta-commutative square into an exactly commuting
  one.

Each of the three certifies its advertised identities and bounds with
exact arithmetic before returning, and returns them as ``checks``: the
report.Check records a verification report renders as they are.  A failed
check raises VerificationError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .banach import (
    NOT_EPS,
    LinMap,
    Space,
    _l1_generators,
    classify_embedding,
    is_isometric,
    map_distance,
    operator_norm,
    quotient_matrix,
    space_from_vrep,
)
from .errors import DimensionMismatch, PreconditionError, VerificationError
from .exactlin import QMat, QVec, _rref, block_diag, rat, solve_linear
from .polytope import Ball, canon_set, gauge_vrep
from .report import Check, certify, check_eq, check_le, check_true


@dataclass(frozen=True)
class PushoutResult:
    W: Space
    g: LinMap
    j: LinMap
    delta_basis: tuple[QVec, ...]
    checks: tuple[Check, ...]


@dataclass(frozen=True)
class CorrectionResult:
    Z0: Space
    iX: LinMap
    jY: LinMap
    eps: Fraction
    f: LinMap
    checks: tuple[Check, ...]


@dataclass(frozen=True)
class SquareSumResult:
    phi: LinMap
    source: CorrectionResult
    target: CorrectionResult
    checks: tuple[Check, ...]


def _l1_quotient(
    i: LinMap, f: LinMap
) -> tuple[QMat, QMat, list[QVec], tuple[QVec, ...]]:
    """The l1 sum of X = cod i and Y = cod f modulo Delta = span{(i z, -f z)}:
    the quotient matrix as its X and Y column blocks, the images under it of
    the sum's generators, and Delta's reduced basis.  The sum ball is never
    completed, so only the amalgam has to fit the hard cap."""
    X, Y, Z = i.codomain, f.codomain, i.domain
    units = [QVec.unit(Z.dim, k) for k in range(Z.dim)]
    raw = [i(e).concat(-f(e)) for e in units]
    raw = [r for r in raw if not r.is_zero()]
    reduced, _ = _rref([list(r.entries) for r in raw])
    delta = tuple(QVec.of(row) for row in reduced)
    q_mat = quotient_matrix(X.dim + Y.dim, delta)
    x_block = QMat.from_rows([row[: X.dim] for row in q_mat.entries], cols=X.dim)
    y_block = QMat.from_rows([row[X.dim :] for row in q_mat.entries], cols=Y.dim)
    images = [q_mat.apply(v) for v in _l1_generators(X, Y)]
    return x_block, y_block, images, delta


def pushout(i: LinMap, f: LinMap) -> PushoutResult:
    """Amalgam of i: Z->X and f: Z->Y over their common domain.

    W is the quotient of the l1 sum by Delta = span{(i(z), -f(z))}.  The
    returned square commutes exactly, and j is isometric whenever i is.
    """
    if i.domain != f.domain:
        raise DimensionMismatch("pushout needs a common domain")
    norm_i = operator_norm(i)
    if norm_i > 1:
        raise PreconditionError(f"operator norm of i is {norm_i} > 1")
    norm_f = operator_norm(f)
    if norm_f > 1:
        raise PreconditionError(f"operator norm of f is {norm_f} > 1")
    g_mat, j_mat, images, delta = _l1_quotient(i, f)
    W = space_from_vrep(g_mat.rows, images)
    g = LinMap(g_mat, i.codomain, W)
    j = LinMap(j_mat, f.codomain, W)
    checks = [
        check_eq(
            "dist(g o i, j o f) == 0",
            map_distance(g.compose(i), j.compose(f)),
            Fraction(0),
        ),
        check_le("norm(g) <= 1", operator_norm(g), Fraction(1)),
        check_le("norm(j) <= 1", operator_norm(j), Fraction(1)),
    ]
    if is_isometric(i):
        checks.append(check_true("j isometric since i is", is_isometric(j)))
    return PushoutResult(W, g, j, delta, certify(*checks))


def pushout_mediating(
    result: PushoutResult, g2: LinMap, j2: LinMap
) -> LinMap:
    """Universal property: the unique nonexpansive W -> P through a cocone.

    The cocone (g2, j2) must commute with the same pair of legs the pushout
    was built from; the induced map is determined on the images of X and Y
    and checked to be nonexpansive.
    """
    if g2.codomain != j2.codomain:
        raise DimensionMismatch("cocone legs need a common codomain")
    if g2.domain != result.g.domain or j2.domain != result.j.domain:
        raise DimensionMismatch("cocone legs must start at X and Y")
    if operator_norm(g2) > 1 or operator_norm(j2) > 1:
        raise PreconditionError("cocone legs must be nonexpansive")
    W = result.W
    # Solve h on the quotient: h(q(x, y)) = g2(x) + j2(y).  The stacked
    # system q^T h^T = (g2 | j2)^T is consistent exactly because the cocone
    # kills Delta; q is surjective, so the solution is unique.
    q_matrix = result.g.matrix.hstack(result.j.matrix)
    stacked = g2.matrix.hstack(j2.matrix)
    rows = []
    for r in range(stacked.rows):
        sol = solve_linear(q_matrix.transpose(), stacked.row(r))
        if sol is None:
            raise PreconditionError("cocone does not factor through the pushout")
        rows.append(sol.entries)
    h = LinMap(QMat.from_rows(rows, cols=W.dim), W, g2.codomain)
    if h.matrix @ result.g.matrix != g2.matrix:
        raise VerificationError("mediating map misses the X leg")
    if h.matrix @ result.j.matrix != j2.matrix:
        raise VerificationError("mediating map misses the Y leg")
    norm_h = operator_norm(h)
    if norm_h > 1:
        raise VerificationError(f"mediating map has norm {norm_h} > 1")
    return h


def _correction_generators(f: LinMap, eps: Fraction) -> list[QVec]:
    """Graph segment generators (w, -f(w)) at ||w|| = 1/eps, over vertices."""
    inv = 1 / eps
    out = []
    for v in f.domain.ball.vrep:
        out.append(v.scale(inv).concat(f(v).scale(-inv)))
    return out


def correction_sum(f: LinMap, eps) -> CorrectionResult:
    """Initial object absorbing f's defect at cost eps.

    Accepts any nonexpansive f; a pair (f, eps) for which the construction
    degrades the embedded norms, which happens exactly when ||f(w)|| <
    (1 - eps)||w|| somewhere, is rejected with a PreconditionError.
    """
    eps = rat(eps)
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    norm_f = operator_norm(f)
    if norm_f > 1:
        raise PreconditionError(f"operator norm of f is {norm_f} > 1")
    X, Y = f.domain, f.codomain
    dim = X.dim + Y.dim
    Z0 = space_from_vrep(dim, _l1_generators(X, Y) + _correction_generators(f, eps))
    iX = LinMap(QMat.identity(X.dim).vstack(QMat.zeros(Y.dim, X.dim)), X, Z0)
    jY = LinMap(QMat.zeros(X.dim, Y.dim).vstack(QMat.identity(Y.dim)), Y, Z0)
    # jY is isometric for every nonexpansive f, iX only under the condition above.
    iso_x = is_isometric(iX)
    if not iso_x:
        raise PreconditionError(
            f"eps {eps} is too small: f shrinks some vector below 1 - eps "
            "of its norm, so iX is not isometric"
        )
    checks = certify(
        check_true("iX is isometric", iso_x),
        check_true("jY is isometric", is_isometric(jY)),
        check_le("dist(iX, jY o f) <= eps", map_distance(iX, jY.compose(f)), eps),
    )
    return CorrectionResult(Z0, iX, jY, eps, f, checks)


def correction_norm_inf(c: CorrectionResult, v: QVec) -> Fraction:
    """The infimum-formula norm, evaluated as a gauge LP over the raw
    generators; must agree with norm_eval(c.Z0, v) from the completed hull.

    The decomposition v = (x + w, y - f(w)) with cost ||x|| + ||y|| +
    eps*||w|| corresponds exactly to conic combinations of the three
    generator families, so the LP value is the infimum itself.
    """
    if v.dim != c.Z0.dim:
        raise DimensionMismatch(f"point dim {v.dim} != {c.Z0.dim}")
    X, Y = c.f.domain, c.f.codomain
    gens = _l1_generators(X, Y) + _correction_generators(c.f, c.eps)
    return gauge_vrep(Ball(c.Z0.dim, canon_set(gens), None), v)


def mediating_map(c: CorrectionResult, i: LinMap, j: LinMap) -> LinMap:
    """The unique nonexpansive h out of the correction sum: h(x, y) = i(x) + j(y).

    (i, j) must itself absorb f's defect at cost c.eps; each violated bound
    is reported exactly.
    """
    if i.domain != c.f.domain or j.domain != c.f.codomain:
        raise DimensionMismatch("legs must start at the corrected pair")
    if i.codomain != j.codomain:
        raise DimensionMismatch("legs need a common codomain")
    norm_i = operator_norm(i)
    if norm_i > 1:
        raise PreconditionError(f"operator norm of i is {norm_i} > 1")
    norm_j = operator_norm(j)
    if norm_j > 1:
        raise PreconditionError(f"operator norm of j is {norm_j} > 1")
    closeness = map_distance(i, j.compose(c.f))
    if closeness > c.eps:
        raise PreconditionError(
            f"closeness {closeness} exceeds eps {c.eps}; not an admissible pair"
        )
    h = LinMap(i.matrix.hstack(j.matrix), c.Z0, i.codomain)
    if h.matrix @ c.iX.matrix != i.matrix:
        raise VerificationError("h fails h o iX = i")
    if h.matrix @ c.jY.matrix != j.matrix:
        raise VerificationError("h fails h o jY = j")
    norm_h = operator_norm(h)
    if norm_h > 1:
        raise VerificationError(f"mediating map has norm {norm_h} > 1")
    return h


def square_sum(
    T0: LinMap, T1: LinMap, f0: LinMap, f1: LinMap, eps, delta
) -> SquareSumResult:
    """Block sum phi = T0 (+) T1 between correction sums, exactly commuting.

    Domain: the source correction sum, X0 corrected with Y0 at eps + delta.
    Codomain: the target correction sum, X1 corrected with Y1 at eps.  The
    delta-commutation defect of the square is absorbed by the extra delta
    in the domain cost.  Both correction sums and the certified checks are
    returned with phi.
    """
    eps, delta = rat(eps), rat(delta)
    if T0.domain != f0.domain or T0.codomain != f1.domain:
        raise DimensionMismatch("T0 must map X0 to X1")
    if T1.domain != f0.codomain or T1.codomain != f1.codomain:
        raise DimensionMismatch("T1 must map Y0 to Y1")
    norm_t0 = operator_norm(T0)
    if norm_t0 > 1:
        raise PreconditionError(f"operator norm of T0 is {norm_t0} > 1")
    norm_t1 = operator_norm(T1)
    if norm_t1 > 1:
        raise PreconditionError(f"operator norm of T1 is {norm_t1} > 1")
    for name, leg in (("f0", f0), ("f1", f1)):
        got = classify_embedding(leg, eps)
        if got.verdict == NOT_EPS:
            raise PreconditionError(
                f"{name} is not an eps-embedding "
                f"(lower {got.lower}, upper {got.upper}, eps {eps})"
            )
    defect = map_distance(f1.compose(T0), T1.compose(f0))
    if defect > delta:
        raise PreconditionError(f"square defect {defect} exceeds delta {delta}")
    source = correction_sum(f0, eps + delta)
    target = correction_sum(f1, eps)
    phi = LinMap(block_diag(T0.matrix, T1.matrix), source.Z0, target.Z0)
    checks = certify(
        check_le("norm(Phi) <= 1", operator_norm(phi), Fraction(1)),
        check_eq(
            "dist(Phi o iX_src, iX_tgt o T0) == 0",
            map_distance(phi.compose(source.iX), target.iX.compose(T0)),
            Fraction(0),
        ),
        check_eq(
            "dist(Phi o jY_src, jY_tgt o T1) == 0",
            map_distance(phi.compose(source.jY), target.jY.compose(T1)),
            Fraction(0),
        ),
    )
    return SquareSumResult(phi, source, target, checks)
