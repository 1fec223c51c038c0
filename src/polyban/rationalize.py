"""Norm repair: exact functional extension and subspace-pinning equivalents.

Given an isometric inclusion of a subspace, ``repair_norm`` produces a new
norm on the big space that agrees with the old one on the subspace exactly
and differs from it by at most a factor (1 + delta) elsewhere.  The new
facet functionals are exact-norm extensions of the subspace facets (a
Hahn-Banach step, realized as an LP: `extend_functional` is the one caller
of the exact simplex) together with the old facets shrunk by
(1 + delta)^{-1}.

``repair_operator`` upgrades this to a map T that must stay nonexpansive
while two pinned subspaces keep their norms: both norms are repaired, and
if T still exceeds norm 1 the domain ball is replaced by the hull of the
pinned ball with the (1 + delta)^{-2}-shrunk repaired ball.  Every claimed
bound is certified exactly, once, where it is established; repair_operator
returns its bounds as report.Check records.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .banach import (
    LinMap,
    Space,
    dual_norm_eval,
    is_isometric,
    norm_eval,
    operator_norm,
    space_from_hrep,
    space_from_vrep,
)
from .errors import DimensionMismatch, PreconditionError, VerificationError
from .exactlin import (
    LE,
    EQ,
    OPTIMAL,
    LpProblem,
    QVec,
    lp_solve,
    rat,
    solve,
)
from .report import certify, check_le, check_true


@dataclass(frozen=True)
class NormRepair:
    original: Space
    repaired: Space
    delta: Fraction
    pinned: LinMap
    ratio: Fraction  # worst two-way ratio of the original and repaired norms


def _split(values: tuple[Fraction, ...]) -> QVec:
    """Coefficients of free variables on their (+, -) column pairs."""
    return QVec(tuple(c for x in values for c in (x, -x)))


def extend_functional(phi: QVec, incl: LinMap) -> QVec:
    """Extension of phi along an isometric inclusion with the same dual norm.

    Minimizes the dual norm over all extensions by LP; the optimum equals
    dual_norm_eval(incl.domain, phi) exactly.  The columns come in the
    order psi_1+, psi_1-, ..., psi_n+, psi_n-, t+, t-, and Bland's rule
    makes the chosen extension deterministic; it need not be one of Y's
    facet functionals.
    """
    X, Y = incl.domain, incl.codomain
    if phi.dim != X.dim:
        raise DimensionMismatch(f"functional dim {phi.dim} != {X.dim}")
    if not is_isometric(incl):
        raise PreconditionError("extension requires an isometric inclusion")
    if Y.dim == 0:
        return QVec.zero(0)
    # min t over (psi, t) with |psi(v)| <= t at every vertex v of Y and
    # psi o incl == phi.  The LP is in standard form, so each free
    # coordinate of (psi, t) is a (+, -) pair of nonnegative columns.
    n = Y.dim
    constraints = []
    for v in Y.ball.signed_vrep():
        constraints.append((_split(v.entries + (Fraction(-1),)), LE, Fraction(0)))
    for k in range(X.dim):
        column = incl(QVec.unit(X.dim, k))
        constraints.append((_split(column.entries + (Fraction(0),)), EQ, phi[k]))
    objective = _split((Fraction(0),) * n + (Fraction(1),))
    status, payload = lp_solve(LpProblem(objective, tuple(constraints)))
    if status != OPTIMAL:
        raise VerificationError("extension LP failed; inclusion data corrupt")
    _, point = payload
    psi = QVec(tuple(point[2 * k] - point[2 * k + 1] for k in range(n)))
    if dual_norm_eval(Y, psi) != dual_norm_eval(X, phi):
        raise VerificationError("extension did not preserve the dual norm")
    return psi


def _check_equivalence(a: Space, b: Space, factor: Fraction) -> Fraction:
    """The worst two-way ratio of the norms of a and b, certified <= factor."""
    worst = max(
        [norm_eval(b, v) for v in a.ball.vrep] + [norm_eval(a, w) for w in b.ball.vrep],
        default=Fraction(0),
    )
    if worst > factor:
        raise VerificationError(f"norm equivalence ratio {worst} exceeds {factor}")
    return worst


def repair_norm(Y: Space, incl: LinMap, delta) -> NormRepair:
    """New norm on Y pinning the subspace exactly, (1 + delta)-close overall.

    The repaired facets are the exact-norm extensions of the subspace
    facets plus the (1 + delta)^{-1}-scaled old facets; the subspace norm
    survives unchanged because its own facets are among the new ones.
    """
    delta = rat(delta)
    if delta <= 0:
        raise PreconditionError("delta must be positive")
    if incl.codomain != Y:
        raise DimensionMismatch("inclusion must land in the repaired space")
    if not is_isometric(incl):
        raise PreconditionError("repair_norm requires an isometric inclusion")
    if Y.dim == 0:
        return NormRepair(Y, Y, delta, LinMap(incl.matrix, incl.domain, Y), Fraction(0))
    X = incl.domain
    shrink = 1 / (1 + delta)
    functionals = [extend_functional(phi, incl) for phi in X.ball.hrep]
    functionals += [psi.scale(shrink) for psi in Y.ball.hrep]
    repaired = space_from_hrep(Y.dim, functionals)
    pinned = LinMap(incl.matrix, X, repaired)
    if not is_isometric(pinned):
        raise VerificationError("repair failed to pin the subspace norm")
    ratio = _check_equivalence(Y, repaired, 1 + delta)
    return NormRepair(Y, repaired, delta, pinned, ratio)


def repair_operator(T: LinMap, i0: LinMap, j0: LinMap, delta):
    """Repair both norms so T becomes nonexpansive with both pins intact.

    Returns (domain repair, codomain repair, T', the certified checks).
    The domain may need the extra rescale step, in which case its repair
    is (1 + delta)^2 - 1 equivalent rather than delta-equivalent; inputs
    with operator norm above (1 + delta)^2 are rejected, and a repair that
    still fails the exact nonexpansiveness check raises VerificationError.
    """
    delta = rat(delta)
    if delta <= 0:
        raise PreconditionError("delta must be positive")
    if i0.codomain != T.domain or j0.codomain != T.codomain:
        raise DimensionMismatch("pins must include into T's domain and codomain")
    if not is_isometric(i0) or not is_isometric(j0):
        raise PreconditionError("pins must be isometric inclusions")
    t0 = solve(j0.matrix, T.matrix @ i0.matrix)
    if t0 is None:
        raise PreconditionError(
            "T does not carry the pinned domain into the pinned codomain"
        )
    T0 = LinMap(t0, i0.domain, j0.domain)
    norm_t = operator_norm(T)
    headroom = (1 + delta) ** 2
    if norm_t > headroom:
        raise PreconditionError(
            f"operator norm {norm_t} exceeds {headroom}; "
            "too large to repair at this delta"
        )
    rx = repair_norm(T.domain, i0, delta)
    ry = repair_norm(T.codomain, j0, delta)
    t_prime = LinMap(T.matrix, rx.repaired, ry.repaired)
    if operator_norm(t_prime) > 1 and T.domain.dim > 0:
        # Hull of the pinned ball with the shrunk repaired ball: the pinned
        # subspace keeps its norm, everything else grows by (1 + delta)^2.
        shrink = 1 / headroom
        pinned_gens = [i0(v) for v in i0.domain.ball.vrep]
        scaled = [v.scale(shrink) for v in rx.repaired.ball.vrep]
        rescaled = space_from_vrep(T.domain.dim, pinned_gens + scaled)
        pinned = LinMap(i0.matrix, i0.domain, rescaled)
        if not is_isometric(pinned):
            raise VerificationError("rescale failed to keep the domain pin")
        ratio = _check_equivalence(T.domain, rescaled, headroom)
        rx = NormRepair(T.domain, rescaled, headroom - 1, pinned, ratio)
        t_prime = LinMap(T.matrix, rescaled, ry.repaired)
    # repair_norm, or the rescale step above, certified both pins isometric
    # and each ratio within 1 + delta, or within headroom for the rescale.
    checks = certify(
        check_le("norm(T') <= 1", operator_norm(t_prime), Fraction(1)),
        check_true("domain pin stays isometric", True),
        check_true("codomain pin stays isometric", True),
        check_le("domain norms within (1+delta)^2 both ways", rx.ratio, headroom),
        check_le("codomain norms within (1+delta)^2 both ways", ry.ratio, headroom),
    )
    if t_prime.matrix @ rx.pinned.matrix != ry.pinned.matrix @ T0.matrix:
        raise VerificationError("repaired operator broke the pinned square")
    return rx, ry, t_prime, checks
