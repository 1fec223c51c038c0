"""Independent oracles used to pin expected values before testing the library.

Everything here is deliberately primitive: brute-force enumeration plus exact
rational arithmetic, no reuse of the code paths under test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from polyban.exactlin import QMat, QVec, rank, solve_linear


def _det(rows):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return Fraction(1)
    return sum(
        (
            (-1) ** j * rows[0][j] * _det([row[:j] + row[j + 1 :] for row in rows[1:]])
            for j in range(len(rows))
        ),
        Fraction(0),
    )


def minor_rank(mat):
    """Rank of a QMat as the size of its largest nonzero minor (dims <= 4)."""
    for k in range(min(mat.shape), 0, -1):
        for rows in itertools.combinations(mat.entries, k):
            for cols in itertools.combinations(range(mat.cols), k):
                if _det([[row[c] for c in cols] for row in rows]) != 0:
                    return k
    return 0


def greedy_columns(mat):
    """Columns raising the minor rank of the columns chosen before them."""
    chosen = []
    for c in range(mat.cols):
        trial = QMat.from_cols([mat.col(j) for j in chosen + [c]], rows=mat.rows)
        if minor_rank(trial) == len(chosen) + 1:
            chosen.append(c)
    return chosen


def brute_force_lp(objective, constraints, sense="max"):
    """Optimum of a *bounded, feasible* LP by enumerating basic points.

    Tries every d-subset of constraint hyperplanes, solves it exactly, keeps
    feasible points, and evaluates the objective.  Only usable when the
    feasible region is a polytope (every vertex is a basic point).
    Returns (value, point).
    """
    dim = len(objective)
    objective = QVec.of(objective)
    rows = [(QVec.of(coeffs), relation, Fraction(bound)) for coeffs, relation, bound in constraints]

    def feasible(x: QVec) -> bool:
        for coeffs, relation, bound in rows:
            value = coeffs.dot(x)
            if relation == "<=" and value > bound:
                return False
            if relation == ">=" and value < bound:
                return False
            if relation == "=" and value != bound:
                return False
        return True

    best = None
    for subset in itertools.combinations(range(len(rows)), dim):
        mat = QMat.from_rows([rows[i][0].entries for i in subset], cols=dim)
        rhs = QVec.of([rows[i][2] for i in subset])
        x = solve_linear(mat, rhs)
        if x is None or not feasible(x):
            continue
        value = objective.dot(x)
        if best is None:
            best = (value, x)
        elif sense == "max" and value > best[0]:
            best = (value, x)
        elif sense == "min" and value < best[0]:
            best = (value, x)
    if best is None:
        raise AssertionError("oracle found no feasible basic point")
    return best


def brute_force_gauge(generators, point):
    """Gauge of conv(+-generators) at a point, by LP over the generators.

    min sum(mu) s.t. sum mu_g * (+-g) = point, mu >= 0.  Solved by brute force
    over basic subsets, so it is independent of the simplex implementation.
    """
    signed = []
    for g in generators:
        vec = QVec.of(g)
        signed.append(vec)
        signed.append(-vec)
    dim = signed[0].dim
    point = QVec.of(point)
    best = None
    # A basic optimum uses at most dim generators with nonzero weight.
    for subset in itertools.combinations(range(len(signed)), dim):
        mat = QMat.from_cols([signed[i] for i in subset])
        mu = solve_linear(mat, point)
        if mu is None or any(m < 0 for m in mu):
            continue
        total = sum(mu.entries, Fraction(0))
        if best is None or total < best:
            best = total
    # Lower-rank representations (point = single generator scaled, etc.).
    for count in range(1, dim):
        for subset in itertools.combinations(range(len(signed)), count):
            mat = QMat.from_cols([signed[i] for i in subset])
            mu = solve_linear(mat, point)
            if mu is None or any(m < 0 for m in mu):
                continue
            total = sum(mu.entries, Fraction(0))
            if best is None or total < best:
                best = total
    if best is None:
        raise AssertionError("point is not in the span of the generators")
    return best


def brute_force_vertices(functionals, dim):
    """Vertices of {x : |phi(x)| <= 1} by trying all d-subsets of +-functionals.

    Only subsets of rank dim define a point; a singular subset, even a
    consistent one, meets the region in a face of positive dimension.
    """
    signed = []
    for phi in functionals:
        vec = QVec.of(phi)
        signed.append(vec)
        signed.append(-vec)
    ones = QVec.of([1] * dim)
    seen = set()
    vertices = []
    for subset in itertools.combinations(range(len(signed)), dim):
        mat = QMat.from_rows([signed[i].entries for i in subset], cols=dim)
        if rank(mat) < dim:
            continue
        x = solve_linear(mat, ones)
        if any(abs(s.dot(x)) > 1 for s in signed):
            continue
        key = x.entries
        if key not in seen:
            seen.add(key)
            vertices.append(x)
    return vertices


def brute_force_facets(functionals, dim):
    """The functionals whose tight oracle vertices have affine rank dim - 1."""
    vertices = brute_force_vertices(functionals, dim)
    facets = []
    for phi in functionals:
        vec = QVec.of(phi)
        tight = [v for v in vertices if vec.dot(v) == 1]
        if tight:
            diffs = [(v - tight[0]).entries for v in tight[1:]]
            if rank(QMat.from_rows(diffs, cols=dim)) == dim - 1:
                facets.append(vec)
    return facets


def sphere_min_by_facet_lp(matrix, domain, codomain):
    """Min of the image norm over the domain sphere, one LP per facet.

    Primal form: parameterize the facet by barycentric weights over its
    vertices and minimize the epigraph variable t bounding every signed
    codomain functional of the image.  Independent of the pullback-ball
    computation in the library.
    """
    from polyban.exactlin import LpProblem, lp_solve, OPTIMAL

    signed_psi = codomain.ball.signed_hrep()
    signed_verts = domain.ball.signed_vrep()
    best = None
    for phi in domain.ball.hrep:
        facet = [u for u in signed_verts if phi.dot(u) == 1]
        k = len(facet)
        images = [matrix.apply(u) for u in facet]
        constraints = [(QVec.of([1] * k + [0]), "=", Fraction(1))]
        for psi in signed_psi:
            row = [psi.dot(img) for img in images] + [Fraction(-1)]
            constraints.append((QVec.of(row), "<=", Fraction(0)))
        problem = LpProblem(
            objective=QVec.of([0] * k + [1]),
            constraints=tuple(constraints),
            sense="min",
            nonneg=(True,) * k + (False,),
        )
        status, payload = lp_solve(problem)
        assert status == OPTIMAL
        if best is None or payload[0] < best:
            best = payload[0]
    return best


def coset_min_norm(space, kernel, x):
    """Quotient norm of x + span(kernel) by a direct epigraph LP over offsets."""
    from polyban.exactlin import LpProblem, lp_solve, OPTIMAL

    k = len(kernel)
    signed_phi = space.ball.signed_hrep()
    constraints = []
    for phi in signed_phi:
        row = [phi.dot(kv) for kv in kernel] + [Fraction(-1)]
        constraints.append((QVec.of(row), "<=", -phi.dot(x)))
    problem = LpProblem(
        objective=QVec.of([0] * k + [1]),
        constraints=tuple(constraints),
        sense="min",
        nonneg=(False,) * k + (False,),
    )
    status, payload = lp_solve(problem)
    assert status == OPTIMAL
    return payload[0]
