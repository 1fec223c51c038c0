"""Independent oracles used to pin expected values before testing the library.

Everything here is deliberately primitive: brute-force enumeration plus exact
rational arithmetic, no reuse of the code paths under test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from polyban.exactlin import OPTIMAL, LpProblem, QMat, QVec, lp_solve, solve_linear
from polyban.polytope import Ball, canon_set, canon_sign


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
    """Vertices of {x : |phi(x)| <= 1} by trying all d-subsets of functionals.

    Only subsets of rank dim define a point, one for each sign vector s: the
    solution of A x = s, by Cramer's rule with cofactor determinants.  A
    singular subset, even a consistent one, meets the region in a face of
    positive dimension.
    """
    signed = []
    for phi in functionals:
        vec = QVec.of(phi)
        signed.append(vec)
        signed.append(-vec)
    seen = set()
    vertices = []
    for subset in itertools.combinations(range(len(functionals)), dim):
        mat = [signed[2 * i].entries for i in subset]
        det = _det(mat)
        if det == 0:
            continue
        # adjugate[j][i] is the cofactor of entry (i, j), so x = adjugate s / det.
        adjugate = [
            [
                (-1) ** (i + j)
                * _det([row[:j] + row[j + 1 :] for k, row in enumerate(mat) if k != i])
                for i in range(dim)
            ]
            for j in range(dim)
        ]
        for s in itertools.product((1, -1), repeat=dim):
            x = QVec(tuple(sum(a * b for a, b in zip(row, s)) / det for row in adjugate))
            if any(abs(t.dot(x)) > 1 for t in signed):
                continue
            key = x.entries
            if key not in seen:
                seen.add(key)
                vertices.append(x)
    return vertices


def brute_force_facets(functionals, dim):
    """The functionals whose tight oracle vertices have affine rank dim - 1.

    The tight vertices lie on the hyperplane phi = 1, which misses the
    origin, so their affine rank is dim - 1 exactly when dim of them have a
    nonzero determinant.
    """
    vertices = brute_force_vertices(functionals, dim)
    facets = []
    for phi in functionals:
        vec = QVec.of(phi)
        tight = [v.entries for v in vertices if vec.dot(v) == 1]
        if any(_det(list(rows)) != 0 for rows in itertools.combinations(tight, dim)):
            facets.append(vec)
    return facets


def fraction_apply(matrix, v):
    """The Fraction form of `QMat.apply`: one row dot product at a time."""
    return QVec(
        tuple(
            sum((matrix.entries[i][j] * v.entries[j] for j in range(matrix.cols)), Fraction(0))
            for i in range(matrix.rows)
        )
    )


def fraction_matmul(a, b):
    """The Fraction form of `QMat.__matmul__`: rows of a against columns of b."""
    bt = b.transpose()
    return QMat(
        tuple(
            tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt.entries)
            for row in a.entries
        ),
        (a.rows, b.cols),
    )


def fraction_rref(rows):
    """Reduced row echelon form by Gauss-Jordan over Fractions.

    Same pivot rule as the library's fraction-free elimination: the first
    row with a nonzero entry in the current column, columns left to right.
    Returns (reduced rows, pivot columns).
    """
    rows = [[Fraction(x) for x in row] for row in rows]
    if not rows:
        return rows, []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def fraction_enumerate_vertices(functionals, dim):
    """The double description of `polytope._enumerate_vertices` over Fractions.

    Same initial parallelotope, constraint order, adjacency test and output
    order, with every point a QVec of Fractions and the base inverse taken
    by `fraction_rref`; it has no edge-count precheck, so every pair goes
    through the adjacency test.  Returns (vertices, tight masks) or raises
    AssertionError when the functionals do not span.
    """
    _, chosen = fraction_rref([[phi[j] for phi in functionals] for j in range(dim)])
    assert len(chosen) == dim, "functionals do not span"
    augmented = [
        list(functionals[k].entries) + [Fraction(int(i == r)) for i in range(dim)]
        for r, k in enumerate(chosen)
    ]
    base_inv = QMat.from_rows([row[dim:] for row in fraction_rref(augmented)[0]])

    signed = [s for phi in functionals for s in (phi, -phi)]
    vertices = []
    masks = []
    for bits in range(1 << dim):
        s = QVec.of([1 if (bits >> i) & 1 == 0 else -1 for i in range(dim)])
        vertices.append(fraction_apply(base_inv, s))
        masks.append(
            sum(1 << (2 * k + ((bits >> i) & 1)) for i, k in enumerate(chosen))
        )
    processed = {c for k in chosen for c in (2 * k, 2 * k + 1)}

    for c in range(len(signed)):
        if c in processed:
            continue
        row = signed[c]
        values = [row.dot(v) for v in vertices]
        inside = [i for i, g in enumerate(values) if g < 1]
        on = [i for i, g in enumerate(values) if g == 1]
        outside = [i for i, g in enumerate(values) if g > 1]
        if not outside:
            for i in on:
                masks[i] |= 1 << c
            continue
        new_vertices = []
        new_masks = []
        for i in inside:
            for j in outside:
                common = masks[i] & masks[j]
                if any(
                    k != i and k != j and common & mk == common
                    for k, mk in enumerate(masks)
                ):
                    continue
                lam = (1 - values[i]) / (values[j] - values[i])
                new_vertices.append(vertices[i] + (vertices[j] - vertices[i]).scale(lam))
                new_masks.append(common | (1 << c))
        on_set = set(on)
        keep_idx = inside + on
        vertices = [vertices[i] for i in keep_idx] + new_vertices
        masks = [
            masks[i] | ((1 << c) if i in on_set else 0) for i in keep_idx
        ] + new_masks
    return vertices, masks


def fraction_norm_eval(space, x):
    """The Fraction form of `banach.norm_eval`: max |phi . x| over the facets."""
    if space.dim == 0:
        return Fraction(0)
    return max(abs(phi.dot(x)) for phi in space.ball.hrep)


def fraction_dual_norm_eval(space, phi):
    """The Fraction form of `banach.dual_norm_eval`: max |phi . v| over the
    vertex representatives."""
    if space.dim == 0:
        return Fraction(0)
    return max(abs(phi.dot(v)) for v in space.ball.vrep)


def fraction_operator_norm(T):
    """The Fraction form of `banach.operator_norm`: the image norm of each
    domain vertex, one matrix-vector product at a time."""
    if T.domain.dim == 0:
        return Fraction(0)
    return max(
        fraction_norm_eval(T.codomain, fraction_apply(T.matrix, v)) for v in T.domain.ball.vrep
    )


def fraction_is_isometric(T):
    """The Fraction form of `banach.is_isometric`: nonexpansive, and every
    domain facet is some +-T^t psi over the codomain facets psi."""
    if fraction_operator_norm(T) > 1:
        return False
    bt = T.matrix.transpose()
    pulled = {canon_sign(fraction_apply(bt, psi)) for psi in T.codomain.ball.hrep}
    return all(phi in pulled for phi in T.domain.ball.hrep)


def gauge_vrep(ball, point):
    """Gauge of a ball at a point, by LP over its V-representation.

    min sum(mu) s.t. sum mu_g * g = point over the signed vertices g, mu >=
    0: a standard-form LP as it stands.  This is the vrep-side route;
    `polyban.banach.norm_eval` is the hrep-side route, and the two must
    agree exactly on completed balls.
    """
    if ball.dim == 0:
        return Fraction(0)
    signed = ball.signed_vrep()
    rows = tuple(
        (QVec.of([g[i] for g in signed]), "=", point[i]) for i in range(ball.dim)
    )
    status, payload = lp_solve(LpProblem(QVec.of([1] * len(signed)), rows))
    assert status == OPTIMAL, "point is outside the span of the ball"
    return payload[0]


def correction_norm_inf(c, v):
    """The correction sum's infimum formula, as a gauge LP over raw generators.

    The decomposition v = (x + w, y - f(w)) with cost ||x|| + ||y|| +
    eps*||w|| corresponds exactly to conic combinations of three generator
    families: (x, 0) and (0, y) over the vertices of X and Y, and
    (w, -f(w)) / eps over the vertices w of X.  So the LP value is the
    infimum itself, and it must agree with norm_eval(c.Z0, v) from the
    completed hull.
    """
    X, Y, inv = c.f.domain, c.f.codomain, 1 / c.eps
    zero_x, zero_y = QVec.zero(X.dim), QVec.zero(Y.dim)
    gens = [x.concat(zero_y) for x in X.ball.vrep]
    gens += [zero_x.concat(y) for y in Y.ball.vrep]
    gens += [x.scale(inv).concat(c.f(x).scale(-inv)) for x in X.ball.vrep]
    return gauge_vrep(Ball(c.Z0.dim, canon_set(gens), None), v)


def split(values):
    """Coefficients of free variables on their (+, -) column pairs."""
    return [c for x in values for c in (x, -x)]


def sphere_min_by_facet_lp(matrix, domain, codomain):
    """Min of the image norm over the domain sphere, one LP per facet.

    Primal form: parameterize the facet by barycentric weights over its
    vertices and minimize the epigraph variable t bounding every signed
    codomain functional of the image.  Both signs of every functional are
    rows, so t >= 0 is implied and the LP is in standard form as it stands.
    Independent of the pullback-ball computation in the library.
    """
    signed_psi = [s for psi in codomain.ball.hrep for s in (psi, -psi)]
    signed_verts = domain.ball.signed_vrep()
    best = None
    for phi in domain.ball.hrep:
        facet = [u for u in signed_verts if phi.dot(u) == 1]
        k = len(facet)
        images = [fraction_apply(matrix, u) for u in facet]
        constraints = [(QVec.of([1] * k + [0]), "=", Fraction(1))]
        for psi in signed_psi:
            row = [psi.dot(img) for img in images] + [Fraction(-1)]
            constraints.append((QVec.of(row), "<=", Fraction(0)))
        problem = LpProblem(QVec.of([0] * k + [1]), tuple(constraints))
        status, payload = lp_solve(problem)
        assert status == OPTIMAL
        if best is None or payload[0] < best:
            best = payload[0]
    return best


def coset_min_norm(space, kernel, x):
    """Quotient norm of x + span(kernel) by a direct epigraph LP over offsets.

    The offsets are free, so each is a (+, -) pair of columns; t >= 0 is
    implied, since both signs of every functional bound it.
    """
    k = len(kernel)
    constraints = []
    for phi in (s for f in space.ball.hrep for s in (f, -f)):
        row = split([phi.dot(kv) for kv in kernel]) + [Fraction(-1)]
        constraints.append((QVec.of(row), "<=", -phi.dot(x)))
    problem = LpProblem(QVec.of([0] * (2 * k) + [1]), tuple(constraints))
    status, payload = lp_solve(problem)
    assert status == OPTIMAL
    return payload[0]
