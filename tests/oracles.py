"""Independent oracles used to pin expected values before testing the library.

Everything here is deliberately primitive: brute-force enumeration plus exact
rational arithmetic, no reuse of the code paths under test.  The one integer
routine, `sequential_enumerate_vertices`, is the double description that
`polytope._enumerate_vertices` replaced; it shares `_primitive` and
`_rref_ints` with the library, and `fraction_enumerate_vertices` checks it
without them.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm
from operator import mul

from polyban.banach import LinMap, operator_norm
from polyban.errors import NotANorm
from polyban.exactlin import (
    OPTIMAL,
    LpProblem,
    QMat,
    QVec,
    _primitive,
    _rref_ints,
    lp_solve,
    solve_linear,
)
from polyban.fraisse import (
    ChainStage,
    Task,
    _base_group,
    _extension_task,
    _pad_matrix,
    _task_key,
    realize_over,
    solve_through,
)
from polyban.polytope import Ball, canon_sign


def fraction_canon_set(vectors):
    """The Fraction form of `polytope.canon_set`: each nonzero vector signed
    by `canon_sign`, deduped and sorted as Fraction tuples."""
    seen = {canon_sign(v).entries for v in vectors if not v.is_zero()}
    return tuple(QVec(e) for e in sorted(seen))


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


def sequential_enumerate_vertices(rows, den, dim):
    """The integer double description that `polytope._enumerate_vertices`
    replaced: both vertices of every +-pair kept, and +row and -row cut as
    two halfspaces, one after the other.

    Takes integer rows of width dim and ``den > 0``; returns every vertex
    as a homogeneous integer ``[*n, d]`` with its tight mask (+row k at bit
    2k, -row k at 2k+1), in the order of `fraction_enumerate_vertices`.
    Raises NotANorm when the region is unbounded.
    """
    signed = []
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
        new_vertices = []
        new_masks = []
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


def fraction_enumerate_vertices(functionals, dim):
    """The double description of `sequential_enumerate_vertices` over Fractions.

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
    return gauge_vrep(Ball(c.Z0.dim, fraction_canon_set(gens), None), v)


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


def eager_task_pool(chain):
    """The task pool built in full: every stage group's tasks made at once
    and sorted by `_task_key`, as `fraisse._task_pool` did before its stage
    groups became makers built when drawn."""
    rnd = random.Random(chain.seed)
    pool = _base_group(rnd)
    for s in range(1, len(chain.stages)):
        target = rnd.randrange(1 << 30)
        scale_num = rnd.randrange(-2, 3)
        stage = chain.stages[s]
        group = []
        if stage.U.dim <= chain.dim_cap and stage.V.dim <= chain.dim_cap:
            group.append(
                Task(stage.F, LinMap.identity(stage.U), LinMap.identity(stage.V), s)
            )
        if stage.U.dim + 1 <= chain.dim_cap:
            index = target % stage.V.dim if stage.V.dim else 0
            group.append(_extension_task(stage, s, index, Fraction(scale_num, 2)))
        pool += sorted(group, key=_task_key)
    return pool


def two_sided_realize_square(base, via_u, via_v, T, i, j):
    """`fraisse._realize_square` with one `realize_over` per side, equal
    sides or not."""
    U_new, emb_x = realize_over(base.U, via_u, i)
    V_new, emb_y = realize_over(base.V, via_v, j)
    spanning = _pad_matrix(base.U.dim, U_new.dim).hstack(emb_x.matrix)
    images = (_pad_matrix(base.V.dim, V_new.dim) @ base.F.matrix).hstack(
        emb_y.matrix @ T.matrix
    )
    F_new = solve_through(spanning, images, U_new, V_new)
    assert operator_norm(F_new) <= 1
    return ChainStage(U_new, V_new, F_new), emb_x, emb_y
