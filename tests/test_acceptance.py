"""End-to-end acceptance suite.

Eleven numbered criteria, each verified with exact rational arithmetic at
zero tolerance and a wall-clock budget.  Every test prints a single
``criterion NN: PASS/FAIL`` line (visible with ``pytest -s`` and in the
captured output of failures).
"""

import random
import time
from fractions import Fraction

import pytest

from polyban.amalgam import (
    correction_sum,
    mediating_map,
    pushout,
    pushout_mediating,
    square_sum,
)
from polyban.banach import (
    LinMap,
    Space,
    classify_embedding,
    dual_norm_eval,
    is_isometric,
    l1_space,
    l1_sum,
    line,
    lower_isometry_bound,
    map_distance,
    norm_eval,
    operator_norm,
    pullback_space,
    quotient,
    space_from_hrep,
    space_from_vrep,
    zero_space,
)
from polyban.exactlin import QMat, QVec
from polyban.fraisse import (
    EpsSchedule,
    OperatorSquare,
    _pad_matrix,
    _star_condition,
    _step_realize,
    back_and_forth,
    build_chain,
    embed_operator,
    enumerate_tasks,
    g_witness,
    glue_task,
    kernel_witness,
    pad_map,
    step_chain,
    surjectivity_witness,
    zero_chain,
)
from polyban.io import chain_to_json, dumps_canonical
from polyban.polytope import Ball, canon_set, complete_representations
from polyban.rationalize import repair_norm, repair_operator

from oracles import (
    brute_force_gauge,
    brute_force_vertices,
    correction_norm_inf,
    coset_min_norm,
    sphere_min_by_facet_lp,
)

OK_EMBEDDING = ("isometric", "strict-eps", "eps")


def announce(number: int, budget: float, started: float, detail: str) -> None:
    elapsed = time.monotonic() - started
    ok = elapsed < budget
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} "
          f"({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {number} exceeded its {budget:.0f}s budget"


def sample_space(rnd: random.Random, dim: int) -> Space:
    gens = [QVec.unit(dim, i) for i in range(dim)]
    for _ in range(rnd.randrange(0, 3)):
        v = QVec.of(
            [
                Fraction(rnd.randrange(-4, 5), rnd.choice((1, 2, 3, 4)))
                for _ in range(dim)
            ]
        )
        if not v.is_zero():
            gens.append(v)
    if rnd.random() < 1 / 2:
        return space_from_vrep(dim, gens)
    return space_from_hrep(dim, gens)


def sample_nonexpansive(rnd: random.Random, X: Space, Y: Space) -> LinMap:
    mat = QMat.from_rows(
        [
            [
                Fraction(rnd.randrange(-3, 4), rnd.choice((2, 3, 4)))
                for _ in range(X.dim)
            ]
            for _ in range(Y.dim)
        ],
        cols=X.dim,
    )
    T = LinMap(mat, X, Y)
    norm = operator_norm(T)
    if norm > 1:
        T = LinMap(scale_matrix(mat, 1 / norm), X, Y)
    return T


def scale_matrix(mat: QMat, factor: Fraction) -> QMat:
    return QMat.from_rows(
        [[v * factor for v in row] for row in mat.entries], cols=mat.cols
    )


def sample_point(rnd: random.Random, dim: int, spread: int = 6) -> QVec:
    return QVec.of(
        [
            Fraction(rnd.randrange(-spread, spread + 1), rnd.choice((1, 2, 3)))
            for _ in range(dim)
        ]
    )


@pytest.fixture(scope="module")
def chain20():
    return build_chain(20, dim_cap=6, seed=0)


@pytest.fixture(scope="module")
def kernel_chain():
    chain = zero_chain(dim_cap=6, seed=0)
    chain = step_chain(chain, glue_task(0))
    chain = step_chain(chain, glue_task(Fraction(1, 2)))
    chain = step_chain(chain, glue_task(0))
    return chain


def test_criterion_01_correction_suite():
    started = time.monotonic()
    rnd = random.Random(101)
    eps_menu = (Fraction(1, 4), Fraction(1, 2), Fraction(1))
    instances = 0
    for _ in range(50):
        dx = rnd.choice((1, 1, 2, 2, 3))
        dy = rnd.choice((1, 1, 2, 2, 3))
        if dx + dy > 4:
            dy = 1
        X = sample_space(rnd, dx)
        Y = sample_space(rnd, dy)
        f = sample_nonexpansive(rnd, X, Y)
        low = lower_isometry_bound(f)
        allowed = [e for e in eps_menu if low >= 1 - e] or [Fraction(1)]
        eps = rnd.choice(allowed)
        c = correction_sum(f, eps)
        assert classify_embedding(c.iX, eps).verdict == "isometric"
        assert classify_embedding(c.jY, eps).verdict == "isometric"
        assert map_distance(c.iX, c.jY.compose(f)) <= eps
        for _ in range(100):
            v = sample_point(rnd, dx + dy)
            assert correction_norm_inf(c, v) == norm_eval(c.Z0, v)
        instances += 1
    announce(1, 60, started, f"{instances} instances x 100 gauge points")


def test_criterion_02_initial_object():
    started = time.monotonic()
    rnd = random.Random(202)
    objects = 0
    for _ in range(5):
        dx = rnd.choice((1, 2))
        dy = rnd.choice((1, 2))
        X = sample_space(rnd, dx)
        Y = sample_space(rnd, dy)
        f = sample_nonexpansive(rnd, X, Y)
        low = lower_isometry_bound(f)
        eps = Fraction(1) if low < Fraction(1, 2) else Fraction(1, 2)
        c = correction_sum(f, eps)
        for _ in range(4):
            P = sample_space(rnd, rnd.choice((1, 2, 3)))
            g = sample_nonexpansive(rnd, c.Z0, P)
            i, j = g.compose(c.iX), g.compose(c.jY)
            h = mediating_map(c, i, j)
            assert operator_norm(h) <= 1
            assert h.matrix @ c.iX.matrix == i.matrix
            assert h.matrix @ c.jY.matrix == j.matrix
            assert h.matrix == g.matrix
            objects += 1
    announce(2, 60, started, f"{objects} cocone objects mediated")


def test_criterion_03_pushout_suite():
    started = time.monotonic()
    rnd = random.Random(303)
    cocones = 0
    for idx in range(10):
        dz = rnd.choice((1, 2))
        Z = sample_space(rnd, dz)
        if idx % 2 == 0:
            X, i, _ = l1_sum(Z, sample_space(rnd, 1))
        else:
            X, i = Z, LinMap.identity(Z)
        Y = sample_space(rnd, rnd.choice((1, 2)))
        f = sample_nonexpansive(rnd, Z, Y)
        res = pushout(i, f)
        assert res.g.matrix @ i.matrix == res.j.matrix @ f.matrix
        assert is_isometric(i) and is_isometric(res.j)
        hull = [res.g(v) for v in X.ball.vrep]
        hull += [res.j(w) for w in Y.ball.vrep]
        rebuilt = complete_representations(
            Ball(res.W.dim, canon_set(hull), None)
        )
        assert rebuilt.vrep == res.W.ball.vrep
        for _ in range(10):
            P = sample_space(rnd, rnd.choice((1, 2)))
            h = sample_nonexpansive(rnd, res.W, P)
            g2, j2 = h.compose(res.g), h.compose(res.j)
            med = pushout_mediating(res, g2, j2)
            assert med.matrix == h.matrix
            assert operator_norm(med) <= 1
            assert med.matrix @ res.g.matrix == g2.matrix
            assert med.matrix @ res.j.matrix == j2.matrix
            cocones += 1
    announce(3, 60, started, f"10 pushouts, {cocones} cocones checked")


def test_criterion_04_delta_commutative_squares():
    started = time.monotonic()
    rnd = random.Random(404)
    squares = 0
    for _ in range(30):
        eps = rnd.choice((Fraction(1, 8), Fraction(1, 4)))
        delta = rnd.choice((Fraction(1, 8), Fraction(1, 4)))
        dx = rnd.choice((1, 2))
        dy = rnd.choice((1, 2))
        X0 = sample_space(rnd, dx)
        Y0 = sample_space(rnd, dy)
        shrink = 1 / (1 + eps)
        f0 = LinMap(scale_matrix(QMat.identity(dx), shrink), X0, X0)
        f1 = LinMap(scale_matrix(QMat.identity(dy), shrink), Y0, Y0)
        assert classify_embedding(f0, eps).verdict in OK_EMBEDDING
        assert classify_embedding(f1, eps).verdict in OK_EMBEDDING
        T0 = sample_nonexpansive(rnd, X0, Y0)
        T0 = LinMap(scale_matrix(T0.matrix, 1 - delta / 2), X0, Y0)
        bump = sample_nonexpansive(rnd, X0, Y0)
        T1 = LinMap(
            T0.matrix + scale_matrix(bump.matrix, delta / 2), X0, Y0
        )
        while operator_norm(T1) > 1 or map_distance(
            f1.compose(T0), T1.compose(f0)
        ) > delta:
            bump = LinMap(scale_matrix(bump.matrix, Fraction(1, 2)), X0, Y0)
            T1 = LinMap(
                T0.matrix + scale_matrix(bump.matrix, delta / 2), X0, Y0
            )
        defect = map_distance(f1.compose(T0), T1.compose(f0))
        phi = square_sum(T0, T1, f0, f1, eps, delta).phi
        src = correction_sum(f0, eps + delta)
        tgt = correction_sum(f1, eps)
        assert operator_norm(phi) <= 1
        assert phi.matrix @ src.iX.matrix == tgt.iX.matrix @ T0.matrix
        assert phi.matrix @ src.jY.matrix == tgt.jY.matrix @ T1.matrix
        assert defect <= delta
        squares += 1
    announce(4, 60, started, f"{squares} delta-commutative squares summed")


def test_criterion_05_norm_and_operator_repair():
    started = time.monotonic()
    rnd = random.Random(505)
    repairs = 0
    for idx in range(20):
        dy = rnd.choice((2, 3))
        Y = sample_space(rnd, dy)
        k = rnd.randrange(1, dy)
        cols = QMat.from_cols([QVec.unit(dy, i) for i in range(k)], rows=dy)
        X = pullback_space(cols, Y)
        incl = LinMap(cols, X, Y)
        delta = rnd.choice((Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)))
        rep = repair_norm(Y, incl, delta)
        assert is_isometric(rep.pinned)
        for x in X.ball.vrep:
            assert norm_eval(rep.repaired, incl(x)) == 1
        for v in Y.ball.vrep:
            assert norm_eval(rep.repaired, v) <= 1 + delta
        for w in rep.repaired.ball.vrep:
            assert norm_eval(Y, w) <= 1 + delta
        repairs += 1
    for idx in range(10):
        dx = rnd.choice((1, 2))
        X = sample_space(rnd, dx)
        Y = sample_space(rnd, rnd.choice((1, 2)))
        delta = rnd.choice((Fraction(1, 8), Fraction(1, 4)))
        T = sample_nonexpansive(rnd, X, Y)
        stretch = 1 + delta * Fraction(idx % 3, 2)
        T = LinMap(scale_matrix(T.matrix, stretch), X, Y)
        empty = zero_space()
        i0 = LinMap(QMat.zeros(dx, 0), empty, X)
        j0 = LinMap(QMat.zeros(Y.dim, 0), empty, Y)
        rx, ry, t_prime, _ = repair_operator(T, i0, j0, delta)
        factor = (1 + delta) ** 2
        assert operator_norm(t_prime) <= 1
        assert is_isometric(rx.pinned) and is_isometric(ry.pinned)
        for v in rx.original.ball.vrep:
            assert norm_eval(rx.repaired, v) <= factor
        for w in rx.repaired.ball.vrep:
            assert norm_eval(rx.original, w) <= factor
        repairs += 1
    announce(5, 30, started, f"{repairs} norm/operator repairs verified")


def test_criterion_06_chain_construction(chain20):
    started = time.monotonic()
    again = build_chain(20, dim_cap=6, seed=0)
    assert dumps_canonical(chain_to_json(chain20)) == dumps_canonical(
        chain_to_json(again)
    )
    assert again == chain20
    # Replay the fold, re-checking the realization identities at every
    # realized step from the returned embeddings.
    chain = zero_chain(dim_cap=6, seed=0)
    realized = 0
    for n in range(1, 21):
        task = enumerate_tasks(chain, n)[n - 1]
        stepped = step_chain(chain, task)
        if stepped.log[-1].verdict.startswith("realized"):
            replayed, emb_x, emb_y = _step_realize(chain, task, chain.dim_cap)
            stage = replayed.stages[-1]
            anchor = chain.stages[task.k]
            assert stage.F.matrix @ emb_x.matrix == emb_y.matrix @ task.T.matrix
            assert emb_x.matrix @ task.i.matrix == _pad_matrix(
                anchor.U.dim, stage.U.dim
            )
            assert emb_y.matrix @ task.j.matrix == _pad_matrix(
                anchor.V.dim, stage.V.dim
            )
            assert replayed == stepped
            realized += 1
        chain = stepped
    assert chain == chain20
    assert realized >= 5
    for prev, stage in zip(chain.stages, chain.stages[1:]):
        assert operator_norm(stage.F) <= 1
        incl_u, incl_v = pad_map(prev.U, stage.U), pad_map(prev.V, stage.V)
        assert stage.F.compose(incl_u) == incl_v.compose(prev.F)
        assert is_isometric(incl_u) and is_isometric(incl_v)
    announce(6, 300, started, f"20 stages, {realized} realizations re-checked")


def test_criterion_07_extension_witnesses(chain20):
    started = time.monotonic()
    eps = Fraction(1, 4)
    covered = 0
    # Zero-seeded one-dimensional extensions over a spread of stages, plus
    # line-seeded two-dimensional extensions over unit columns.
    scripted = []
    empty = zero_space()
    for n, c in ((3, Fraction(-1, 2)), (5, Fraction(1, 2)), (8, Fraction(0)),
                 (10, Fraction(1)), (14, Fraction(-1))):
        X = line()
        T = LinMap(scale_matrix(QMat.identity(1), c), X, X)
        x0 = LinMap(QMat.zeros(1, 0), empty, X)
        stage = chain20.stages[n]
        seed = OperatorSquare(
            LinMap.zero(empty, empty),
            stage.F,
            LinMap.zero(empty, stage.U),
            LinMap.zero(empty, stage.V),
            eps,
            Fraction(0),
        )
        scripted.append((n, T, x0, x0, seed))
    for n in (6, 9, 10, 13, 16):
        stage = chain20.stages[n]
        col = next(
            c
            for c in range(stage.U.dim)
            if norm_eval(stage.V, stage.F(QVec.unit(stage.U.dim, c))) == 1
            and is_isometric(
                LinMap(
                    QMat.from_cols([QVec.unit(stage.U.dim, c)], rows=stage.U.dim),
                    line(),
                    stage.U,
                )
            )
        )
        image = stage.F(QVec.unit(stage.U.dim, col))
        i0 = LinMap(
            QMat.from_cols([QVec.unit(stage.U.dim, col)], rows=stage.U.dim),
            line(),
            stage.U,
        )
        i1 = LinMap(QMat.from_cols([image], rows=stage.V.dim), line(), stage.V)
        assert is_isometric(i1)
        S = LinMap(QMat.identity(1), line(), line())
        X = l1_space(2)
        T = LinMap(QMat.from_rows([[1, 0], [0, Fraction(n % 3, 4)]]), X, X)
        incl = LinMap(QMat.from_rows([[1], [0]]), line(), X)
        seed = OperatorSquare(S, stage.F, i0, i1, eps, Fraction(0))
        scripted.append((n, T, incl, incl, seed))
    for n, T, x0incl, y0incl, seed in scripted:
        i_prime, j_prime, m, extended, _ = g_witness(
            chain20, T, x0incl, y0incl, seed, eps
        )
        target = extended.stages[m]
        assert target.F.matrix @ i_prime.matrix == j_prime.matrix @ T.matrix
        stage = chain20.stages[n]
        pad_u = pad_map(stage.U, target.U)
        pad_v = pad_map(stage.V, target.V)
        assert (
            map_distance(i_prime.compose(x0incl), pad_u.compose(seed.i0)) < eps
        )
        assert (
            map_distance(j_prime.compose(y0incl), pad_v.compose(seed.i1)) < eps
        )
        assert classify_embedding(i_prime, eps).verdict in OK_EMBEDDING
        assert classify_embedding(j_prime, eps).verdict in OK_EMBEDDING
        covered += 1
    announce(7, 300, started, f"{covered} scripted witnesses, all exact")


def test_criterion_08_universality_transcript():
    started = time.monotonic()
    chain = build_chain(4, dim_cap=2, seed=0)
    schedule = EpsSchedule.dyadic(5)
    assert schedule.eps(0) == 1
    assert all(schedule.eps(n) == Fraction(1, 2**n) for n in range(6))
    jordan = LinMap(
        QMat.from_rows([[0, 1], [0, 0]]), l1_space(2), l1_space(2)
    )
    ident = LinMap(QMat.identity(1), line(), line())
    for T in (jordan, ident):
        squares, _ = embed_operator(chain, T, schedule, 5)
        assert len(squares) == 6
        for n, sq in enumerate(squares):
            eps_n = schedule.eps(n)
            assert map_distance(sq.T.compose(sq.i0), sq.i1.compose(sq.S)) == 0
            assert sq.T.matrix @ sq.i0.matrix == sq.i1.matrix @ sq.S.matrix
            assert classify_embedding(sq.i0, eps_n).verdict in OK_EMBEDDING
            assert classify_embedding(sq.i1, eps_n).verdict in OK_EMBEDDING
            if n == 0:
                continue
            prev = squares[n - 1]
            pad_x = LinMap(
                _pad_matrix(prev.S.domain.dim, sq.S.domain.dim),
                prev.S.domain,
                sq.S.domain,
            )
            pad_y = LinMap(
                _pad_matrix(prev.S.codomain.dim, sq.S.codomain.dim),
                prev.S.codomain,
                sq.S.codomain,
            )
            d0 = map_distance(
                sq.i0.compose(pad_x),
                pad_map(prev.i0.codomain, sq.i0.codomain).compose(prev.i0),
            )
            d1 = map_distance(
                sq.i1.compose(pad_y),
                pad_map(prev.i1.codomain, sq.i1.codomain).compose(prev.i1),
            )
            assert max(d0, d1) <= 3 * eps_n
    announce(8, 300, started, "two towers, depth 5, all bounds exact")


def test_criterion_09_back_and_forth_transcript():
    started = time.monotonic()
    A = build_chain(3, dim_cap=6, seed=2)
    B = build_chain(3, dim_cap=6, seed=3)
    eps = Fraction(1, 2)
    depth = 4
    seed = OperatorSquare(
        A.stages[0].F,
        B.stages[0].F,
        LinMap.zero(A.stages[0].U, B.stages[0].U),
        LinMap.zero(A.stages[0].V, B.stages[0].V),
        eps,
        Fraction(0),
    )
    transcript = back_and_forth(A, B, seed, eps, depth)
    assert len(transcript.kSquares) == depth + 1
    assert len(transcript.lSquares) == depth
    for sq in transcript.kSquares[1:] + transcript.lSquares:
        assert map_distance(sq.T.compose(sq.i0), sq.i1.compose(sq.S)) == 0
        assert is_isometric(sq.i0) and is_isometric(sq.i1)
    # Derive the schedule by the documented rule: an exact seed has
    # quality eps/2, and the dyadic tail starts at the smallest shift
    # whose first term fits strictly under both margins.
    eps0 = eps / 2
    shift = next(
        k
        for k in range(64)
        if 3 * Fraction(1, 2**k) < eps - eps0
        and Fraction(1, 2 ** (k + 1)) < eps0
    )
    eps_of = lambda n: eps0 if n == 0 else Fraction(1, 2 ** (n + shift))
    expected = tuple(
        2 * eps_of(n - 1) + 3 * eps_of(n) + eps_of(n + 1)
        for n in range(1, depth + 1)
    )
    assert transcript.etas == expected
    assert sum(transcript.etas, Fraction(0)) < 2 * eps
    assert sum(transcript.etas, Fraction(0)) == Fraction(417, 512)
    tail = EpsSchedule(eps0, tuple(eps_of(n) for n in range(1, depth + 3)))
    assert tail.satisfies_condition_s(eps)
    announce(9, 300, started, "depth 4, eta series 417/512 < 1")


def test_criterion_10_kernel_and_surjectivity(chain20, kernel_chain):
    started = time.monotonic()
    rnd = random.Random(1010)
    eps = Fraction(1, 4)
    surjections = 0
    for _ in range(8):
        dim = rnd.choice((1, 2, 3))
        v = sample_point(rnd, dim, spread=4)
        while v.is_zero():
            v = sample_point(rnd, dim, spread=4)
        m, u, extended, _ = surjectivity_witness(chain20, v)
        stage = extended.stages[m]
        lifted = v.concat(QVec.zero(stage.V.dim - v.dim))
        assert stage.F.matrix.apply(u) == lifted
        surjections += 1
    for scale in (Fraction(1), Fraction(-3, 2)):
        v = QVec.of([scale])
        m, u, extended, _ = surjectivity_witness(kernel_chain, v)
        stage = extended.stages[m]
        lifted = v.concat(QVec.zero(stage.V.dim - v.dim))
        assert stage.F.matrix.apply(u) == lifted
        surjections += 1
    kernels = 0
    zero_cols = [
        (idx, c)
        for idx, st in enumerate(kernel_chain.stages)
        for c in range(st.U.dim)
        if all(st.F.matrix.entries[r][c] == 0 for r in range(st.V.dim))
    ]
    assert zero_cols
    picks = (zero_cols * 3)[:5]
    for pick, sign in zip(picks, (1, -1, 1, -1, 1)):
        idx, c = pick
        stage = kernel_chain.stages[idx]
        basis = QVec.unit(stage.U.dim, c)
        i = LinMap(
            QMat.from_cols([basis.scale(sign)], rows=stage.U.dim),
            line(),
            stage.U,
        )
        if kernels % 2 == 0:
            x0incl = LinMap.identity(line())
        else:
            x0incl = LinMap(QMat.from_rows([[1], [0]]), line(), l1_space(2))
        i_prime, m, extended, _ = kernel_witness(
            kernel_chain, x0incl, i, eps
        )
        target = extended.stages[m]
        assert (target.F.matrix @ i_prime.matrix).is_zero()
        assert is_isometric(i_prime)
        pad_u = pad_map(stage.U, target.U)
        assert map_distance(i_prime.compose(x0incl), pad_u.compose(i)) < eps
        kernels += 1
    announce(
        10, 120, started, f"{surjections} preimages, {kernels} kernel embeddings"
    )


def test_criterion_11_oracle_cross_checks():
    started = time.monotonic()
    rnd = random.Random(1111)
    # Operator norm against the gauge-LP brute force over codomain vertices.
    for _ in range(10):
        X = sample_space(rnd, rnd.choice((1, 2, 3)))
        Y = sample_space(rnd, rnd.choice((1, 2)))
        T = sample_nonexpansive(rnd, X, Y)
        brute = max(
            brute_force_gauge(Y.ball.vrep, T(v)) for v in X.ball.vrep
        )
        assert operator_norm(T) == brute
    # Lower isometry bound against a facet-LP oracle and sphere sampling.
    sampled_points = 0
    for _ in range(3):
        X = sample_space(rnd, 2)
        Y = sample_space(rnd, rnd.choice((2, 3)))
        T = sample_nonexpansive(rnd, X, Y)
        while lower_isometry_bound(T) == 0:
            T = sample_nonexpansive(rnd, X, Y)
        exact = lower_isometry_bound(T)
        assert exact == sphere_min_by_facet_lp(T.matrix, X, Y)
        best = None
        for _ in range(1000):
            x = sample_point(rnd, 2, spread=5)
            if x.is_zero():
                continue
            unit = x.scale(1 / norm_eval(X, x))
            value = norm_eval(Y, T(unit))
            best = value if best is None else min(best, value)
            sampled_points += 1
        assert best >= exact
    # Quotient norm against the coset LP.
    for _ in range(5):
        X = sample_space(rnd, 3)
        k = sample_point(rnd, 3, spread=3)
        while k.is_zero():
            k = sample_point(rnd, 3, spread=3)
        Q, proj = quotient(X, [k])
        for _ in range(10):
            x = sample_point(rnd, 3)
            assert norm_eval(Q, proj(x)) == coset_min_norm(X, [k], x)
    # Double-description round trip against brute-force vertex enumeration.
    for _ in range(5):
        dim = rnd.choice((2, 3))
        space = sample_space(rnd, dim)
        from_h = complete_representations(
            Ball(dim, None, space.ball.hrep)
        )
        assert from_h.vrep == space.ball.vrep
        assert from_h.hrep == space.ball.hrep
        brute = canon_set(
            brute_force_vertices([list(phi.entries) for phi in space.ball.hrep], dim)
        )
        assert tuple(brute) == space.ball.vrep
    announce(
        11,
        120,
        started,
        f"norms, bounds ({sampled_points} sphere samples), quotients, round trips",
    )
