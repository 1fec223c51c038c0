"""Chain construction, task enumeration, and the witness searches."""

from fractions import Fraction

import pytest

from oracles import eager_task_pool, two_sided_realize_square
from polyban.banach import (
    LinMap,
    Space,
    is_isometric,
    l1_sum,
    linf_space,
    lower_isometry_bound,
    map_distance,
    norm_eval,
    operator_norm,
    pullback_space,
    zero_space,
)
from polyban.errors import CapExceeded, PreconditionError, VerificationError
from polyban.exactlin import QMat, QVec
from polyban.fraisse import (
    BnfTranscript,
    Chain,
    EpsSchedule,
    OperatorSquare,
    Task,
    back_and_forth,
    build_chain,
    claim_step,
    embed_operator,
    ensure_dim,
    enumerate_tasks,
    g_witness,
    glue_task,
    identity_square,
    kernel_witness,
    make_square,
    pad_map,
    realize_over,
    space_witness,
    step_chain,
    surjectivity_witness,
    zero_chain,
    zero_task,
    _dovetail,
    _extension_task,
    _repeat_stage,
    _stage_index,
    _star_condition,
    _step_realize,
)

F = Fraction


def line_space():
    from polyban.banach import line

    return line()


def defect(sq):
    """The square's defect computed afresh, not the value it carries."""
    return map_distance(sq.T.compose(sq.i0), sq.i1.compose(sq.S))


def axis_subspace(space, axis=0):
    col = QVec.unit(space.dim, axis)
    mat = QMat.from_cols([col], rows=space.dim)
    sub = pullback_space(mat, space)
    return sub, LinMap(mat, sub, space)


class TestSchedule:
    def test_dyadic(self):
        s = EpsSchedule.dyadic(4)
        assert s.eps0 == 1
        assert s.eps(1) == F(1, 2)
        assert s.eps(4) == F(1, 16)

    def test_condition_s(self):
        s = EpsSchedule(F(1, 8), (F(1, 64), F(1, 128), F(1, 256)))
        assert s.satisfies_condition_s(F(1, 2))
        assert not s.satisfies_condition_s(F(1, 6))

    def test_rejects_nonmonotone(self):
        with pytest.raises(PreconditionError):
            EpsSchedule(F(1, 4), (F(1, 2),))
        with pytest.raises(PreconditionError):
            EpsSchedule(F(1, 4), (F(1, 8), F(0)))


class TestEnumerateTasks:
    def test_budget_one_is_zero_task(self):
        chain = zero_chain()
        tasks = enumerate_tasks(chain, 1)
        assert len(tasks) == 1
        assert tasks[0].T.domain.dim == 0
        assert tasks[0].T.codomain.dim == 0
        assert tasks[0].k == 0

    def test_budget_fifty_repeats_zero_task(self):
        chain = zero_chain()
        tasks = enumerate_tasks(chain, 50)
        zero_count = sum(
            1 for t in tasks if t.T.domain.dim == 0 and t.T.codomain.dim == 0
        )
        assert zero_count >= 2

    def test_deterministic(self):
        chain = build_chain(3)
        a = enumerate_tasks(chain, 12)
        b = enumerate_tasks(chain, 12)
        assert a == b

    def test_prefix_stable_as_budget_grows(self):
        chain = build_chain(3)
        assert enumerate_tasks(chain, 20)[:8] == enumerate_tasks(chain, 8)

    def test_prefix_stable_as_chain_grows(self):
        small = build_chain(2)
        big = build_chain(5)
        # Emissions made against the small chain persist for the big one.
        assert enumerate_tasks(big, 3) == enumerate_tasks(small, 3)

    def test_respects_dim_cap(self):
        chain = build_chain(8, dim_cap=3)
        for task in enumerate_tasks(chain, 40):
            assert task.T.domain.dim <= chain.dim_cap + 1
            assert task.T.codomain.dim <= chain.dim_cap

    @pytest.mark.parametrize("cap", range(2, 9))
    def test_lazy_pool_draws_equal_the_eager_pool(self, cap):
        """Stage groups built when drawn, unsorted, emit the tasks of the
        sorted pool built in full, for a budget that draws every index."""
        for seed in range(16):
            chain = build_chain(30, cap, seed)
            pool = eager_task_pool(chain)
            budget = len(pool) * (len(pool) + 1) // 2
            assert {_dovetail(t) for t in range(budget)} == set(range(len(pool)))
            expected = [pool[_dovetail(t) % len(pool)] for t in range(budget)]
            assert enumerate_tasks(chain, budget) == expected


def realized_in_full(chain, task):
    """The full path of step_chain for a task that meets condition (*): the
    task realized through _step_realize, a cap overflow logged."""
    try:
        out, _, _ = _step_realize(chain, task, chain.dim_cap)
    except CapExceeded:
        return _repeat_stage(chain, task, "skipped:cap")
    return out


class TestStepChain:
    def test_zero_task_realized_verbatim(self):
        chain = zero_chain()
        out = step_chain(chain, zero_task())
        assert len(out.stages) == 2
        assert out.stages[1].U.dim == 0
        assert out.log[-1].verdict == "realized"

    def test_glue_line_realized(self):
        chain = zero_chain()
        task = glue_task(F(1, 2))
        out = step_chain(chain, task)
        stage = out.stages[1]
        assert stage.U.dim == 1 and stage.V.dim == 1
        assert stage.F.matrix.entries == ((F(1, 2),),)
        assert out.log[-1].verdict == "realized"

    def test_star_failure_repeats(self):
        chain = zero_chain()
        bad = Task(glue_task(1).T, glue_task(1).i, glue_task(1).j, 5)
        out = step_chain(chain, bad)
        assert out.log[-1].verdict == "repeated"
        assert out.stages[1].U == chain.stages[0].U

    def test_noncommuting_task_repeats(self):
        chain = step_chain(zero_chain(), glue_task(1))
        ln = chain.stages[1].U
        # claims to extend stage 1 but the square does not commute
        bad = Task(
            LinMap(QMat.from_rows([[F(-1)]]), ln, ln),
            LinMap.identity(ln),
            LinMap.identity(ln),
            1,
        )
        out = step_chain(chain, bad)
        assert out.log[-1].verdict == "repeated"

    def test_cap_skip_logged(self):
        chain = step_chain(zero_chain(dim_cap=1), glue_task(1))
        out = step_chain(chain, glue_task(F(1, 2)))
        assert out.log[-1].verdict == "skipped:cap"
        assert out.stages[-1].U.dim == 1

    def test_chain_cap_past_the_hard_cap_skips(self):
        chain = ensure_dim(zero_chain(dim_cap=9), 8)
        out = step_chain(chain, glue_task(0))
        assert out.log[-1].verdict == "skipped:cap"
        assert out.stages[-1].U.dim == 8

    def test_growth_on_one_side_realized(self):
        zero = zero_space()
        ln = line_space()
        task = Task(LinMap.zero(ln, zero), LinMap.zero(zero, ln), LinMap.identity(zero), 0)
        out = step_chain(zero_chain(), task)
        assert out.log[-1].verdict == "realized"
        assert (out.stages[-1].U.dim, out.stages[-1].V.dim) == (1, 0)

    def test_no_growth_past_the_cap_skips(self):
        chain = ensure_dim(zero_chain(dim_cap=2), 4)
        out = step_chain(chain, zero_task())
        assert out.log[-1].verdict == "skipped:cap"
        assert out.stages == chain.stages + chain.stages[-1:]

    @pytest.mark.parametrize("cap", range(4, 9))
    def test_every_step_equals_its_full_realization(self, monkeypatch, cap):
        """A step whose task adds no dimension appends the previous stage
        itself; realizing every task in full gives equal stages and verdicts."""
        import polyban.fraisse

        shared = []

        def checked(chain, task):
            out = step_chain(chain, task)
            if _star_condition(chain, task):
                assert out == realized_in_full(chain, task)
                if out.stages[-1] is chain.stages[-1]:
                    shared.append(out.log[-1].verdict)
            return out

        monkeypatch.setattr(polyban.fraisse, "step_chain", checked)
        for seed in range(16):
            build_chain(20, cap, seed)
        assert shared.count("realized") >= 16 * 8

    def test_realize_over_runs_only_on_growing_steps(self, monkeypatch):
        import polyban.fraisse

        calls = []

        def counted(*args):
            calls.append(args)
            return realize_over(*args)

        monkeypatch.setattr(polyban.fraisse, "realize_over", counted)
        chain = build_chain(30, 8, 1)
        pairs = list(zip(chain.stages, chain.stages[1:]))
        growing = [
            (prev.U.dim, prev.V.dim) != (stage.U.dim, stage.V.dim) for prev, stage in pairs
        ]
        # Every square of this chain is symmetric, so each growing step
        # amalgamates once and shares its U as its V.
        assert len(calls) == sum(growing)
        assert all(stage is prev for (prev, stage), grew in zip(pairs, growing) if not grew)
        assert all(stage.V is stage.U for stage in chain.stages)
        assert sum(growing) == 8

    @pytest.mark.parametrize("cap", range(2, 9))
    def test_every_realized_square_equals_the_two_sided_oracle(self, monkeypatch, cap):
        import polyban.fraisse

        real = polyban.fraisse._realize_square
        squares = []

        def checked(*args):
            out = real(*args)
            assert out == two_sided_realize_square(*args)
            squares.append(out[0])
            return out

        monkeypatch.setattr(polyban.fraisse, "_realize_square", checked)
        for seed in range(16):
            build_chain(30, cap, seed)
        assert squares and all(stage.V is stage.U for stage in squares)

    def test_asymmetric_square_realizes_both_sides(self, monkeypatch):
        import polyban.fraisse

        calls = []

        def counted(*args):
            calls.append(args)
            return realize_over(*args)

        chain = build_chain(3, 4, 0)
        prev = chain.stages[-1]
        task = _extension_task(prev, 3, 0, F(1, 2))
        monkeypatch.setattr(polyban.fraisse, "realize_over", counted)
        out = step_chain(chain, task)
        assert out.log[-1].verdict == "realized"
        stage = out.stages[-1]
        assert (stage.U.dim, stage.V.dim) == (2, 1)
        assert len(calls) == 2 and stage.V is not stage.U
        pads = pad_map(prev.U, prev.U), pad_map(prev.V, prev.V)
        assert stage == two_sided_realize_square(prev, *pads, task.T, task.i, task.j)[0]

    def test_stage_invariants(self):
        chain = build_chain(6, dim_cap=4, seed=0)
        for prev, stage in zip(chain.stages, chain.stages[1:]):
            assert operator_norm(stage.F) <= 1
            incl_u, incl_v = pad_map(prev.U, stage.U), pad_map(prev.V, stage.V)
            assert stage.F.compose(incl_u) == incl_v.compose(prev.F)
            assert is_isometric(incl_u) and is_isometric(incl_v)

    def test_realization_is_exact_with_retraction(self):
        chain = build_chain(3, dim_cap=4, seed=0)
        stage = chain.stages[-1]
        task = Task(stage.F, LinMap.identity(stage.U), LinMap.identity(stage.V), 3)
        out = step_chain(chain, task)
        assert out.log[-1].verdict == "realized"
        new = out.stages[-1]
        # re-realizing a whole stage along itself adds nothing new
        assert new.U.dim == stage.U.dim


class TestBuildChain:
    def test_deterministic(self):
        a = build_chain(8, dim_cap=4, seed=0)
        b = build_chain(8, dim_cap=4, seed=0)
        assert a == b

    def test_seed_changes_chain(self):
        a = build_chain(6, dim_cap=4, seed=0)
        b = build_chain(6, dim_cap=4, seed=7)
        assert a != b

    def test_frozen_seed_zero_prefix(self):
        chain = build_chain(6, dim_cap=4, seed=0)
        dims = [(s.U.dim, s.V.dim) for s in chain.stages]
        assert dims == [(0, 0), (0, 0), (0, 0), (1, 1), (1, 1), (2, 2), (3, 3)]
        assert chain.stages[3].F.matrix.entries == ((F(-1),),)
        assert chain.stages[6].F.matrix.entries == (
            (F(-1), F(0), F(0)),
            (F(0), F(-1), F(0)),
            (F(0), F(0), F(1, 2)),
        )

    def test_realization_count(self):
        chain = build_chain(8, dim_cap=4, seed=0)
        realized = [e for e in chain.log if e.verdict == "realized"]
        assert len(realized) >= 5

    def test_stage_zero(self):
        chain = build_chain(0)
        assert len(chain.stages) == 1
        assert chain.stages[0].U == zero_space()

    def test_task_pool_grows_by_one_group_per_stage(self, monkeypatch):
        import polyban.fraisse

        calls = []

        def counting_l1_sum(*args, **kwargs):
            calls.append(args)
            return l1_sum(*args, **kwargs)

        monkeypatch.setattr(polyban.fraisse, "l1_sum", counting_l1_sum)
        build_chain(9, 6, 1)
        assert len(calls) <= 8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("cap", [4, 6])
    def test_equals_enumerate_tasks_fold(self, seed, cap):
        chain = zero_chain(cap, seed)
        for n in range(1, 9):
            chain = step_chain(chain, enumerate_tasks(chain, n)[n - 1])
            assert build_chain(n, cap, seed) == chain


class TestRealizeOver:
    def test_glue_identity_and_leading_coords(self):
        plane = linf_space(2)
        sub, incl = axis_subspace(plane)
        ln = line_space()
        via = LinMap(QMat.identity(1), sub, ln)
        N, emb = realize_over(ln, via, incl)
        assert N.dim == 2
        inclP = pad_map(ln, N)
        assert inclP.matrix == QMat.from_cols([QVec.unit(2, 0)], rows=2)
        assert emb.matrix @ incl.matrix == inclP.matrix @ via.matrix
        assert is_isometric(emb) and is_isometric(inclP)

    def test_full_overlap_preserves_space(self):
        plane = linf_space(2)
        via = LinMap.identity(plane)
        N, emb = realize_over(plane, via, via)
        assert N == plane
        assert emb.matrix == QMat.identity(2)

    def test_disjoint_sum(self):
        ln = line_space()
        zero = zero_space()
        N, emb = realize_over(ln, LinMap.zero(zero, ln), LinMap.zero(zero, ln))
        assert N.dim == 2
        assert norm_eval(N, QVec.of([F(1), F(1)])) == 2  # l1 glue

    def test_cap(self):
        cube = linf_space(8)
        zero = zero_space()
        with pytest.raises(CapExceeded, match="dimension 9 exceeds cap 8"):
            realize_over(cube, LinMap.zero(zero, cube), LinMap.zero(zero, line_space()))


class TestGWitness:
    def setup_method(self):
        self.chain = build_chain(6, dim_cap=4, seed=0)

    def test_fast_path_restriction_of_stage(self):
        stage = self.chain.stages[3]
        seed = identity_square(self.chain, 3)
        i_p, j_p, m, out, _ = g_witness(
            self.chain,
            stage.F,
            LinMap.identity(stage.U),
            LinMap.identity(stage.V),
            seed,
            F(1, 4),
        )
        assert m == 3
        assert out == self.chain
        assert i_p == seed.i0 and j_p == seed.i1

    def test_extension_realized_exactly(self):
        stage = self.chain.stages[3]
        # extend F_3 by a fresh l1 direction mapped to half the basis vector
        X, inl, _ = l1_sum(stage.U, line_space())
        col = QVec.unit(1, 0).scale(F(1, 2))
        T = LinMap(
            stage.F.matrix.hstack(QMat.from_cols([col], rows=1)), X, stage.V
        )
        seed = OperatorSquare(
            stage.F,
            stage.F,
            LinMap.identity(stage.U),
            LinMap.identity(stage.V),
            F(1, 4),
            F(0),
        )
        i_p, j_p, m, out, _ = g_witness(
            self.chain, T, inl, LinMap.identity(stage.V), seed, F(1, 4)
        )
        target = out.stages[m]
        assert target.F.matrix @ i_p.matrix == j_p.matrix @ T.matrix
        assert is_isometric(i_p) and is_isometric(j_p)
        # restriction to the seeded subspace is the plain inclusion
        pad = pad_map(stage.U, target.U)
        assert map_distance(i_p.compose(inl), pad.compose(seed.i0)) == 0

    def test_rejects_non_extension(self):
        stage = self.chain.stages[3]
        seed = identity_square(self.chain, 3)
        bad_T = LinMap(QMat.from_rows([[F(1, 3)]]), stage.U, stage.V)
        with pytest.raises(PreconditionError):
            g_witness(
                self.chain,
                bad_T,
                LinMap.identity(stage.U),
                LinMap.identity(stage.V),
                seed,
                F(1, 4),
            )

    def test_rejects_unseeded_stage(self):
        other = build_chain(4, dim_cap=3, seed=11)
        foreign = identity_square(other, 3)
        stage = other.stages[3]
        with pytest.raises(PreconditionError):
            g_witness(
                self.chain,
                stage.F,
                LinMap.identity(stage.U),
                LinMap.identity(stage.V),
                foreign,
                F(1, 4),
            )

    def test_rejects_expansive_operator(self):
        stage = self.chain.stages[3]
        seed = identity_square(self.chain, 3)
        big = LinMap(QMat.from_rows([[F(2)]]), stage.U, stage.V)
        with pytest.raises(PreconditionError):
            g_witness(
                self.chain,
                big,
                LinMap.identity(stage.U),
                LinMap.identity(stage.V),
                seed,
                F(1, 4),
            )


class TestClaimStep:
    def test_exact_fast_path(self):
        chain = build_chain(4, dim_cap=3, seed=0)
        stage = chain.stages[3]
        X, inl, _ = l1_sum(stage.U, line_space())
        T = LinMap(
            stage.F.matrix.hstack(QMat.zeros(1, 1)), X, stage.V
        )
        f = make_square(stage.F, T, inl, LinMap.identity(stage.V), F(1, 4))
        assert f.defect == 0
        g, out, c0, c1 = claim_step(chain, f, identity_square(chain, 3), F(1, 4))
        assert (c0, c1) == (0, 0)
        assert defect(g) == 0
        assert g.T == out.stages[-1].F

    def test_inexact_absorbed_by_correction(self):
        chain = build_chain(4, dim_cap=3, seed=0)
        stage = chain.stages[3]
        T2 = LinMap(QMat.from_rows([[F(-1)]]), stage.U, stage.V)
        h = F(3, 4)
        leg0 = LinMap(QMat.from_rows([[h]]), stage.U, stage.U)
        leg1 = LinMap(QMat.from_rows([[h]]), stage.V, stage.V)
        f = make_square(stage.F, T2, leg0, leg1, F(1, 2))
        g, out, c0, c1 = claim_step(chain, f, identity_square(chain, 3), F(1, 4))
        assert defect(g) == 0
        assert is_isometric(g.i0) and is_isometric(g.i1)
        bound = f.eps + f.defect
        assert c0 <= bound and c1 <= bound

    def test_mismatched_source_rejected(self):
        chain = build_chain(4, dim_cap=3, seed=0)
        f = make_square(
            chain.stages[0].F,
            chain.stages[0].F,
            LinMap.identity(zero_space()),
            LinMap.identity(zero_space()),
            F(1, 4),
        )
        with pytest.raises(PreconditionError):
            claim_step(chain, f, identity_square(chain, 3), F(1, 4))


class TestSpaceWitness:
    def setup_method(self):
        self.chain = build_chain(6, dim_cap=4, seed=0)
        self.plane = linf_space(2)
        self.sub, self.incl = axis_subspace(self.plane)

    def test_domain_side(self):
        stage = self.chain.stages[3]
        i = LinMap(QMat.identity(1), self.sub, stage.U)
        w = space_witness(self.chain, "domain", self.incl, i, F(1, 4))
        assert is_isometric(w)
        assert w.domain == self.plane
        restricted = w.matrix @ self.incl.matrix
        expected = pad_map(stage.U, w.codomain).matrix @ i.matrix
        assert restricted == expected

    def test_codomain_side(self):
        stage = self.chain.stages[3]
        j = LinMap(QMat.identity(1), self.sub, stage.V)
        w = space_witness(self.chain, "codomain", self.incl, j, F(1, 4))
        assert is_isometric(w)
        assert w.domain == self.plane

    def test_full_subspace_returns_seed(self):
        stage = self.chain.stages[3]
        i = LinMap(QMat.identity(1), stage.U, stage.U)
        w = space_witness(
            self.chain, "domain", LinMap.identity(stage.U), i, F(1, 4)
        )
        assert w == i

    def test_bad_side_rejected(self):
        with pytest.raises(PreconditionError):
            space_witness(
                self.chain,
                "sideways",
                self.incl,
                LinMap(QMat.identity(1), self.sub, self.chain.stages[3].U),
                F(1, 4),
            )


class TestKernelWitness:
    def test_line_into_kernel(self):
        chain = step_chain(zero_chain(4, 0), glue_task(0))
        stage = chain.stages[1]
        assert stage.F.matrix.entries == ((F(0),),)
        plane = linf_space(2)
        sub, incl = axis_subspace(plane)
        i = LinMap(QMat.identity(1), sub, stage.U)
        w, m, extended, _ = kernel_witness(chain, incl, i, F(1, 4))
        assert is_isometric(w)
        assert w.domain == plane
        assert (extended.stages[m].F.matrix @ w.matrix).is_zero()

    def test_rejects_non_kernel_seed(self):
        chain = step_chain(zero_chain(4, 0), glue_task(1))
        stage = chain.stages[1]
        plane = linf_space(2)
        sub, incl = axis_subspace(plane)
        i = LinMap(QMat.identity(1), sub, stage.U)
        with pytest.raises(PreconditionError):
            kernel_witness(chain, incl, i, F(1, 4))


class TestSurjectivityWitness:
    def test_fast_path_in_range(self):
        chain = build_chain(6, dim_cap=4, seed=0)
        v = QVec.of([F(1), F(1)])
        m, u, _, _ = surjectivity_witness(chain, v)
        assert m == 5
        assert u.entries == (F(-1), F(-1))

    def test_slow_path_outside_range(self):
        chain = step_chain(zero_chain(4, 0), glue_task(0))
        m, u, _, _ = surjectivity_witness(chain, QVec.of([F(1)]))
        assert m == 2
        # the witness stage hits v on the nose
        target = chain  # original chain is not mutated
        assert len(target.stages) == 2

    def test_rejects_zero(self):
        chain = build_chain(4, dim_cap=3, seed=0)
        with pytest.raises(PreconditionError):
            surjectivity_witness(chain, QVec.zero(1))


class TestEnsureDim:
    def test_grows_both_sides(self):
        chain = build_chain(2, dim_cap=4, seed=0)
        grown = ensure_dim(chain, 3)
        assert grown.stages[-1].U.dim >= 3
        assert grown.stages[-1].V.dim >= 3

    def test_noop_when_large_enough(self):
        chain = build_chain(6, dim_cap=4, seed=0)
        assert ensure_dim(chain, 1) == chain

    def test_stops_at_the_hard_cap(self):
        chain = ensure_dim(zero_chain(), 8)
        assert chain.stages[-1].U.dim == 8
        assert chain.log[-1].verdict == "realized:cap-bypass"
        with pytest.raises(CapExceeded):
            ensure_dim(chain, 9)


class TestEmbedOperator:
    def test_jordan_block(self):
        X = linf_space(2)
        J = LinMap(QMat.from_rows([[0, 1], [0, 0]]), X, X)
        chain = build_chain(4, dim_cap=2, seed=0)
        sched = EpsSchedule(F(1), tuple(F(1, 2**n) for n in range(1, 6)))
        squares, _ = embed_operator(chain, J, sched, 5)
        assert len(squares) == 6
        for n, sq in enumerate(squares):
            assert defect(sq) == 0
            assert sq.eps == sched.eps(n)
            if sq.S.domain.dim:
                assert is_isometric(sq.i0) and is_isometric(sq.i1)
        # saturation: truncations stop changing once the spaces are exhausted
        assert squares[2].S.domain.dim == 2
        assert squares[5].S == squares[2].S

    def test_identity_on_line(self):
        ln = line_space()
        ident = LinMap.identity(ln)
        chain = build_chain(4, dim_cap=2, seed=0)
        sched = EpsSchedule(F(1), tuple(F(1, 2**n) for n in range(1, 6)))
        squares, _ = embed_operator(chain, ident, sched, 5)
        assert all(defect(sq) == 0 for sq in squares)
        assert squares[1].S.domain.dim == 1

    def test_consecutive_restrictions_exact(self):
        X = linf_space(2)
        J = LinMap(QMat.from_rows([[0, 1], [0, 0]]), X, X)
        chain = build_chain(4, dim_cap=2, seed=0)
        sched = EpsSchedule(F(1), tuple(F(1, 2**n) for n in range(1, 6)))
        squares, _ = embed_operator(chain, J, sched, 5)
        for prev, cur in zip(squares, squares[1:]):
            if prev.S.domain.dim == cur.S.domain.dim:
                continue
            pad_x = cur.S.domain.dim - prev.S.domain.dim
            # the new square restricts to the padded old one exactly
            incl = QMat.identity(prev.S.domain.dim).vstack(
                QMat.zeros(pad_x, prev.S.domain.dim)
            )
            lift = pad_map(prev.T.domain, cur.T.domain)
            assert cur.i0.matrix @ incl == lift.matrix @ prev.i0.matrix

    def test_rejects_expansive(self):
        ln = line_space()
        big = LinMap(QMat.from_rows([[F(3, 2)]]), ln, ln)
        chain = build_chain(2, dim_cap=2, seed=0)
        sched = EpsSchedule(F(1), (F(1, 2),))
        with pytest.raises(PreconditionError):
            embed_operator(chain, big, sched, 1)


class TestBackAndForth:
    def test_zero_seed(self):
        A = build_chain(4, dim_cap=3, seed=0)
        B = build_chain(4, dim_cap=3, seed=7)
        seed = make_square(
            A.stages[0].F,
            B.stages[0].F,
            LinMap.zero(A.stages[0].U, B.stages[0].U),
            LinMap.zero(A.stages[0].V, B.stages[0].V),
            F(1, 4),
        )
        tr = back_and_forth(A, B, seed, F(1, 2), 4)
        assert isinstance(tr, BnfTranscript)
        assert len(tr.kSquares) == 5
        assert len(tr.lSquares) == 4
        assert all(defect(sq) == 0 for sq in tr.kSquares)
        assert all(defect(sq) == 0 for sq in tr.lSquares)
        assert sum(tr.etas, F(0)) < 2 * F(1, 2)
        # basis absorption: the matched stages keep growing
        for n, sq in enumerate(tr.kSquares[1:], start=1):
            assert sq.T.domain.dim >= min(n + 1, 3)

    def test_inexact_seed(self):
        A = build_chain(4, dim_cap=3, seed=0)
        B = build_chain(4, dim_cap=3, seed=7)
        a3, b3 = A.stages[3], B.stages[3]
        h = F(7, 8)
        seed = make_square(
            a3.F,
            b3.F,
            LinMap(QMat.from_rows([[h]]), a3.U, b3.U),
            LinMap(QMat.from_rows([[h]]), a3.V, b3.V),
            F(1, 2),
        )
        assert seed.defect == F(7, 16)
        tr = back_and_forth(A, B, seed, F(1, 2), 3)
        # everything after the seed correction is exact
        assert all(defect(sq) == 0 for sq in tr.kSquares[1:])
        assert all(defect(sq) == 0 for sq in tr.lSquares)

    def test_rejects_non_strict_seed(self):
        A = build_chain(4, dim_cap=3, seed=0)
        B = build_chain(4, dim_cap=3, seed=7)
        a3, b3 = A.stages[3], B.stages[3]
        seed = make_square(
            a3.F,
            b3.F,
            LinMap(QMat.identity(1), a3.U, b3.U),
            LinMap(QMat.identity(1), a3.V, b3.V),
            F(1, 2),
        )
        # defect 1/2 equals eps: not strictly below
        with pytest.raises(PreconditionError):
            back_and_forth(A, B, seed, F(1, 2), 2)

    def test_rejects_unseeded_square(self):
        A = build_chain(4, dim_cap=3, seed=0)
        B = build_chain(4, dim_cap=3, seed=7)
        foreign = build_chain(3, dim_cap=2, seed=5)
        seed = identity_square(foreign, 3)
        with pytest.raises(PreconditionError):
            back_and_forth(A, B, seed, F(1, 2), 2)


class TestSquareHelpers:
    def test_make_square_computes_defect(self):
        chain = build_chain(4, dim_cap=3, seed=0)
        st = chain.stages[3]
        half = LinMap(QMat.from_rows([[F(1, 2)]]), st.U, st.V)
        sq = make_square(st.F, half, LinMap.identity(st.U), LinMap.identity(st.V), F(1))
        assert sq.defect == map_distance(half, st.F)

    def test_identity_square(self):
        chain = build_chain(4, dim_cap=3, seed=0)
        sq = identity_square(chain, 3)
        assert sq.defect == 0
        assert sq.S == sq.T == chain.stages[3].F

    def test_stage_index(self):
        chain = build_chain(6, dim_cap=4, seed=0)
        assert _stage_index(chain, lambda st: st.F == chain.stages[5].F, "missing") == 5
        other = build_chain(3, dim_cap=2, seed=9)
        ln = other.stages[-1]
        foreign = LinMap(QMat.from_rows([[F(1, 3)]]), ln.U, ln.V)
        with pytest.raises(PreconditionError, match="^not a chain stage$"):
            _stage_index(chain, lambda st: st.F == foreign, "not a chain stage")
