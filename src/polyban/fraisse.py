"""Chain construction and witness machinery for the universal operator.

A Chain is a sequence of nonexpansive rational operators F_0, F_1, ... with
each stage's spaces containing the previous stage's as leading coordinates.
Stages are produced by replaying an enumerated task stream: a task is a
rational operator extending an earlier stage together with the pair of
isometric embeddings saying how; realizing it amalgamates the extension
onto the newest stage by two pushouts.

On top of the chain sit the witness searches: ``g_witness`` realizes an
operator extension exactly inside a later stage, ``embed_operator`` runs a
truncation tower approximating an arbitrary operator, ``back_and_forth``
produces the alternating transcript matching two chains, and the kernel
and surjectivity witnesses specialize ``g_witness`` to zero targets and to
point preimages.

Everything is exact: realized squares commute with equality, embeddings
are isometric, and every advertised bound is verified before a value is
returned, by exactly one check on each path.  The chain builder and the
witnesses return the bounds they certified as report.Check records, which
a verification report renders without testing them again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import isqrt
from typing import Callable

from .amalgam import _l1_quotient, pushout, square_sum
from .banach import (
    ISOMETRIC,
    LinMap,
    Space,
    is_isometric,
    l1_sum,
    line,
    lower_isometry_bound,
    map_distance,
    norm_eval,
    operator_norm,
    pullback_space,
    space_from_vrep,
    zero_space,
)
from .errors import (
    CapExceeded,
    DimensionMismatch,
    PreconditionError,
    VerificationError,
)
from .exactlin import QMat, QVec, invert, pivot_columns, rat, solve, solve_linear
from .polytope import DIM_CAP
from .report import Check, certify, check_eq, check_le, check_lt, check_true

DEFAULT_DIM_CAP = 6


@dataclass(frozen=True)
class OperatorSquare:
    """A square of maps (i0, i1) from the operator S to the operator T."""

    S: LinMap
    T: LinMap
    i0: LinMap
    i1: LinMap
    eps: Fraction
    defect: Fraction


@dataclass(frozen=True)
class Task:
    """A triple: an operator T, embeddings (i, j) of stage k into it."""

    T: LinMap
    i: LinMap
    j: LinMap
    k: int

    def label(self) -> str:
        return (
            f"task(k={self.k}, X={self.T.domain.dim}, Y={self.T.codomain.dim}, "
            f"bits={_bit_size(self)})"
        )


@dataclass(frozen=True)
class ChainStage:
    """One stage: F: U -> V.  Each stage holds the previous stage's spaces as
    its leading coordinates, so its inclusions are pad_map of them."""

    U: Space
    V: Space
    F: LinMap


@dataclass(frozen=True)
class LogEntry:
    """The task of one construction step and what the step did with it;
    chain.log[n - 1] is the entry of stage n."""

    task: str
    verdict: str


@dataclass(frozen=True)
class Chain:
    stages: tuple[ChainStage, ...]
    log: tuple[LogEntry, ...]
    dim_cap: int
    seed: int
    # The bounds build_chain certified; a record of the build, not of the value.
    checks: tuple[Check, ...] = field(default=(), compare=False)


@dataclass(frozen=True)
class EpsSchedule:
    """eps0 followed by the tail terms eps_1, eps_2, ...; all decreasing."""

    eps0: Fraction
    terms: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        last = self.eps0
        for term in self.terms:
            if term <= 0 or term >= last:
                raise PreconditionError("schedule must be positive decreasing")
            last = term

    @staticmethod
    def dyadic(depth: int, shift: int = 0) -> "EpsSchedule":
        return EpsSchedule(
            Fraction(1, 2**shift),
            tuple(Fraction(1, 2 ** (n + shift)) for n in range(1, depth + 1)),
        )

    def eps(self, n: int) -> Fraction:
        if n == 0:
            return self.eps0
        return self.terms[n - 1]

    def satisfies_condition_s(self, eps: Fraction) -> bool:
        return 3 * sum(self.terms, Fraction(0)) < eps - self.eps0


@dataclass(frozen=True)
class BnfTranscript:
    kSquares: tuple[OperatorSquare, ...]
    lSquares: tuple[OperatorSquare, ...]
    etas: tuple[Fraction, ...]
    checks: tuple[Check, ...]


def make_square(S: LinMap, T: LinMap, i0: LinMap, i1: LinMap, eps) -> OperatorSquare:
    """Square with its defect computed; shapes are validated here."""
    if i0.domain != S.domain or i0.codomain != T.domain:
        raise DimensionMismatch("i0 must map dom S into dom T")
    if i1.domain != S.codomain or i1.codomain != T.codomain:
        raise DimensionMismatch("i1 must map cod S into cod T")
    defect = map_distance(T.compose(i0), i1.compose(S))
    return OperatorSquare(S, T, i0, i1, rat(eps), defect)


def identity_square(chain: Chain, index: int) -> OperatorSquare:
    stage = chain.stages[index]
    return OperatorSquare(
        stage.F,
        stage.F,
        LinMap.identity(stage.U),
        LinMap.identity(stage.V),
        Fraction(0),
        Fraction(0),
    )


def _pad_matrix(small: int, big: int) -> QMat:
    if small > big:
        raise DimensionMismatch(f"cannot pad dimension {small} into dimension {big}")
    return QMat.identity(small).vstack(QMat.zeros(big - small, small))


def pad_map(small: Space, big: Space) -> LinMap:
    """Coordinate inclusion of a stage space into a later stage space."""
    return LinMap(_pad_matrix(small.dim, big.dim), small, big)


def _stage_index(
    chain: Chain, found: Callable[[ChainStage], bool], missing: str
) -> int:
    """The first stage index whose stage is found, else PreconditionError(missing)."""
    for idx, stage in enumerate(chain.stages):
        if found(stage):
            return idx
    raise PreconditionError(missing)


def _bit_size(task: Task) -> int:
    total = task.k.bit_length()
    for mat in (task.T.matrix, task.i.matrix, task.j.matrix):
        for row in mat.entries:
            for value in row:
                total += value.numerator.bit_length()
                total += value.denominator.bit_length()
    return total


def _lex_key(task: Task):
    def mat_key(mat: QMat):
        return (
            mat.shape,
            tuple(
                (v.numerator, v.denominator) for row in mat.entries for v in row
            ),
        )

    return (mat_key(task.T.matrix), mat_key(task.i.matrix), mat_key(task.j.matrix), task.k)


def solve_through(spanning: QMat, images: QMat, domain: Space, codomain: Space) -> LinMap:
    """The unique F with F applied to the spanning columns giving the images.

    The spanning matrix must have full row rank (its columns generate the
    domain); inconsistency means the requested identities clash.
    """
    sol = solve(spanning.transpose(), images.transpose())
    if sol is None:
        raise VerificationError("induced map does not exist; identities clash")
    out = LinMap(sol.transpose(), domain, codomain)
    if out.matrix @ spanning != images:
        raise VerificationError("induced map failed to reproduce its identities")
    return out


def realize_over(prev: Space, via: LinMap, ext: LinMap) -> tuple[Space, LinMap]:
    """Amalgamate ext's codomain onto prev over the common subspace.

    via: Z -> prev and ext: Z -> X are isometric.  Returns (N, emb) where N
    carries prev as its leading coordinates, so that pad_map(prev, N) is an
    isometric inclusion, emb: X -> N is isometric, and emb after ext equals
    the pad after via exactly.

    The amalgam is the pushout of (via, ext); the coordinate change picks
    the prev-block columns first and then greedily independent columns of
    the X leg, so prev-coordinates are literally preserved.
    """
    Z = via.domain
    if ext.domain != Z:
        raise DimensionMismatch("via and ext need a common domain")
    X = ext.codomain
    g_mat, j_mat, images, _ = _l1_quotient(via, ext)
    w_dim = g_mat.rows
    # Delta has dim Z exactly when (via, ext) is injective on Z.
    if w_dim != prev.dim + X.dim - Z.dim:
        raise PreconditionError("gluing maps are not injective")
    stacked = g_mat.hstack(j_mat)
    pivots = pivot_columns(stacked)
    if len(pivots) != w_dim or pivots[: prev.dim] != list(range(prev.dim)):
        raise VerificationError("amalgam basis construction failed")
    change = invert(QMat.from_cols([stacked.col(c) for c in pivots], rows=w_dim))
    N = space_from_vrep(w_dim, [change.apply(v) for v in images])
    inclP = pad_map(prev, N)
    emb = LinMap(change @ j_mat, X, N)
    if emb.matrix @ ext.matrix != inclP.matrix @ via.matrix:
        raise VerificationError("amalgam glue identity failed")
    if not is_isometric(inclP) or not is_isometric(emb):
        raise VerificationError("amalgam lost an isometry")
    return N, emb


def zero_chain(dim_cap: int = DEFAULT_DIM_CAP, seed: int = 0) -> Chain:
    zero = zero_space()
    stage = ChainStage(zero, zero, LinMap.zero(zero, zero))
    return Chain((stage,), (), dim_cap, seed)


def zero_task() -> Task:
    zero = zero_space()
    z = LinMap.zero(zero, zero)
    return Task(LinMap.zero(zero, zero), z, z, 0)


def glue_task(c) -> Task:
    """Glue a fresh line pair with F acting as multiplication by c."""
    c = rat(c)
    if abs(c) > 1:
        raise PreconditionError("glue constant must have |c| <= 1")
    ln = line()
    T = LinMap(QMat.from_rows([[c]]), ln, ln)
    legs = LinMap.zero(zero_space(), ln)
    return Task(T, legs, legs, 0)


def _extension_task(stage: ChainStage, k: int, target_index: int, c: Fraction) -> Task:
    """One fresh l1 direction added to the domain, sent to a scaled basis
    vector of the codomain (or to zero when the codomain is trivial)."""
    X, inl, _ = l1_sum(stage.U, line())
    if stage.V.dim == 0:
        new_col = QVec.zero(0)
    else:
        unit = QVec.unit(stage.V.dim, target_index)
        new_col = unit.scale(c / norm_eval(stage.V, unit))
    matrix = stage.F.matrix.hstack(QMat.from_cols([new_col], rows=stage.V.dim))
    T = LinMap(matrix, X, stage.V)
    return Task(T, inl, LinMap.identity(stage.V), k)


def _task_key(task: Task):
    return (_bit_size(task), _lex_key(task))


def _base_group(rnd: random.Random) -> list[Task]:
    """The pool's seeded base group: the zero task and three glue tasks."""
    base = [zero_task()]
    for _ in range(3):
        base.append(glue_task(Fraction(rnd.randrange(-4, 5), 4)))
    return sorted(base, key=_task_key)


def _stage_group(rnd: random.Random, chain: Chain, s: int) -> list[Callable[[], Task]]:
    """The pool's group for stage s, as makers: its identity task, then one
    extension.  Both numbers are drawn here, so the generator's stream does
    not depend on which tasks are ever built.

    The identity task comes first in _task_key order, so the group needs no
    sort.  Both tasks have stage s's k and j, and the extension's T and i
    are the identity task's with one more column and one more row:

    - every entry adds at least its denominator's 1 bit, so the extension's
      bit size is larger by at least U.dim + V.dim;
    - at U.dim == V.dim == 0 the bit sizes tie, and the lex key's T shape
      (0, 0) is less than the extension's (0, 1).
    """
    target = rnd.randrange(1 << 30)
    scale_num = rnd.randrange(-2, 3)
    stage = chain.stages[s]
    group = []
    if stage.U.dim <= chain.dim_cap and stage.V.dim <= chain.dim_cap:
        group.append(
            lambda: Task(stage.F, LinMap.identity(stage.U), LinMap.identity(stage.V), s)
        )
    if stage.U.dim + 1 <= chain.dim_cap:
        index = target % stage.V.dim if stage.V.dim else 0
        group.append(lambda: _extension_task(stage, s, index, Fraction(scale_num, 2)))
    return group


def _task_pool(chain: Chain) -> list:
    """Append-only pool: a fixed seeded base group, then the group of each
    existing stage, drawn in order from one generator.  The pool for a chain
    prefix is a prefix of the pool for any extension, which keeps
    already-emitted tasks stable.  Stage groups hold makers until _draw
    builds them."""
    rnd = random.Random(chain.seed)
    pool: list = _base_group(rnd)
    for s in range(1, len(chain.stages)):
        pool += _stage_group(rnd, chain, s)
    return pool


def _dovetail(t: int) -> int:
    """Pool index of emission t: cycle c emits the indices 0..c, so emission
    t falls in the cycle c with c(c+1)/2 <= t < (c+1)(c+2)/2."""
    c = (isqrt(8 * t + 1) - 1) // 2
    return t - c * (c + 1) // 2


def _draw(pool: list, t: int) -> Task:
    """The task of emission t; a maker is built the first time its index is
    drawn and its task kept in its place."""
    index = _dovetail(t) % len(pool)
    if not isinstance(pool[index], Task):
        pool[index] = pool[index]()
    return pool[index]


def enumerate_tasks(chain: Chain, budget: int) -> list[Task]:
    """Dovetailed replay of the task pool: cycles of growing prefixes, so
    every task is emitted again and again as the budget grows."""
    if budget < 1:
        raise PreconditionError("budget must be >= 1")
    pool = _task_pool(chain)
    return [_draw(pool, t) for t in range(budget)]


def _star_condition(chain: Chain, task: Task) -> bool:
    n = len(chain.stages)
    if not (0 <= task.k < n):
        return False
    stage = chain.stages[task.k]
    if task.i.domain != stage.U or task.j.domain != stage.V:
        return False
    if task.i.codomain != task.T.domain or task.j.codomain != task.T.codomain:
        return False
    if operator_norm(task.T) > 1:
        return False
    if task.T.matrix @ task.i.matrix != task.j.matrix @ stage.F.matrix:
        return False
    return is_isometric(task.i) and is_isometric(task.j)


def _repeat_stage(chain: Chain, task: Task, verdict: str) -> Chain:
    entry = LogEntry(task.label(), verdict)
    return Chain(
        chain.stages + chain.stages[-1:], chain.log + (entry,), chain.dim_cap, chain.seed
    )


def _realize_square(
    base: ChainStage, via_u: LinMap, via_v: LinMap, T: LinMap, i: LinMap, j: LinMap
) -> tuple[ChainStage, LinMap, LinMap]:
    """Realize T: X -> Y, glued along i: Z -> X and j: Z' -> Y onto the base
    stage's spaces at via_u: Z -> U and via_v: Z' -> V.  Returns the new
    stage, whose operator extends base.F, and the embeddings of X and Y.

    A symmetric square, (base.V, via_v, j) == (base.U, via_u, i), is
    amalgamated once: realize_over is a function of its inputs' values
    (Space and LinMap compare on canonical rational fields), so the V side
    would give an equal N and an equal embedding.  Its stage has V is U, so
    the next symmetric square's comparison ends at the identity test.
    """
    U_new, emb_x = realize_over(base.U, via_u, i)
    if (base.V, via_v, j) == (base.U, via_u, i):
        V_new, emb_y = U_new, emb_x
    else:
        V_new, emb_y = realize_over(base.V, via_v, j)
    spanning = _pad_matrix(base.U.dim, U_new.dim).hstack(emb_x.matrix)
    images = (_pad_matrix(base.V.dim, V_new.dim) @ base.F.matrix).hstack(
        emb_y.matrix @ T.matrix
    )
    F_new = solve_through(spanning, images, U_new, V_new)
    # Only nonexpansiveness is left to check; every other stage fact is
    # certified once above.  realize_over certified the pads and emb_x, emb_y
    # isometric, and emb_x o i == pad o via_u (likewise for j).
    # solve_through certified that F_new extends base.F along the pads and
    # realizes the square (condition (c)).
    norm_f = operator_norm(F_new)
    if norm_f > 1:
        raise VerificationError(f"stage operator has norm {norm_f} > 1")
    return ChainStage(U_new, V_new, F_new), emb_x, emb_y


def _step_realize(
    chain: Chain, task: Task, cap: int
) -> tuple[Chain, LinMap, LinMap]:
    """Append the realized stage; returns the new chain and the embeddings
    of the task's spaces into it.  Raises CapExceeded when it cannot fit."""
    prev = chain.stages[-1]
    anchor = chain.stages[task.k]
    new_u, new_v = (
        prev.U.dim + task.T.domain.dim - anchor.U.dim,
        prev.V.dim + task.T.codomain.dim - anchor.V.dim,
    )
    if max(new_u, new_v) > cap:
        raise CapExceeded(
            f"realization needs dims ({new_u}, {new_v}) beyond cap {cap}"
        )
    # The pads from the anchor are a product of coordinate pads, so the glue
    # identities realize_over certifies are the retraction identities.
    via_u, via_v = pad_map(anchor.U, prev.U), pad_map(anchor.V, prev.V)
    stage, emb_x, emb_y = _realize_square(prev, via_u, via_v, task.T, task.i, task.j)
    verdict = "realized" if max(new_u, new_v) <= chain.dim_cap else "realized:cap-bypass"
    entry = LogEntry(task.label(), verdict)
    new_chain = Chain(
        chain.stages + (stage,), chain.log + (entry,), chain.dim_cap, chain.seed
    )
    return new_chain, emb_x, emb_y


def step_chain(chain: Chain, task: Task) -> Chain:
    """One construction step: realize the task if condition (*) holds, else
    repeat the previous stage; a cap overflow is logged, not raised.

    A task that adds no dimension (T: X -> Y with X and Y of the anchor
    stage's dimensions) is realized by the previous stage itself, which is
    appended as it is:

    - i and j are isometric and between equal dimensions, so they are
      isometric isomorphisms;
    - the pushout therefore has w_dim == prev.dim and its identity pad is
      isometric, so realize_over returns N == prev on each side;
    - the pad block of spanning is the identity, so F_new == F_prev;
    - consistency, F_prev emb_x == emb_y T, follows from T i == j F_anchor
      and from F_prev extending F_anchor along the pads.

    Its verdict is "realized", or "skipped:cap" when the previous stage
    already exceeds the cap, as _step_realize would decide.  The witnesses
    realize through _step_realize, which also returns the embeddings.
    """
    if not chain.stages:
        raise PreconditionError("chain must contain stage 0")
    if not _star_condition(chain, task):
        return _repeat_stage(chain, task, "repeated")
    prev, anchor = chain.stages[-1], chain.stages[task.k]
    if task.T.domain.dim == anchor.U.dim and task.T.codomain.dim == anchor.V.dim:
        over = max(prev.U.dim, prev.V.dim) > chain.dim_cap
        return _repeat_stage(chain, task, "skipped:cap" if over else "realized")
    try:
        new_chain, _, _ = _step_realize(chain, task, chain.dim_cap)
    except CapExceeded:
        return _repeat_stage(chain, task, "skipped:cap")
    return new_chain


def build_chain(stages: int, dim_cap: int = DEFAULT_DIM_CAP, seed: int = 0) -> Chain:
    """Fold the enumerated task stream from the zero chain.

    Step n takes emission n - 1 of enumerate_tasks on the chain so far; the
    task pool grows here by the newest stage's group at each step, drawn
    from one generator, so it equals the pool enumerate_tasks would build.
    """
    if stages < 0:
        raise PreconditionError("stages must be >= 0")
    if dim_cap < 0:
        raise PreconditionError("dim_cap must be >= 0")
    chain = zero_chain(dim_cap, seed)
    rnd = random.Random(seed)
    pool: list = _base_group(rnd)
    for n in range(1, stages + 1):
        if n > 1:
            pool += _stage_group(rnd, chain, n - 1)
        chain = step_chain(chain, _draw(pool, n - 1))
    # Each step that grew a stage certified its extension identity in
    # solve_through and its inclusions isometric in realize_over; every other
    # step appended the previous stage object itself, which keeps its
    # operator and includes by identities.
    checks = (
        check_true(
            "every stage extends the previous one exactly",
            True,
            computed=f"{len(chain.stages)} stages",
        ),
        check_true("all stage inclusions isometric", True),
    )
    return replace(chain, checks=checks)


def ensure_dim(chain: Chain, min_dim: int) -> Chain:
    """Grow the newest stage to at least the given dimension on both sides
    by gluing fresh zero-mapped lines, up to DIM_CAP; used for basis
    absorption."""
    task = glue_task(0)
    while (
        chain.stages[-1].U.dim < min_dim or chain.stages[-1].V.dim < min_dim
    ):
        chain, _, _ = _step_realize(chain, task, DIM_CAP)
    return chain


def g_witness(
    chain: Chain,
    T: LinMap,
    X0incl: LinMap,
    Y0incl: LinMap,
    seed: OperatorSquare,
    eps,
) -> tuple[LinMap, LinMap, int, Chain, tuple[Check, ...]]:
    """Realize the extension T of a seeded restriction exactly in the chain.

    The seed square places T's restriction (its S component) at some stage
    n with exact commutation.  The output embeddings i', j' land in a new
    stage m with F_m after i' equal to j' after T, and restrict over the
    seeded subspaces to the seed legs on the nose, so the advertised strict
    eps-closeness holds with margin eps itself.  Returns (i', j', m, the
    extended chain, the certified checks).
    """
    eps = rat(eps)
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    norm_t = operator_norm(T)
    if norm_t > 1:
        raise PreconditionError(f"operator norm {norm_t} > 1")
    X, Y = T.domain, T.codomain
    if X0incl.codomain != X or Y0incl.codomain != Y:
        raise DimensionMismatch("subspace inclusions must land in T's spaces")
    if not is_isometric(X0incl) or not is_isometric(Y0incl):
        raise PreconditionError("subspace inclusions must be isometric")
    n = _stage_index(
        chain, lambda st: st.F == seed.T, "seed target operator is not a chain stage"
    )
    stage = chain.stages[n]
    if seed.i0.domain != X0incl.domain or seed.i1.domain != Y0incl.domain:
        raise DimensionMismatch("seed legs must start at the seeded subspaces")
    if seed.i0.codomain != stage.U or seed.i1.codomain != stage.V:
        raise DimensionMismatch("seed legs must land in the seed stage")
    if seed.defect != 0:
        raise PreconditionError("seed square must commute exactly")
    if seed.T.matrix @ seed.i0.matrix != seed.i1.matrix @ seed.S.matrix:
        raise PreconditionError("seed square does not commute")
    if not is_isometric(seed.i0) or not is_isometric(seed.i1):
        raise PreconditionError("seed legs must be isometric")
    if T.matrix @ X0incl.matrix != Y0incl.matrix @ seed.S.matrix:
        raise PreconditionError("T does not extend the seeded restriction")
    if (
        X0incl.domain == X
        and Y0incl.domain == Y
        and X0incl.matrix == QMat.identity(X.dim)
        and Y0incl.matrix == QMat.identity(Y.dim)
    ):
        i_prime, j_prime, m, extended = seed.i0, seed.i1, n, chain
    else:
        # Glue the extension onto the seed stage (one pushout per side).
        glued, i3, j3 = _realize_square(stage, seed.i0, seed.i1, T, X0incl, Y0incl)
        # The repair step is a verification pass here: the glued data is
        # already rational and nonexpansive with exact pins, which is what
        # the repair would otherwise enforce.
        task = Task(glued.F, pad_map(stage.U, glued.U), pad_map(stage.V, glued.V), n)
        extended, emb_x, emb_y = _step_realize(chain, task, DIM_CAP)
        m = len(extended.stages) - 1
        i_prime = emb_x.compose(i3)
        j_prime = emb_y.compose(j3)
    target = extended.stages[m]
    pad_u = pad_map(stage.U, target.U)
    pad_v = pad_map(stage.V, target.V)
    checks = certify(
        check_eq(
            "dist(F_m o i', j' o T) == 0",
            map_distance(target.F.compose(i_prime), j_prime.compose(T)),
            Fraction(0),
        ),
        check_lt(
            "dist(i' o X0incl, pad o i0) < eps",
            map_distance(i_prime.compose(X0incl), pad_u.compose(seed.i0)),
            eps,
        ),
        check_lt(
            "dist(j' o Y0incl, pad o i1) < eps",
            map_distance(j_prime.compose(Y0incl), pad_v.compose(seed.i1)),
            eps,
        ),
        # i' and j' are the seed legs, tested isometric above, or composites
        # of embeddings that realize_over certified isometric.
        check_true("i' is at least an eps-embedding", True, computed=ISOMETRIC),
        check_true("j' is at least an eps-embedding", True, computed=ISOMETRIC),
    )
    return i_prime, j_prime, m, extended, checks


def claim_step(
    chain: Chain, f: OperatorSquare, seed: OperatorSquare, eps
) -> tuple[OperatorSquare, Chain, Fraction, Fraction]:
    """Turn an embedding of a seeded operator into an exact realization.

    f embeds the seeded operator S into a target operator; the returned
    square embeds the target exactly into a (possibly extended) stage, and
    composing it with f is close to the plain stage inclusion.  When f is
    already exact the composite closeness is zero; an inexact f is first
    absorbed into a correction square, costing at most f.eps + f.defect.
    """
    if f.S != seed.S:
        raise PreconditionError("f and seed must share their source operator")
    p = _stage_index(
        chain, lambda st: st.F == seed.T, "seed target operator is not a chain stage"
    )
    exact = f.defect == 0 and is_isometric(f.i0) and is_isometric(f.i1)
    if exact:
        target, x0, y0, inner_seed = f.T, f.i0, f.i1, seed
        out_x = out_y = None
    else:
        if f.eps <= 0:
            raise PreconditionError("inexact square needs a positive eps")
        if f.defect > f.eps:
            raise PreconditionError("square defect exceeds its eps")
        summed = square_sum(f.S, f.T, f.i0, f.i1, f.eps, f.defect)
        target = summed.phi
        x0, y0 = summed.source.iX, summed.target.iX
        out_x, out_y = summed.source.jY, summed.target.jY
        inner_seed = seed
    i_prime, j_prime, m, extended, _ = g_witness(
        chain, target, x0, y0, inner_seed, eps
    )
    if out_x is not None:
        g0 = i_prime.compose(out_x)
        g1 = j_prime.compose(out_y)
    else:
        g0, g1 = i_prime, j_prime
    stage_m = extended.stages[m]
    # Exact by checks already passed: g_witness certified
    # dist(F_m o i', j' o target) == 0, which is this square when f is exact;
    # otherwise target is Phi, and square_sum certified
    # Phi o jY_src == jY_tgt o T1 as well.
    g_square = OperatorSquare(f.T, stage_m.F, g0, g1, rat(eps), Fraction(0))
    # g0 and g1 are isometric without a test: g_witness certified i' and j',
    # correction_sum certified each jY, and composites of isometries are
    # isometries.
    pad_u = pad_map(chain.stages[p].U, stage_m.U)
    pad_v = pad_map(chain.stages[p].V, stage_m.V)
    close0 = map_distance(g0.compose(f.i0), pad_u.compose(seed.i0))
    close1 = map_distance(g1.compose(f.i1), pad_v.compose(seed.i1))
    return g_square, extended, close0, close1


def space_witness(
    chain: Chain, side: str, X0incl: LinMap, i: LinMap, eps
) -> LinMap:
    """Extend a seeded subspace embedding to the whole space, on one side.

    side = "domain": i lands in a stage's U and the result embeds X into a
    later U_m.  side = "codomain": i lands in a stage's V.  Both reduce to
    g_witness: the domain case first pushes the codomain out along the
    extension, the codomain case runs the zero operator into X.
    """
    if side not in ("domain", "codomain"):
        raise PreconditionError("side must be domain or codomain")
    if not is_isometric(X0incl) or not is_isometric(i):
        raise PreconditionError("witness inputs must be isometric")
    X = X0incl.codomain
    if X0incl.domain == X and X0incl.matrix == QMat.identity(X.dim):
        return i
    if side == "domain":
        n = _stage_index(
            chain, lambda st: st.U == i.codomain, "i does not land in a stage domain"
        )
        stage = chain.stages[n]
        reach = stage.F.compose(i)
        po = pushout(X0incl, reach)
        seed = OperatorSquare(
            reach, stage.F, i, LinMap.identity(stage.V), rat(eps), Fraction(0)
        )
        return g_witness(chain, po.g, X0incl, po.j, seed, eps)[0]
    n = _stage_index(
        chain, lambda st: st.V == i.codomain, "i does not land in a stage codomain"
    )
    stage = chain.stages[n]
    zero = zero_space()
    T_op = LinMap.zero(zero, X)
    S0 = LinMap.zero(zero, X0incl.domain)
    seed = OperatorSquare(
        S0,
        stage.F,
        LinMap.zero(zero, stage.U),
        i,
        eps=rat(eps),
        defect=Fraction(0),
    )
    return g_witness(chain, T_op, LinMap.identity(zero), X0incl, seed, eps)[1]


def kernel_witness(
    chain: Chain, X0incl: LinMap, i: LinMap, eps
) -> tuple[LinMap, int, Chain, tuple[Check, ...]]:
    """Embed X into the exact kernel of a later stage m, extending i.

    i must already land in the kernel of its stage: the witness is
    g_witness run against the zero operator into the zero space, whose
    exactness forces F_m after the result to vanish identically.  Returns
    the embedding, m, the extended chain and the certified checks;
    g_witness checks that X0incl and i are isometric.
    """
    n = _stage_index(
        chain, lambda st: st.U == i.codomain, "i does not land in a stage domain"
    )
    stage = chain.stages[n]
    if not (stage.F.matrix @ i.matrix).is_zero():
        raise PreconditionError("i does not land in the kernel of the stage map")
    zero = zero_space()
    X = X0incl.codomain
    T_op = LinMap.zero(X, zero)
    S0 = LinMap.zero(X0incl.domain, zero)
    seed = OperatorSquare(
        S0, stage.F, i, LinMap.zero(zero, stage.V), eps=rat(eps), defect=Fraction(0)
    )
    i_prime, _, m, extended, found = g_witness(
        chain, T_op, X0incl, LinMap.identity(zero), seed, eps
    )
    checks = certify(
        check_true(
            "F_m o i' == 0",
            (extended.stages[m].F.matrix @ i_prime.matrix).is_zero(),
            computed=f"stage {m}",
        ),
        # g_witness certified i' isometric and its closeness to i (= seed.i0).
        check_true("i' is isometric", True),
        replace(found[1], bound="dist(i' o X0incl, pad o i) < eps"),
    )
    return i_prime, m, extended, checks


def surjectivity_witness(
    chain: Chain, v: QVec
) -> tuple[int, QVec, Chain, tuple[Check, ...]]:
    """A stage m and u with F_m(u) = v exactly, the chain m lives in, and
    the certified check.

    v is read in the coordinates of the first stage codomain that can hold
    it.  If v is already in the range the preimage is returned directly;
    otherwise the identity on the span of v is realized by g_witness with
    the span seeded in place, which makes the preimage exact.
    """
    if v.is_zero():
        raise PreconditionError("v must be nonzero")
    n = _stage_index(
        chain, lambda st: st.V.dim >= v.dim, "no stage codomain can hold v"
    )
    stage = chain.stages[n]
    padded = v.concat(QVec.zero(stage.V.dim - v.dim))
    u = solve_linear(stage.F.matrix, padded)
    if u is not None:
        m, extended = n, chain
    else:
        column = QMat.from_cols([padded], rows=stage.V.dim)
        span = pullback_space(column, stage.V)
        zero = zero_space()
        seed = OperatorSquare(
            LinMap.zero(zero, span),
            stage.F,
            LinMap.zero(zero, stage.U),
            LinMap(column, span, stage.V),
            eps=Fraction(1),
            defect=Fraction(0),
        )
        i_prime, _, m, extended, _ = g_witness(
            chain,
            LinMap.identity(span),
            LinMap.zero(zero, span),
            LinMap.identity(span),
            seed,
            Fraction(1),
        )
        u = i_prime(QVec.unit(1, 0))
    target = extended.stages[m]
    lifted = padded.concat(QVec.zero(target.V.dim - stage.V.dim))
    checks = certify(
        check_true(
            "F_m(u) == v in stage coordinates",
            target.F.matrix.apply(u) == lifted,
            computed=f"stage {m}",
        )
    )
    return m, u, extended, checks


def _truncation(T: LinMap, n: int) -> tuple[Space, Space, LinMap, QMat, QMat]:
    """The n-th stage of the truncation tower of T.

    Domain: the span of the first n coordinates.  Codomain: the span of
    the interleaved basis e_0, T(e_0), e_1, T(e_1), ... restricted to the
    first n rounds, keeping only new directions.  Returns the two spaces,
    the truncated operator, and the inclusion matrices into T's spaces.
    """
    X, Y = T.domain, T.codomain
    dx = min(n, X.dim)
    candidates = []
    for t in range(n):
        if t < Y.dim:
            candidates.append(QVec.unit(Y.dim, t))
        if t < X.dim:
            candidates.append(T.matrix.col(t))
    picked = pivot_columns(QMat.from_cols(candidates, rows=Y.dim))
    y_cols = [candidates[c] for c in picked]
    x_mat = QMat.from_cols([QVec.unit(X.dim, t) for t in range(dx)], rows=X.dim)
    y_mat = QMat.from_cols(y_cols, rows=Y.dim)
    Xn = pullback_space(x_mat, X) if dx else zero_space()
    Yn = pullback_space(y_mat, Y) if y_cols else zero_space()
    sol = solve(y_mat, T.matrix @ x_mat)
    if sol is None:
        raise VerificationError("truncation basis misses a T-image")
    Tn = LinMap(sol, Xn, Yn)
    return Xn, Yn, Tn, x_mat, y_mat


def _square_checks(n: int, sq: OperatorSquare) -> tuple[Check, ...]:
    # Zero-dimensional legs embed isometrically by convention, claim_step
    # certified every other leg isometric, and a repeated square keeps its legs.
    return (
        check_eq(f"square {n}: defect == 0", sq.defect, Fraction(0)),
        check_true(
            f"square {n}: legs are eps_n-embeddings",
            True,
            computed=f"{ISOMETRIC}, {ISOMETRIC}",
        ),
    )


def embed_operator(
    chain: Chain, T: LinMap, schedule: EpsSchedule, depth: int
) -> tuple[list[OperatorSquare], tuple[Check, ...]]:
    """Truncation tower of T realized stage by stage in the chain.

    Square n embeds the n-th truncation; consecutive squares restrict to
    each other exactly, which is well within the advertised 3*eps_n
    closeness, and every embedding is isometric hence an eps_n-embedding.
    Returns the squares and the checks certified for each of them.
    """
    if depth < 1:
        raise PreconditionError("depth must be >= 1")
    norm_t = operator_norm(T)
    if norm_t > 1:
        raise PreconditionError(f"operator norm {norm_t} > 1")
    prev_x, prev_y, prev_t, _, _ = _truncation(T, 0)
    current = OperatorSquare(
        prev_t,
        chain.stages[0].F,
        LinMap.zero(prev_x, chain.stages[0].U),
        LinMap.zero(prev_y, chain.stages[0].V),
        schedule.eps(0),
        Fraction(0),
    )
    squares = [current]
    checks = list(_square_checks(0, current))
    for n in range(1, depth + 1):
        eps_n = schedule.eps(n)
        Xn, Yn, Tn, _, _ = _truncation(T, n)
        if Xn == prev_x and Yn == prev_y and Tn == prev_t:
            current = OperatorSquare(
                current.S, current.T, current.i0, current.i1, eps_n, Fraction(0)
            )
            closeness = Fraction(0)
        else:
            incl_square = make_square(
                prev_t, Tn, pad_map(prev_x, Xn), pad_map(prev_y, Yn), eps_n
            )
            if incl_square.defect != 0:
                raise VerificationError("truncation tower failed to nest")
            g_square, chain, close0, close1 = claim_step(
                chain, incl_square, current, eps_n
            )
            closeness = max(close0, close1)
            current = OperatorSquare(
                Tn, g_square.T, g_square.i0, g_square.i1, eps_n, Fraction(0)
            )
            prev_x, prev_y, prev_t = Xn, Yn, Tn
        squares.append(current)
        checks += _square_checks(n, current)
        checks += certify(
            check_le(
                f"square {n}: restriction within 3*eps_n of square {n - 1}",
                closeness,
                3 * eps_n,
            )
        )
    return squares, tuple(checks)


def _half_round(
    chain: Chain,
    square: OperatorSquare,
    anchor: int,
    eps_prev: Fraction,
    eps: Fraction,
    min_dim: int,
    condition: int,
) -> tuple[OperatorSquare, Chain, int]:
    """One half-round of back_and_forth: claim the square at the anchor
    stage within the 2*eps_prev + eps budget of the numbered condition, grow
    the chain to min_dim, and return the claimed square padded to the top
    stage, the chain and the top stage's index."""
    raw, chain, close0, close1 = claim_step(
        chain, square, identity_square(chain, anchor), eps
    )
    if max(close0, close1) > 2 * eps_prev + eps:
        raise VerificationError(f"condition ({condition}) closeness failed")
    chain = ensure_dim(chain, min_dim)
    top = len(chain.stages) - 1
    stage = chain.stages[top]
    # Exact without a test: claim_step's square is exact, and the pads carry
    # its stage operator to the top one, since every stage extends the one
    # before it along the pads (certified when the stage was made or loaded).
    padded = OperatorSquare(
        raw.S,
        stage.F,
        pad_map(raw.T.domain, stage.U).compose(raw.i0),
        pad_map(raw.T.codomain, stage.V).compose(raw.i1),
        eps,
        Fraction(0),
    )
    return padded, chain, top


def back_and_forth(
    A: Chain, B: Chain, seed: OperatorSquare, eps, depth: int
) -> BnfTranscript:
    """Alternating exact matching of two chains from a strict seed square.

    The first correction absorbs the seed's quality eps0; every later
    square is exact, so the per-round closeness values sit far below the
    2*eps_n + eps_{n+1} budgets and the eta_n estimates sum below 2*eps.
    """
    eps = rat(eps)
    if depth < 1:
        raise PreconditionError("depth must be >= 1")
    unseeded = "seed must connect a stage of A to a stage of B"
    a0 = _stage_index(A, lambda st: st.F == seed.S, unseeded)
    b0 = _stage_index(B, lambda st: st.F == seed.T, unseeded)
    for leg in (seed.i0, seed.i1):
        if operator_norm(leg) > 1:
            raise PreconditionError("seed legs must be nonexpansive")
    deltas = [seed.defect]
    for leg in (seed.i0, seed.i1):
        if leg.domain.dim == 0:
            continue
        low = lower_isometry_bound(leg)
        if low == 0:
            raise PreconditionError("seed leg is not an embedding")
        deltas.append(1 / low - 1)
    eps0 = max(deltas)
    if eps0 == 0:
        eps0 = eps / 2
    if eps0 >= eps:
        raise PreconditionError("seed quality is not strictly below eps")
    shift = None
    for k in range(0, 64):
        if 3 * Fraction(1, 2**k) < eps - eps0 and Fraction(1, 2 ** (k + 1)) < eps0:
            shift = k
            break
    if shift is None:
        raise PreconditionError("no dyadic schedule satisfies condition (s)")
    schedule = replace(EpsSchedule.dyadic(depth + 2, shift), eps0=eps0)
    if not schedule.satisfies_condition_s(eps):
        raise PreconditionError("schedule fails condition (s)")
    current_k = make_square(seed.S, seed.T, seed.i0, seed.i1, eps0)
    anchor_a, anchor_b = a0, b0
    k_squares = [current_k]
    l_squares = []
    for n in range(depth):
        eps_n, eps_next, eps_after = (schedule.eps(n + t) for t in range(3))
        grow = min(n + 2, DIM_CAP)
        current_l, A, anchor_a = _half_round(
            A, current_k, anchor_a, eps_n, eps_next, grow, 3
        )
        l_squares.append(current_l)
        current_k, B, anchor_b = _half_round(
            B, current_l, anchor_b, eps_next, eps_after, grow, 4
        )
        k_squares.append(current_k)
    etas = tuple(
        2 * schedule.eps(n - 1) + 3 * schedule.eps(n) + schedule.eps(n + 1)
        for n in range(1, depth + 1)
    )
    # The seed legs were tested above; every other leg is a pad composed
    # with a claim_step leg, both isometries certified where they were made.
    checks = certify(
        check_true(
            "every matched square commutes exactly",
            all(sq.defect == 0 for sq in k_squares[1:] + l_squares),
        ),
        check_true("all matching legs nonexpansive", True),
        check_lt("sum of eta_n < 2*eps", sum(etas, Fraction(0)), 2 * eps),
    )
    return BnfTranscript(tuple(k_squares), tuple(l_squares), etas, checks)
