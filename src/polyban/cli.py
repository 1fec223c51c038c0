"""Batch front-end over the exchange formats.

One verb per invocation; each verb reads JSON inputs, drives one
construction pipeline, and emits a single canonical JSON report listing
every exact bound checked as (claimed, computed, verdict).  Exit status
0 means all verdicts pass, 1 means some check failed (a report verdict,
or an internal exact check raising VerificationError), 2 means the inputs
were rejected.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Optional

from .amalgam import correction_sum, pushout, square_sum
from .banach import (
    LinMap,
    Space,
    classify_embedding,
    dual_norm_eval,
    is_isometric,
    map_distance,
    norm_eval,
    operator_norm,
)
from .errors import ParseError, PolybanError, VerificationError
from .exactlin import QVec, rat, rat_str
from .fraisse import (
    Chain,
    EpsSchedule,
    OperatorSquare,
    build_chain,
    back_and_forth,
    embed_operator,
    g_witness,
    kernel_witness,
    make_square,
    pad_map,
    surjectivity_witness,
)
from .io import (
    ball_from_json,
    chain_from_json,
    chain_to_json,
    dumps_canonical,
    linmap_from_json,
    linmap_to_json,
    load_json,
    mat_from_json,
    mat_to_json,
    require_field,
    space_from_json,
    space_to_json,
    spaces_table_from_json,
    vec_from_json,
    vec_to_json,
)
from .polytope import DIM_CAP, complete_representations
from .rationalize import repair_operator
from .report import check_eq, check_le, check_lt, check_true, report_doc

OK_EMBEDDING = ("isometric", "strict-eps", "eps")


def _load_map(doc, key: Optional[str] = None) -> LinMap:
    table = spaces_table_from_json(doc) if isinstance(doc, dict) else {}
    obj = require_field(doc, key) if key is not None else doc
    return linmap_from_json(obj, table)


def _load_chain(path: str) -> Chain:
    doc = load_json(path)
    obj = doc.get("chain", doc) if isinstance(doc, dict) else doc
    return chain_from_json(obj)


def _square_record(sq: OperatorSquare) -> dict:
    return {
        "eps": rat_str(sq.eps),
        "defect": rat_str(sq.defect),
        "i0": mat_to_json(sq.i0.matrix),
        "i1": mat_to_json(sq.i1.matrix),
        "source_dims": [sq.S.domain.dim, sq.S.codomain.dim],
        "target_dims": [sq.T.domain.dim, sq.T.codomain.dim],
    }


def cmd_space_check(args) -> dict:
    doc = load_json(args.input)
    if isinstance(doc, dict) and "ball" in doc:
        space = space_from_json(doc)
    else:
        ball = complete_representations(ball_from_json(doc))
        space = Space(ball.dim, ball)
    checks = [
        check_true(
            "ball completes to a dual vertex/facet pair",
            True,
            computed=f"{len(space.ball.vrep)} vertex classes, "
            f"{len(space.ball.hrep)} facet classes",
        ),
        check_true(
            "norm(v) == 1 for every vertex class",
            all(norm_eval(space, v) == 1 for v in space.ball.vrep),
        ),
        check_true(
            "dual_norm(phi) == 1 for every facet class",
            all(dual_norm_eval(space, phi) == 1 for phi in space.ball.hrep),
        ),
    ]
    return report_doc(checks, space=space_to_json(space))


def cmd_op_norm(args) -> dict:
    doc = load_json(args.input)
    T = _load_map(doc, "map" if isinstance(doc, dict) and "map" in doc else None)
    norm = operator_norm(T)
    witness = None
    if T.domain.dim > 0:
        witness = max(T.domain.ball.vrep, key=lambda v: (norm_eval(T.codomain, T(v)), v.entries))
        attained = norm_eval(T.codomain, T(witness))
    else:
        attained = Fraction(0)
    checks = [check_eq("norm(T) attained at a domain vertex", attained, norm)]
    return report_doc(
        checks,
        norm=rat_str(norm),
        witness=None if witness is None else vec_to_json(witness),
    )


def cmd_amalgam_pushout(args) -> dict:
    doc = load_json(args.input)
    i = _load_map(doc, "i")
    f = _load_map(doc, "f")
    res = pushout(i, f, args.dim_cap)
    checks = [
        check_eq(
            "dist(g o i, j o f) == 0",
            map_distance(res.g.compose(i), res.j.compose(f)),
            Fraction(0),
        ),
        check_le("norm(g) <= 1", operator_norm(res.g), Fraction(1)),
        check_le("norm(j) <= 1", operator_norm(res.j), Fraction(1)),
    ]
    if is_isometric(i):
        checks.append(check_true("j isometric since i is", is_isometric(res.j)))
    return report_doc(
        checks,
        W=space_to_json(res.W),
        g=linmap_to_json(res.g),
        j=linmap_to_json(res.j),
    )


def cmd_amalgam_correct(args) -> dict:
    doc = load_json(args.input)
    f = _load_map(doc, "f" if isinstance(doc, dict) and "f" in doc else None)
    c = correction_sum(f, args.eps, args.dim_cap)
    checks = [
        check_true("iX is isometric", is_isometric(c.iX)),
        check_true("jY is isometric", is_isometric(c.jY)),
        check_le(
            "dist(iX, jY o f) <= eps",
            map_distance(c.iX, c.jY.compose(f)),
            c.eps,
        ),
    ]
    return report_doc(
        checks,
        Z0=space_to_json(c.Z0),
        iX=linmap_to_json(c.iX),
        jY=linmap_to_json(c.jY),
        eps=rat_str(c.eps),
    )


def cmd_square_sum(args) -> dict:
    doc = load_json(args.input)
    T0 = _load_map(doc, "T0")
    T1 = _load_map(doc, "T1")
    f0 = _load_map(doc, "f0")
    f1 = _load_map(doc, "f1")
    res = square_sum(T0, T1, f0, f1, args.eps, args.delta, args.dim_cap)
    phi, src, tgt = res.phi, res.source, res.target
    checks = [
        check_le("norm(Phi) <= 1", operator_norm(phi), Fraction(1)),
        check_eq(
            "dist(Phi o iX_src, iX_tgt o T0) == 0",
            map_distance(phi.compose(src.iX), tgt.iX.compose(T0)),
            Fraction(0),
        ),
        check_eq(
            "dist(Phi o jY_src, jY_tgt o T1) == 0",
            map_distance(phi.compose(src.jY), tgt.jY.compose(T1)),
            Fraction(0),
        ),
    ]
    return report_doc(checks, Phi=linmap_to_json(phi))


def cmd_repair(args) -> dict:
    doc = load_json(args.input)
    T = _load_map(doc, "T")
    i0 = _load_map(doc, "i0")
    j0 = _load_map(doc, "j0")
    rx, ry, t_prime = repair_operator(T, i0, j0, args.delta, args.dim_cap)
    factor = (1 + args.delta) ** 2

    def equivalence(a, b) -> Fraction:
        worst = Fraction(0)
        for v in a.ball.vrep:
            worst = max(worst, norm_eval(b, v))
        for w in b.ball.vrep:
            worst = max(worst, norm_eval(a, w))
        return worst

    checks = [
        check_le("norm(T') <= 1", operator_norm(t_prime), Fraction(1)),
        check_true("domain pin stays isometric", is_isometric(rx.pinned)),
        check_true("codomain pin stays isometric", is_isometric(ry.pinned)),
        check_le(
            "domain norms within (1+delta)^2 both ways",
            equivalence(rx.original, rx.repaired),
            factor,
        ),
        check_le(
            "codomain norms within (1+delta)^2 both ways",
            equivalence(ry.original, ry.repaired),
            factor,
        ),
    ]
    return report_doc(
        checks,
        T_prime=linmap_to_json(t_prime),
        domain=space_to_json(rx.repaired),
        codomain=space_to_json(ry.repaired),
    )


def cmd_chain_build(args) -> dict:
    chain = build_chain(args.stages, args.dim_cap, args.seed)
    pairs = zip(chain.stages, chain.stages[1:])
    commute = all(
        st.F.matrix @ st.inclU.matrix == st.inclV.matrix @ prev.F.matrix
        for prev, st in pairs
    )
    isometric = all(
        is_isometric(st.inclU) and is_isometric(st.inclV)
        for st in chain.stages[1:]
    )
    worst_norm = max(
        (operator_norm(st.F) for st in chain.stages), default=Fraction(0)
    )
    realized = sum(
        1 for entry in chain.log if entry.verdict.startswith("realized")
    )
    checks = [
        check_le("max stage operator norm <= 1", worst_norm, Fraction(1)),
        check_true(
            "every stage extends the previous one exactly",
            commute,
            computed=f"{len(chain.stages)} stages",
        ),
        check_true("all stage inclusions isometric", isometric),
        check_true(
            "log covers every construction step",
            len(chain.log) == args.stages,
            computed=f"{realized} realized",
        ),
    ]
    return report_doc(checks, chain=chain_to_json(chain), realized=realized)


def cmd_g_witness(args) -> dict:
    chain = _load_chain(args.chain)
    doc = load_json(args.input)
    T = _load_map(doc, "T")
    x0incl = _load_map(doc, "X0incl")
    y0incl = _load_map(doc, "Y0incl")
    seed_doc = require_field(doc, "seed")
    n = require_field(seed_doc, "stage")
    if not isinstance(n, int) or isinstance(n, bool) or not 0 <= n < len(chain.stages):
        raise ParseError(f"seed stage {n!r} is not a stage index")
    stage = chain.stages[n]
    X0, Y0 = x0incl.domain, y0incl.domain
    S, i0, i1 = (require_field(seed_doc, name) for name in ("S", "i0", "i1"))
    S = LinMap(mat_from_json(S, Y0.dim, X0.dim), X0, Y0)
    i0 = LinMap(mat_from_json(i0, stage.U.dim, X0.dim), X0, stage.U)
    i1 = LinMap(mat_from_json(i1, stage.V.dim, Y0.dim), Y0, stage.V)
    seed = make_square(S, stage.F, i0, i1, args.eps)
    i_prime, j_prime, m, extended = g_witness(chain, T, x0incl, y0incl, seed, args.eps)
    target = extended.stages[m]
    pad_u = pad_map(stage.U, target.U)
    pad_v = pad_map(stage.V, target.V)
    verdict_i = classify_embedding(i_prime, args.eps).verdict
    verdict_j = classify_embedding(j_prime, args.eps).verdict
    checks = [
        check_eq(
            "dist(F_m o i', j' o T) == 0",
            map_distance(target.F.compose(i_prime), j_prime.compose(T)),
            Fraction(0),
        ),
        check_lt(
            "dist(i' o X0incl, pad o i0) < eps",
            map_distance(i_prime.compose(x0incl), pad_u.compose(seed.i0)),
            args.eps,
        ),
        check_lt(
            "dist(j' o Y0incl, pad o i1) < eps",
            map_distance(j_prime.compose(y0incl), pad_v.compose(seed.i1)),
            args.eps,
        ),
        check_true(
            "i' is at least an eps-embedding",
            verdict_i in OK_EMBEDDING,
            computed=verdict_i,
        ),
        check_true(
            "j' is at least an eps-embedding",
            verdict_j in OK_EMBEDDING,
            computed=verdict_j,
        ),
    ]
    return report_doc(
        checks,
        i=linmap_to_json(i_prime),
        j=linmap_to_json(j_prime),
        stage=m,
        chain=chain_to_json(extended),
    )


def cmd_embed(args) -> dict:
    chain = _load_chain(args.chain)
    doc = load_json(args.input)
    T = _load_map(doc, "T")
    schedule = EpsSchedule.dyadic(args.depth)
    squares = embed_operator(chain, T, schedule, args.depth)
    checks = []
    for n, sq in enumerate(squares):
        eps_n = schedule.eps(n)
        checks.append(
            check_eq(f"square {n}: defect == 0", sq.defect, Fraction(0))
        )
        verdict0 = classify_embedding(sq.i0, eps_n).verdict
        verdict1 = classify_embedding(sq.i1, eps_n).verdict
        checks.append(
            check_true(
                f"square {n}: legs are eps_n-embeddings",
                verdict0 in OK_EMBEDDING and verdict1 in OK_EMBEDDING,
                computed=f"{verdict0}, {verdict1}",
            )
        )
        if n == 0:
            continue
        prev = squares[n - 1]
        pad_x = pad_map(prev.S.domain, sq.S.domain)
        pad_y = pad_map(prev.S.codomain, sq.S.codomain)
        d0 = map_distance(
            sq.i0.compose(pad_x),
            pad_map(prev.i0.codomain, sq.i0.codomain).compose(prev.i0),
        )
        d1 = map_distance(
            sq.i1.compose(pad_y),
            pad_map(prev.i1.codomain, sq.i1.codomain).compose(prev.i1),
        )
        checks.append(
            check_le(
                f"square {n}: restriction within 3*eps_n of square {n - 1}",
                max(d0, d1),
                3 * eps_n,
            )
        )
    return report_doc(checks, squares=[_square_record(sq) for sq in squares])


def cmd_bnf(args) -> dict:
    A = _load_chain(args.chain_a)
    B = _load_chain(args.chain_b)
    doc = load_json(args.input)
    ka = require_field(doc, "stage_a")
    kb = require_field(doc, "stage_b")
    for label, idx, chain in (("stage_a", ka, A), ("stage_b", kb, B)):
        if not isinstance(idx, int) or isinstance(idx, bool) or not 0 <= idx < len(chain.stages):
            raise ParseError(f"{label} {idx!r} is not a stage index")
    sa, sb = A.stages[ka], B.stages[kb]
    i0, i1 = require_field(doc, "i0"), require_field(doc, "i1")
    i0 = LinMap(mat_from_json(i0, sb.U.dim, sa.U.dim), sa.U, sb.U)
    i1 = LinMap(mat_from_json(i1, sb.V.dim, sa.V.dim), sa.V, sb.V)
    seed_eps = rat(doc["eps"]) if "eps" in doc else args.eps
    seed = make_square(sa.F, sb.F, i0, i1, seed_eps)
    transcript = back_and_forth(A, B, seed, args.eps, args.depth)
    # Schedule values eps_0 .. eps_{depth+1} as recorded on the squares:
    # the n-th forth square carries eps_{n+1}, the last back square
    # carries eps_{depth+1}.
    eps_list = (
        [transcript.kSquares[0].eps]
        + [sq.eps for sq in transcript.lSquares]
        + [transcript.kSquares[-1].eps]
    )
    checks = [
        check_true(
            "every matched square commutes exactly",
            all(
                sq.defect == 0
                for sq in transcript.kSquares[1:] + transcript.lSquares
            ),
        ),
        check_true(
            "all matching legs nonexpansive",
            all(
                operator_norm(sq.i0) <= 1 and operator_norm(sq.i1) <= 1
                for sq in transcript.kSquares + transcript.lSquares
            ),
        ),
        check_lt(
            "sum of eta_n < 2*eps",
            sum(transcript.etas, Fraction(0)),
            2 * args.eps,
        ),
    ]
    for n, eta in enumerate(transcript.etas, start=1):
        checks.append(
            check_eq(
                f"eta_{n} == 2*eps_{n - 1} + 3*eps_{n} + eps_{n + 1}",
                2 * eps_list[n - 1] + 3 * eps_list[n] + eps_list[n + 1],
                eta,
            )
        )
    return report_doc(
        checks,
        k_squares=[_square_record(sq) for sq in transcript.kSquares],
        l_squares=[_square_record(sq) for sq in transcript.lSquares],
        etas=[rat_str(eta) for eta in transcript.etas],
    )


def cmd_kernel(args) -> dict:
    chain = _load_chain(args.chain)
    doc = load_json(args.input)
    x0incl = _load_map(doc, "X0incl")
    i = _load_map(doc, "i")
    n = next(
        (idx for idx, st in enumerate(chain.stages) if st.U == i.codomain), None
    )
    i_prime, m, extended = kernel_witness(chain, x0incl, i, args.eps)
    target = extended.stages[m]
    checks = [
        check_true(
            "F_m o i' == 0",
            (target.F.matrix @ i_prime.matrix).is_zero(),
            computed=f"stage {m}",
        ),
        check_true("i' is isometric", is_isometric(i_prime)),
    ]
    if n is not None:
        pad_u = pad_map(chain.stages[n].U, target.U)
        checks.append(
            check_lt(
                "dist(i' o X0incl, pad o i) < eps",
                map_distance(i_prime.compose(x0incl), pad_u.compose(i)),
                args.eps,
            )
        )
    return report_doc(
        checks,
        i=linmap_to_json(i_prime),
        stage=m,
        chain=chain_to_json(extended),
    )


def cmd_surject(args) -> dict:
    chain = _load_chain(args.chain)
    doc = load_json(args.input)
    v = vec_from_json(require_field(doc, "v"))
    m, u, extended = surjectivity_witness(chain, v)
    target = extended.stages[m]
    lifted = v.concat(QVec.zero(target.V.dim - v.dim))
    checks = [
        check_true(
            "F_m(u) == v in stage coordinates",
            target.F.matrix.apply(u) == lifted,
            computed=f"stage {m}",
        ),
        check_true(
            "u lies in the stage domain carrier",
            u.dim == target.U.dim,
            computed=f"norm(u) = {rat_str(norm_eval(target.U, u))}",
        ),
    ]
    return report_doc(
        checks,
        stage=m,
        u=vec_to_json(u),
        chain=chain_to_json(extended),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyban",
        description="Exact constructions over rational polyhedral Banach "
        "spaces, with verification reports.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb, handler, **kwargs):
        p = sub.add_parser(verb, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--out", help="write the report here instead of stdout")
        return p

    p = add("space-check", cmd_space_check)
    p.add_argument("input", help="space or ball JSON file")

    p = add("op-norm", cmd_op_norm)
    p.add_argument("input", help="linear map JSON file")

    p = add("amalgam-pushout", cmd_amalgam_pushout)
    p.add_argument("input", help="JSON file with maps i and f")
    p.add_argument("--dim-cap", type=int, default=DIM_CAP)

    p = add("amalgam-correct", cmd_amalgam_correct)
    p.add_argument("input", help="JSON file with the map f")
    p.add_argument("--eps", type=rat, required=True)
    p.add_argument("--dim-cap", type=int, default=DIM_CAP)

    p = add("square-sum", cmd_square_sum)
    p.add_argument("input", help="JSON file with T0, T1, f0, f1")
    p.add_argument("--eps", type=rat, required=True)
    p.add_argument("--delta", type=rat, required=True)
    p.add_argument("--dim-cap", type=int, default=DIM_CAP)

    p = add("repair", cmd_repair)
    p.add_argument("input", help="JSON file with T and the pins i0, j0")
    p.add_argument("--delta", type=rat, required=True)
    p.add_argument("--dim-cap", type=int, default=DIM_CAP)

    p = add("chain-build", cmd_chain_build)
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--dim-cap", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)

    p = add("g-witness", cmd_g_witness)
    p.add_argument("chain", help="chain JSON file")
    p.add_argument("input", help="JSON file with T, X0incl, Y0incl, seed")
    p.add_argument("--eps", type=rat, required=True)

    p = add("embed", cmd_embed)
    p.add_argument("chain", help="chain JSON file")
    p.add_argument("input", help="JSON file with the operator T")
    p.add_argument("--depth", type=int, required=True)

    p = add("bnf", cmd_bnf)
    p.add_argument("chain_a", help="first chain JSON file")
    p.add_argument("chain_b", help="second chain JSON file")
    p.add_argument("input", help="JSON file with stage_a, stage_b, i0, i1")
    p.add_argument("--eps", type=rat, required=True)
    p.add_argument("--depth", type=int, required=True)

    p = add("kernel", cmd_kernel)
    p.add_argument("chain", help="chain JSON file")
    p.add_argument("input", help="JSON file with X0incl and i")
    p.add_argument("--eps", type=rat, required=True)

    p = add("surject", cmd_surject)
    p.add_argument("chain", help="chain JSON file")
    p.add_argument("input", help="JSON file with the target vector v")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = args.handler(args)
    except VerificationError as exc:
        print(f"error: verification failed: {exc}", file=sys.stderr)
        return 1
    except PolybanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = dumps_canonical(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0 if doc["verdict"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
