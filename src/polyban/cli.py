"""Batch front-end over the exchange formats.

One verb per invocation; each verb reads JSON inputs, drives one
construction pipeline, and emits a single canonical JSON report listing
every exact bound checked as (claimed, computed, verdict).  The
constructions certify their bounds themselves and return them as
report.Check records, which a verb renders as they are; it computes only
the lines about its own results (a space's vertex norms, an operator
norm, a chain's log).  Exit status 0 means all verdicts pass, 1 means
some check failed (a report verdict, or an exact check inside a
construction raising VerificationError), 2 means the inputs were rejected.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Optional

from .amalgam import correction_sum, pushout, square_sum
from .banach import LinMap, Space, dual_norm_eval, norm_eval, operator_norm
from .errors import ParseError, PolybanError, VerificationError
from .exactlin import QVec, rat, rat_str
from .fraisse import (
    DEFAULT_DIM_CAP,
    Chain,
    EpsSchedule,
    OperatorSquare,
    build_chain,
    back_and_forth,
    embed_operator,
    g_witness,
    kernel_witness,
    make_square,
    surjectivity_witness,
)
from .io import (
    _labelled,
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
from .rationalize import repair_operator
from .report import check_eq, check_le, check_true, report_doc


def _load_map(doc, key: Optional[str] = None) -> LinMap:
    table = spaces_table_from_json(doc) if isinstance(doc, dict) else {}
    obj = require_field(doc, key) if key is not None else doc
    return linmap_from_json(obj, table)


@contextmanager
def _reading(path: str):
    """Load a JSON file for the block to parse.  An input error raised in
    the block is prefixed with the path, as load_json's own errors are."""
    doc = load_json(path)
    with _labelled(path):
        yield doc


def _load_chain(path: str) -> Chain:
    with _reading(path) as doc:
        obj = doc.get("chain", doc) if isinstance(doc, dict) else doc
        return chain_from_json(obj)


def _stage(chain: Chain, label: str, n):
    """chain.stages[n], or a ParseError when n is not a stage index."""
    if not isinstance(n, int) or isinstance(n, bool) or not 0 <= n < len(chain.stages):
        raise ParseError(f"{label} {n!r} is not a stage index")
    return chain.stages[n]


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
    with _reading(args.input) as doc:
        if isinstance(doc, dict) and "ball" in doc:
            space = space_from_json(doc)
        else:
            ball = ball_from_json(doc)
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
    with _reading(args.input) as doc:
        T = _load_map(doc, "map" if isinstance(doc, dict) and "map" in doc else None)
    # The norm is attained at a domain vertex: one pass finds it and a
    # witness, the largest vertex among those attaining it.
    norm, witness = Fraction(0), None
    if T.domain.dim > 0:
        norm, entries = max((norm_eval(T.codomain, T(v)), v.entries) for v in T.domain.ball.vrep)
        witness = QVec(entries)
    checks = [check_eq("norm(T) attained at a domain vertex", norm, norm)]
    return report_doc(
        checks,
        norm=rat_str(norm),
        witness=None if witness is None else vec_to_json(witness),
    )


def cmd_amalgam_pushout(args) -> dict:
    with _reading(args.input) as doc:
        i = _load_map(doc, "i")
        f = _load_map(doc, "f")
    res = pushout(i, f)
    return report_doc(
        res.checks,
        W=space_to_json(res.W),
        g=linmap_to_json(res.g),
        j=linmap_to_json(res.j),
    )


def cmd_amalgam_correct(args) -> dict:
    with _reading(args.input) as doc:
        f = _load_map(doc, "f" if isinstance(doc, dict) and "f" in doc else None)
    c = correction_sum(f, args.eps)
    return report_doc(
        c.checks,
        Z0=space_to_json(c.Z0),
        iX=linmap_to_json(c.iX),
        jY=linmap_to_json(c.jY),
        eps=rat_str(c.eps),
    )


def cmd_square_sum(args) -> dict:
    with _reading(args.input) as doc:
        T0 = _load_map(doc, "T0")
        T1 = _load_map(doc, "T1")
        f0 = _load_map(doc, "f0")
        f1 = _load_map(doc, "f1")
    res = square_sum(T0, T1, f0, f1, args.eps, args.delta)
    return report_doc(res.checks, Phi=linmap_to_json(res.phi))


def cmd_repair(args) -> dict:
    with _reading(args.input) as doc:
        T = _load_map(doc, "T")
        i0 = _load_map(doc, "i0")
        j0 = _load_map(doc, "j0")
    rx, ry, t_prime, checks = repair_operator(T, i0, j0, args.delta)
    return report_doc(
        checks,
        T_prime=linmap_to_json(t_prime),
        domain=space_to_json(rx.repaired),
        codomain=space_to_json(ry.repaired),
    )


def cmd_chain_build(args) -> dict:
    chain = build_chain(args.stages, args.dim_cap, args.seed)
    worst_norm = max(
        (operator_norm(st.F) for st in chain.stages), default=Fraction(0)
    )
    realized = sum(
        1 for entry in chain.log if entry.verdict.startswith("realized")
    )
    checks = [
        check_le("max stage operator norm <= 1", worst_norm, Fraction(1)),
        *chain.checks,
        check_true(
            "log covers every construction step",
            len(chain.log) == args.stages,
            computed=f"{realized} realized",
        ),
    ]
    return report_doc(checks, chain=chain_to_json(chain), realized=realized)


def cmd_g_witness(args) -> dict:
    chain = _load_chain(args.chain)
    with _reading(args.input) as doc:
        T = _load_map(doc, "T")
        x0incl = _load_map(doc, "X0incl")
        y0incl = _load_map(doc, "Y0incl")
        seed_doc = require_field(doc, "seed")
        stage = _stage(chain, "seed stage", require_field(seed_doc, "stage"))
        X0, Y0 = x0incl.domain, y0incl.domain
        S, i0, i1 = (require_field(seed_doc, name) for name in ("S", "i0", "i1"))
        S = LinMap(mat_from_json(S, Y0.dim, X0.dim), X0, Y0)
        i0 = LinMap(mat_from_json(i0, stage.U.dim, X0.dim), X0, stage.U)
        i1 = LinMap(mat_from_json(i1, stage.V.dim, Y0.dim), Y0, stage.V)
        seed = make_square(S, stage.F, i0, i1, args.eps)
    i_prime, j_prime, m, extended, checks = g_witness(
        chain, T, x0incl, y0incl, seed, args.eps
    )
    return report_doc(
        checks,
        i=linmap_to_json(i_prime),
        j=linmap_to_json(j_prime),
        stage=m,
        chain=chain_to_json(extended),
    )


def cmd_embed(args) -> dict:
    chain = _load_chain(args.chain)
    with _reading(args.input) as doc:
        T = _load_map(doc, "T")
    schedule = EpsSchedule.dyadic(args.depth)
    squares, checks = embed_operator(chain, T, schedule, args.depth)
    return report_doc(checks, squares=[_square_record(sq) for sq in squares])


def cmd_bnf(args) -> dict:
    A = _load_chain(args.chain_a)
    B = _load_chain(args.chain_b)
    with _reading(args.input) as doc:
        sa = _stage(A, "stage_a", require_field(doc, "stage_a"))
        sb = _stage(B, "stage_b", require_field(doc, "stage_b"))
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
    checks = list(transcript.checks)
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
    with _reading(args.input) as doc:
        x0incl = _load_map(doc, "X0incl")
        i = _load_map(doc, "i")
    i_prime, m, extended, checks = kernel_witness(chain, x0incl, i, args.eps)
    return report_doc(
        checks,
        i=linmap_to_json(i_prime),
        stage=m,
        chain=chain_to_json(extended),
    )


def cmd_surject(args) -> dict:
    chain = _load_chain(args.chain)
    with _reading(args.input) as doc:
        v = vec_from_json(require_field(doc, "v"))
    m, u, extended, exact = surjectivity_witness(chain, v)
    target = extended.stages[m]
    checks = [
        *exact,
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

    p = add("amalgam-correct", cmd_amalgam_correct)
    p.add_argument("input", help="JSON file with the map f")
    p.add_argument("--eps", type=rat, required=True)

    p = add("square-sum", cmd_square_sum)
    p.add_argument("input", help="JSON file with T0, T1, f0, f1")
    p.add_argument("--eps", type=rat, required=True)
    p.add_argument("--delta", type=rat, required=True)

    p = add("repair", cmd_repair)
    p.add_argument("input", help="JSON file with T and the pins i0, j0")
    p.add_argument("--delta", type=rat, required=True)

    p = add("chain-build", cmd_chain_build)
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--dim-cap", type=int, default=DEFAULT_DIM_CAP)
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
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: {args.out}: cannot write: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if doc["verdict"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
