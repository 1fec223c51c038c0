"""The three benchmark workloads: their seeded inputs, operations and checks.

A workload turns a random generator into one batch: a list of `Op`s run in
order by one client.  Each op's `run` is the timed call into polyban; its
`check` runs after the batch, untimed, and returns the op's output as
canonical bytes, raising `WrongOutput` when they differ from the reference.

Seeded instances come from fixed pools (`ball/<dim>/<index>`,
`chain/<cap>/<seed>`, ...) whose reference digests are stored in
`references.json`, so every output can be checked without a second
implementation.  A workload seed only chooses which pool members a batch
draws and in which order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

# Layer functions are called through their modules, never bound here by
# name, so that the span recorder's rebinding reaches the benchmark's calls.
from polyban import banach, cli, fraisse, io, polytope
from polyban.exactlin import QMat, QVec, rank
from polyban.polytope import Ball

CHAIN_STAGES = 9
CHAIN_CAPS = (6, 7)
CHAIN_POOL = 16
BALL_POOL = 32
PULLBACK_POOL = 36
# Generators per random ball of each dimension.  With more, a single hrep
# completion can take seconds (dim 6 from 8 generators: 6 to 15 s) and
# dominate the batch.
BALL_GENERATORS = {4: 6, 5: 6, 6: 6}
NORM_DIMS = (6, 7, 8)
# l1 and linf are also completed from their 2^(dim-1) facets or vertices in
# these dims; in dims 7 and 8 such completions would be half the batch.
REVERSED_NORM_DIMS = (6,)
PULLBACK_TARGETS = (("l1", 5), ("linf", 6), ("l1", 6))


class WrongOutput(Exception):
    """An operation returned output that differs from its reference."""


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bytes]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def expect_digest(data: bytes, digest: str, what: str) -> bytes:
    if sha256(data) != digest:
        raise WrongOutput(f"{what}: output digest differs from the reference")
    return data


def canonical_bytes(doc) -> bytes:
    return io.dumps_canonical(doc).encode("utf-8")


# -- tour ---------------------------------------------------------------------

# (report name, argv) exactly as demos/cli_tour.sh runs them.  The writers
# come first because the readers load the chains that the chain builds write.
TOUR_WRITERS = (
    ("space-check", ["space-check", "{data}/hexagon_ball.json"]),
    ("op-norm", ["op-norm", "{data}/identity_map.json"]),
    ("amalgam-pushout", ["amalgam-pushout", "{data}/pushout_pair.json"]),
    ("amalgam-correct", ["amalgam-correct", "{data}/line_correction.json", "--eps", "1/2"]),
    ("square-sum", ["square-sum", "{data}/square_pair.json", "--eps", "1", "--delta", "1/8"]),
    ("repair", ["repair", "{data}/expansive_scalar.json", "--delta", "1/8"]),
    ("chain-a", ["chain-build", "--stages", "8", "--dim-cap", "6", "--seed", "1"]),
    ("chain-b", ["chain-build", "--stages", "8", "--dim-cap", "6", "--seed", "1"]),
    ("chain-other", ["chain-build", "--stages", "3", "--dim-cap", "6", "--seed", "2"]),
    ("chain-third", ["chain-build", "--stages", "3", "--dim-cap", "6", "--seed", "3"]),
)
TOUR_READERS = (
    ("g-witness", ["g-witness", "{out}/chain-a.json", "{data}/extension_witness.json", "--eps", "1/4"]),
    ("kernel", ["kernel", "{out}/chain-a.json", "{data}/kernel_seed.json", "--eps", "1/4"]),
    ("surject", ["surject", "{out}/chain-a.json", "{data}/target_vector.json"]),
    ("embed", ["embed", "{out}/chain-other.json", "{data}/jordan_block.json", "--depth", "3"]),
    (
        "bnf",
        ["bnf", "{out}/chain-other.json", "{out}/chain-third.json", "{data}/bnf_seed.json",
         "--eps", "1/2", "--depth", "2"],
    ),
)


def tour_batch(rng: random.Random, ctx: "Context") -> list[Op]:
    """One pass of the CLI tour; the seed shuffles the verbs within each group."""
    groups = [list(TOUR_WRITERS), list(TOUR_READERS)]
    ops = []
    for group in groups:
        rng.shuffle(group)
        for name, template in group:
            argv = [a.format(data=ctx.data_dir, out=ctx.tmp_dir) for a in template]
            path = os.path.join(ctx.tmp_dir, f"{name}.json")
            ops.append(
                Op(
                    f"tour/{name}",
                    lambda argv=argv, path=path: cli.main(argv + ["--out", path]),
                    lambda code, name=name, path=path: _check_report(ctx, name, path, code),
                )
            )
    return ops


def _check_report(ctx: "Context", name: str, path: str, code: int) -> bytes:
    if code != 0:
        raise WrongOutput(f"tour/{name}: exit code {code}")
    with open(path, "rb") as handle:
        data = handle.read()
    return expect_digest(data, ctx.refs[f"tour/{name}"], f"tour/{name}")


# -- chain --------------------------------------------------------------------


def chain_doc(cap: int, seed: int) -> bytes:
    """Reference form of a chain: its canonical JSON."""
    return canonical_bytes(io.chain_to_json(fraisse.build_chain(CHAIN_STAGES, cap, seed)))


def chain_batch(rng: random.Random, ctx: "Context") -> list[Op]:
    """Build one chain per cap, each for its own drawn seed, and take it
    through one save/load round trip; build, save and load are separate ops."""
    seeds = rng.sample(range(CHAIN_POOL), len(CHAIN_CAPS))
    return [op for cap, seed in zip(CHAIN_CAPS, seeds) for op in _chain_ops(ctx, cap, seed)]


def _chain_ops(ctx: "Context", cap: int, seed: int) -> list[Op]:
    state: dict = {}
    what = f"chain/{cap}/{seed}"
    digest = ctx.refs[what]

    def build():
        state["chain"] = fraisse.build_chain(CHAIN_STAGES, cap, seed)
        return state["chain"]

    def save():
        state["text"] = io.dumps_canonical(io.chain_to_json(state["chain"]))
        return state["text"]

    def load():
        return io.chain_from_json(json.loads(state["text"]), verify=True)

    def check_load(chain) -> bytes:
        data = canonical_bytes(io.chain_to_json(chain))
        if data != state["text"].encode("utf-8"):
            raise WrongOutput(f"{what}: save(load(chain)) is not byte-identical")
        return data

    return [
        Op("chain/build", build, lambda chain: expect_digest(
            canonical_bytes(io.chain_to_json(chain)), digest, what)),
        Op("chain/save", save, lambda text: expect_digest(text.encode("utf-8"), digest, what)),
        Op("chain/load", load, check_load),
    ]


# -- polytope -----------------------------------------------------------------


def random_generators(dim: int, index: int) -> list[QVec]:
    """Pool member ball/<dim>/<index>: small integer generators that span."""
    rng = random.Random(f"ball/{dim}/{index}")
    count = BALL_GENERATORS[dim]
    while True:
        gens = [QVec.of([rng.randint(-2, 2) for _ in range(dim)]) for _ in range(count)]
        if rank(QMat.from_rows([g.entries for g in gens], cols=dim)) == dim:
            return gens


def sign_vectors(dim: int) -> list[QVec]:
    """One of each +-pair of the 2^dim vectors with entries +-1."""
    return [QVec.of((1,) + signs) for signs in itertools.product((1, -1), repeat=dim - 1)]


def unit_vectors(dim: int) -> list[QVec]:
    return [QVec.unit(dim, i) for i in range(dim)]


def pullback_input(index: int):
    """Pool member pullback/<index>: an injective integer map into l1 or linf."""
    kind, target_dim = PULLBACK_TARGETS[index % len(PULLBACK_TARGETS)]
    k = 3 + (index // len(PULLBACK_TARGETS)) % 3
    rng = random.Random(f"pullback/{index}")
    while True:
        matrix = QMat.from_rows(
            [[rng.randint(-2, 2) for _ in range(k)] for _ in range(target_dim)], cols=k
        )
        if rank(matrix) == k:
            return matrix, kind, target_dim


def ball_doc(ball: Ball) -> bytes:
    return canonical_bytes(io.ball_to_json(ball))


def pullback_doc(space) -> bytes:
    return canonical_bytes(io.space_to_json(space))


def polytope_batch(rng: random.Random, ctx: "Context") -> list[Op]:
    """Random balls from vrep and back from hrep, l1 and linf balls, and
    pullbacks; the seed draws the pool members and the order."""
    units = []
    for dim in BALL_GENERATORS:
        for index in rng.sample(range(BALL_POOL), ctx.size(f"balls_dim{dim}")):
            units.append(
                _round_trip_ops(ctx, f"ball/{dim}/{index}", dim, random_generators(dim, index))
            )
    for dim in ctx.size("norm_dims"):
        l1, linf = ctx.refs[f"l1/{dim}"], ctx.refs[f"linf/{dim}"]
        units.append([_completion_op(l1, "from_vrep", Ball.from_vrep(dim, unit_vectors(dim)))])
        units.append([_completion_op(linf, "from_hrep", Ball.from_hrep(dim, unit_vectors(dim)))])
        if dim in REVERSED_NORM_DIMS:
            units.append([_completion_op(l1, "from_hrep", Ball.from_hrep(dim, sign_vectors(dim)))])
            units.append([_completion_op(linf, "from_vrep", Ball.from_vrep(dim, sign_vectors(dim)))])
    for index in rng.sample(range(PULLBACK_POOL), ctx.size("pullbacks")):
        units.append([_pullback_op(ctx, index)])
    rng.shuffle(units)
    return [op for unit in units for op in unit]


def _completion_op(digest: str, direction: str, ball: Ball) -> Op:
    return Op(
        f"polytope/{direction}",
        lambda: polytope.complete_representations(ball),
        lambda out: expect_digest(ball_doc(out), digest, f"polytope/{direction}"),
    )


def _round_trip_ops(ctx: "Context", key: str, dim: int, gens: list[QVec]) -> list[Op]:
    """Complete the vrep, then complete the hrep of that result; both must
    give the reference ball."""
    digest = ctx.refs[key]
    state: dict = {}

    def from_vrep():
        state["ball"] = polytope.complete_representations(Ball.from_vrep(dim, gens))
        return state["ball"]

    def from_hrep():
        return polytope.complete_representations(Ball.from_hrep(dim, state["ball"].hrep))

    def check_hrep(ball: Ball) -> bytes:
        if ball != state["ball"]:
            raise WrongOutput(f"{key}: hrep completion does not give back the ball")
        return expect_digest(ball_doc(ball), digest, key)

    return [
        Op("polytope/from_vrep", from_vrep, lambda out: expect_digest(ball_doc(out), digest, key)),
        Op("polytope/from_hrep", from_hrep, check_hrep),
    ]


def _pullback_op(ctx: "Context", index: int) -> Op:
    matrix, kind, target_dim = pullback_input(index)
    target = ctx.norm_space(kind, target_dim)
    key = f"pullback/{index}"
    return Op(
        "polytope/pullback",
        lambda: banach.pullback_space(matrix, target),
        lambda out: expect_digest(pullback_doc(out), ctx.refs[key], key),
    )


# -- sizes and context --------------------------------------------------------

WORKLOADS = {"tour": tour_batch, "chain": chain_batch, "polytope": polytope_batch}

# Input sizes of one batch.  `tiny` is the determinism self-test's version.
SIZES = {
    "full": {
        "balls_dim4": 4,
        "balls_dim5": 2,
        "balls_dim6": 2,
        "norm_dims": NORM_DIMS,
        "pullbacks": 4,
    },
    "tiny": {
        "balls_dim4": 2,
        "balls_dim5": 1,
        "balls_dim6": 1,
        "norm_dims": (6,),
        "pullbacks": 2,
    },
}


class Context:
    """What a batch needs besides its generator: references, paths, sizes."""

    def __init__(self, root: str, tmp_dir: str, refs: dict, size: str = "full"):
        self.data_dir = os.path.join(root, "demos", "data")
        self.tmp_dir = tmp_dir
        self.refs = refs
        self._sizes = SIZES[size]
        self._spaces: dict = {}

    def size(self, key: str):
        return self._sizes[key]

    def norm_space(self, kind: str, dim: int):
        """Pullback targets are set up once per process, outside the timing."""
        if (kind, dim) not in self._spaces:
            self._spaces[kind, dim] = (banach.l1_space if kind == "l1" else banach.linf_space)(dim)
        return self._spaces[kind, dim]


def load_references(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
