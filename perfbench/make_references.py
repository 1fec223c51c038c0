"""Regenerate `references.json`: sha256 digests of every reference output.

    python3 perfbench/make_references.py

Computes each pool member's output with the polyban in `src/` and writes
the digests.  The tour's digests must equal those of the tracked reports in
`demos/out/`; the script fails without writing anything if one differs.
Run it only at a commit whose outputs are known to be right: the benchmark
counts every later difference from these digests as a failure.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as w  # noqa: E402
from polyban import banach, cli  # noqa: E402
from polyban.polytope import Ball, complete_representations  # noqa: E402


def tour_digests(tmp_dir: str) -> dict:
    data_dir = os.path.join(ROOT, "demos", "data")
    refs = {}
    for name, template in w.TOUR_WRITERS + w.TOUR_READERS:
        path = os.path.join(tmp_dir, f"{name}.json")
        argv = [a.format(data=data_dir, out=tmp_dir) for a in template]
        if cli.main(argv + ["--out", path]) != 0:
            raise SystemExit(f"tour/{name} did not pass")
        with open(path, "rb") as handle:
            refs[f"tour/{name}"] = w.sha256(handle.read())
        tracked = os.path.join(ROOT, "demos", "out", f"{name}.json")
        with open(tracked, "rb") as handle:
            if w.sha256(handle.read()) != refs[f"tour/{name}"]:
                raise SystemExit(f"tour/{name} differs from {tracked}")
    return refs


def pool_digests() -> dict:
    refs = {}
    for cap in w.CHAIN_CAPS:
        for seed in range(w.CHAIN_POOL):
            refs[f"chain/{cap}/{seed}"] = w.sha256(w.chain_doc(cap, seed))
    for dim in w.BALL_GENERATORS:
        for index in range(w.BALL_POOL):
            ball = complete_representations(Ball.from_vrep(dim, w.random_generators(dim, index)))
            if complete_representations(Ball.from_hrep(dim, ball.hrep)) != ball:
                raise SystemExit(f"ball/{dim}/{index}: completions disagree")
            refs[f"ball/{dim}/{index}"] = w.sha256(w.ball_doc(ball))
    for dim in w.NORM_DIMS:
        refs[f"l1/{dim}"] = w.sha256(w.ball_doc(banach.l1_space(dim).ball))
        refs[f"linf/{dim}"] = w.sha256(w.ball_doc(banach.linf_space(dim).ball))
    for index in range(w.PULLBACK_POOL):
        matrix, kind, target_dim = w.pullback_input(index)
        target = (banach.l1_space if kind == "l1" else banach.linf_space)(target_dim)
        refs[f"pullback/{index}"] = w.sha256(w.pullback_doc(banach.pullback_space(matrix, target)))
    return refs


def main() -> int:
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="references-", dir=scratch)
    try:
        refs = tour_digests(tmp_dir)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    refs.update(pool_digests())
    with open(os.path.join(HERE, "references.json"), "w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(refs)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
