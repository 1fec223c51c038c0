"""Determinism self-test of the benchmark.

    python3 -m pytest perfbench/tests

Runs a tiny version of each workload twice, untraced and traced, and
asserts that every count metric repeats exactly, that traced outputs are
byte-identical to untraced ones, and that no op fails on this code.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from polyban import banach, exactlin, fraisse  # noqa: E402

REFS = workloads.load_references(os.path.join(BENCH, "references.json"))


def tiny_run(name: str, seed: int, tmp_dir: str):
    ctx = workloads.Context(ROOT, tmp_dir, REFS, size="tiny")
    ops = workloads.WORKLOADS[name](random.Random(f"{name}/{seed}/0"), ctx)
    plain = worker.run_batch(ops)
    recorder = spans.Recorder()
    with recorder:
        traced = worker.run_batch(ops, recorder)
    metrics = spans.read_metrics(recorder)
    metrics["rational.max_bits"] = traced.max_bits
    counts = {name: metrics[name] for name, _ in spans.COUNT_METRICS}
    return plain, traced, counts


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_and_traced_outputs_match(name, tmp_path):
    first_plain, first_traced, first_counts = tiny_run(name, 7, str(tmp_path))
    second_plain, second_traced, second_counts = tiny_run(name, 7, str(tmp_path))

    assert first_counts == second_counts
    assert first_counts["trace.spans"] > 0
    batches = (first_plain, first_traced, second_plain, second_traced)
    assert all(b.failed == 0 for b in batches), "fail_ratio must be 0"
    assert len({tuple(b.digests) for b in batches}) == 1
    assert len({b.max_bits for b in batches}) == 1


def test_latencies_are_rescaled_to_the_reference_kernel_speed():
    ref = calibrate.REFERENCE_S
    batch = worker.Batch(3.0, [1.0, 2.0], [ref, 2 * ref, 2 * ref], 0, 0, [])
    # At twice the kernel time the host runs at half speed.
    assert batch.normalized_s() == [1.0 / 1.5, 1.0]
    assert 0 < calibrate.kernel_s() < 1


def test_recorder_rebinds_every_alias_and_restores_them():
    original = exactlin.lp_solve
    recorder = spans.Recorder()
    with recorder:
        assert banach.lp_solve is not original
        assert banach.lp_solve is exactlin.lp_solve
        assert fraisse.is_isometric is banach.is_isometric
    assert banach.lp_solve is original and exactlin.lp_solve is original
    assert len(recorder.aliases) > len(recorder.targets)


def test_contract_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    with open(os.path.join(BENCH, "contract.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    layer = [(n, u, b) for n, u, b, _ in spans.PER_LAYER] + spans.OUTSIDE
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == layer
    for name, spec in contract["workloads"].items():
        ops = workloads.WORKLOADS[name](random.Random(0), workloads.Context(ROOT, "", REFS))
        assert spec["ops_per_batch"] == len(ops)
        assert spec["tail_percentile"] == run.TAIL_PERCENTILE[name]


def last_json(stdout: str):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_every_metric(trace):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "polytope",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert done.returncode == 0
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tour", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == "" or not done.stdout.strip().splitlines()[-1].startswith("{")
