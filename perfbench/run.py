"""Benchmark of polyban: one workload per invocation, metrics as JSON.

    python3 perfbench/run.py --workload tour|chain|polytope --seed N \
        --seconds S --trace 0|1

Run from the root of a polyban checkout.  The workload runs in SAMPLES
fresh processes, one after another; each sets up (imports, inputs drawn
from the seed, references, one untimed warm-up batch) and then repeats its
batch for its share of the seconds.  Every output is checked against the
digests in `references.json`.  Times are rescaled to the speed of a fixed
calibration kernel timed between ops (`calibrate.py`), so that a busy
neighbour on a shared host does not read as a slower program; the raw
wall-clock figures are printed too.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of the traced run with `--trace 1`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402  (stdlib only; imports polyban lazily)

WORKLOADS = ("tour", "chain", "polytope")
SAMPLES = 3
# A run must end within 180 s; workers share what is left of this budget.
RUN_BUDGET_S = 170
# Percentile reported as op_tail_ms, per workload: about the highest that
# leaves ten op latencies above it in a 25 s run on 2 vCPUs, placed inside
# one class of ops (for chain, the builds) rather than between two.  It is
# fixed so that every run reports the same percentile; run.py prints how
# many latencies lie beyond it.
TAIL_PERCENTILE = {"tour": 90, "chain": 80, "polytope": 90}

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("pass_ratio", "1"),
    ("peak_rss_mib", "MiB"),
]


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def check_checkout() -> str | None:
    for path in ("src/polyban/__init__.py", "demos/data", "perfbench/references.json"):
        if not os.path.exists(os.path.join(ROOT, path)):
            return f"not a polyban checkout: {path} is missing under {ROOT}"
    return None


def run_worker(args, sample: int, seconds: float, deadline: float) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--sample", str(sample),
        "--seconds", repr(seconds), "--trace", str(args.trace),
    ]
    if args.trace and sample == 0:
        trace_dir = os.path.join(ROOT, ".perfbench", "spans")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=deadline - time.monotonic()
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker {sample} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, samples: list[dict]) -> tuple[dict, list[str]]:
    """Times at the calibration kernel's reference speed (calibrate.py);
    the raw wall-clock figures are printed beside them."""
    batches = [b for s in samples for b in s["timed"]]
    latencies_ms = [1000 * t for b in batches for t in b["normalized_s"]]
    raw_ms = [1000 * t for b in batches for t in b["latencies_s"]]
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    pct = TAIL_PERCENTILE[workload]
    tail_ms, beyond = percentile(latencies_ms, pct)
    values = {
        "setup_s": statistics.median(s["setup_normalized_s"] for s in samples),
        "wall_s": statistics.median(sum(b["normalized_s"]) for b in batches),
        "op_p50_ms": statistics.median(latencies_ms),
        "op_tail_ms": tail_ms,
        "pass_ratio": (attempted - failed) / attempted,
        "peak_rss_mib": statistics.median(s["peak_rss_mib"] for s in samples),
    }
    notes = [
        f"{len(batches)} timed batches of {samples[0]['ops_per_batch']} ops; "
        f"op_tail_ms is p{pct} of {len(latencies_ms)} op latencies ({beyond} beyond it)",
        f"raw wall clock: setup_s {statistics.median(s['setup_s'] for s in samples):.6g}, "
        f"wall_s {statistics.median(b['wall_s'] for b in batches):.6g}, "
        f"op_p50_ms {statistics.median(raw_ms):.6g}, op_tail_ms {percentile(raw_ms, pct)[0]:.6g}",
    ]
    return values, notes


def per_layer(samples: list[dict]) -> dict:
    """Counts of the first process's traced batch, whose inputs the seed
    fixes; times as medians over all traced batches."""
    traced = [t for s in samples for t in s["traced"]]
    values = {}
    for name, unit, _, _ in spans.PER_LAYER:
        if unit == "s":
            values[name] = statistics.median(t["metrics"][name] for t in traced)
        else:
            values[name] = traced[0]["metrics"][name]
    values["rational.max_bits"] = traced[0]["metrics"]["rational.max_bits"]
    # Each traced batch directly follows an untraced one on the same inputs.
    values["trace.overhead_ratio"] = statistics.median(t["overhead"] for t in traced)
    return values


def units() -> dict:
    table = dict(END_TO_END)
    table.update((name, unit) for name, unit, *_ in spans.PER_LAYER + spans.OUTSIDE)
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = check_checkout()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"python {sys.version.split()[0]}, nproc {os.cpu_count()}", flush=True)
    samples = []
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        for sample in range(SAMPLES):
            samples.append(run_worker(args, sample, args.seconds / SAMPLES, deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    for s in samples:
        for line in s["failures"]:
            print(f"failed: {line}")
    if args.trace:
        values = per_layer(samples)
    else:
        values, notes = end_to_end(args.workload, samples)
        for line in notes:
            print(line)
    table = units()
    for name, value in values.items():
        print(f"  {name:<42} {value:.6g} {table[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": table[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
