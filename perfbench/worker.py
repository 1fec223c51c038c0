"""One workload process: set up, warm up, then run timed batches.

`run.py` starts this script once per set-up sample, one process at a time, so
that imports, memory and timings belong to one workload.  It prints one JSON
object with the raw samples as its last line of standard output.
"""

from __future__ import annotations

from time import perf_counter

SETUP_START = perf_counter()

import calibrate  # noqa: E402  (stdlib only)

SETUP_KERNEL_S = calibrate.kernel_s()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

MAX_LOGGED_FAILURES = 5
DIGITS = re.compile(rb"\d+")


@dataclass
class Batch:
    wall_s: float
    latencies_s: list[float]
    # Calibration kernel times: before the first op and after each op.
    kernel_s: list[float]
    failed: int
    max_bits: int
    digests: list

    def normalized_s(self) -> list[float]:
        """Each op's latency at the calibration kernel's reference speed."""
        return [
            latency * calibrate.REFERENCE_S * 2 / (before + after)
            for latency, before, after in zip(self.latencies_s, self.kernel_s, self.kernel_s[1:])
        ]


def run_batch(ops: list, recorder=None, log=None) -> Batch:
    """Run the ops in order, timing each and the calibration kernel between
    them; then check every output, untimed.

    An op that raises, or whose output differs from its reference, counts
    as failed; it never stops the batch.
    """
    results = []
    latencies = []
    kernel = [calibrate.kernel_s()]
    for op_id, op in enumerate(ops):
        if recorder is not None:
            recorder.op_id = op_id
        op_start = perf_counter()
        try:
            results.append((op.run(), None))
        except (Exception, SystemExit) as exc:  # argparse exits on bad argv
            results.append((None, exc))
        latencies.append(perf_counter() - op_start)
        kernel.append(calibrate.kernel_s())
    wall = sum(latencies)
    failed = 0
    max_bits = 0
    digests = []
    for op, (output, error) in zip(ops, results):
        if error is None:
            try:
                data = op.check(output)
            except Exception as exc:
                error = exc
            else:
                digests.append(workloads.sha256(data))
                max_bits = max([max_bits] + [int(d).bit_length() for d in DIGITS.findall(data)])
        if error is not None:
            failed += 1
            digests.append(None)
            if log is not None and len(log) < MAX_LOGGED_FAILURES:
                log.append(f"{op.name}: " + "".join(traceback.format_exception_only(error)).strip())
    return Batch(wall, latencies, kernel, failed, max_bits, digests)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sample", type=int, required=True, help="set-up sample index")
    parser.add_argument("--seconds", type=float, required=True, help="timed share of this process")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans-out", help="write the spans of the first traced batch here")
    args = parser.parse_args(argv)

    refs = workloads.load_references(os.path.join(HERE, "references.json"))
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        out = measure(args, refs, tmp_dir)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


def measure(args, refs: dict, tmp_dir: str) -> dict:
    ctx = workloads.Context(ROOT, tmp_dir, refs)
    # Each process of a run draws its own inputs from the seed and repeats
    # them, so its batches differ only in how busy the host was.
    rng = random.Random(f"{args.workload}/{args.seed}/{args.sample}")
    ops = workloads.WORKLOADS[args.workload](rng, ctx)
    recorder = spans.Recorder() if args.trace else None
    log: list[str] = []
    batches = [run_batch(ops, log=log)]
    setup_s = perf_counter() - SETUP_START
    # The warm-up ops are normalized one by one, like timed ops; the rest of
    # set-up (imports, inputs, references, output checks) by the median
    # kernel time seen during set-up.
    warm_up = batches[0]
    setup_kernel_s = statistics.median([SETUP_KERNEL_S] + warm_up.kernel_s)
    setup_normalized_s = (
        (setup_s - warm_up.wall_s) * calibrate.REFERENCE_S / setup_kernel_s
        + sum(warm_up.normalized_s())
    )

    timed, traced, first_spans = [], [], []
    mismatches = 0
    timed_start = perf_counter()
    last = 0.0
    # Start a batch only if one more, as long as the last, fits the share.
    while not timed or perf_counter() - timed_start + last <= args.seconds:
        started = perf_counter()
        plain = run_batch(ops, log=log)
        batches.append(plain)
        timed.append({
            "wall_s": plain.wall_s,
            "latencies_s": plain.latencies_s,
            "normalized_s": plain.normalized_s(),
        })
        if recorder is not None:
            recorder.reset()
            with recorder:
                batches.append(run_batch(ops, recorder, log))
            if batches[-1].digests != plain.digests:
                mismatches += 1
                log.append("traced outputs differ from untraced outputs")
            metrics = spans.read_metrics(recorder)
            metrics["rational.max_bits"] = batches[-1].max_bits
            for name, unit in spans.COUNT_METRICS:
                if traced and metrics[name] != traced[0]["metrics"][name]:
                    mismatches += 1
                    log.append(f"{name} differs between traced batches of the same inputs")
            overhead = sum(batches[-1].normalized_s()) / sum(plain.normalized_s()) - 1
            traced.append({"overhead": overhead, "metrics": metrics})
            if not first_spans:
                first_spans = list(recorder.spans)
        last = perf_counter() - started
    if args.spans_out:
        spans.write_spans(first_spans, args.spans_out)
    return {
        "setup_s": setup_s,
        "setup_normalized_s": setup_normalized_s,
        "timed": timed,
        "traced": traced,
        "attempted": len(ops) * len(batches),
        "failed": sum(b.failed for b in batches) + mismatches,
        "ops_per_batch": len(ops),
        "failures": log,
    }


if __name__ == "__main__":
    sys.exit(main())
