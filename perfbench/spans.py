"""Span recorder: times every call into the public functions of polyban's layers.

Layers import each other's functions by name (`from .exactlin import
lp_solve` in `banach`, ...), so wrapping only the defining module would miss
most calls.  While a `Recorder` is entered, every module-level alias of a
wrapped function anywhere in `polyban.*` is rebound to its wrapper; leaving
restores the originals, so untraced batches run the untouched program.

A span is (id, parent id, name, start, end, op id).  Spans stay in memory
and are written out by `write_spans`.  A span's self time is its duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("exactlin", "polytope", "banach", "amalgam", "rationalize", "fraisse", "io", "cli", "report")

# Conversions called once per rational or vector: a span each would cost
# more than their work, so their time stays in the caller's self time.
UNWRAPPED = frozenset(
    {"exactlin.rat", "exactlin.rat_str", "io.rat_from_json", "io.rat_to_json", "polytope.canon_sign"}
)


def _lp_cells(counts, args, kwargs, result, self_s):
    problem = args[0] if args else kwargs["problem"]
    counts["exactlin.lp_solve.cells"] += len(problem.constraints) * problem.objective.dim


def _isometric(counts, args, kwargs, result, self_s):
    counts["banach.is_isometric.true"] += bool(result)


def _completion(counts, args, kwargs, result, self_s):
    ball = args[0] if args else kwargs["ball"]
    direction = "from_vrep" if ball.vrep is not None else "from_hrep"
    given = ball.vrep if ball.vrep is not None else ball.hrep
    counts[f"polytope.{direction}.self_s"] += self_s
    counts["polytope.in_gens"] += len(given or ())
    counts["polytope.out_vertices"] += len(result.vrep)
    counts["polytope.out_facets"] += len(result.hrep)
    counts["polytope.max_dim"] = max(counts["polytope.max_dim"], ball.dim)


def _step(counts, args, kwargs, result, self_s):
    counts["fraisse.realized"] += result.log[-1].verdict.startswith("realized")


def _dumps(counts, args, kwargs, result, self_s):
    counts["io.bytes_out"] += len(result.encode("utf-8"))


# Extra counts taken from a call's arguments and result, after it returns.
PROBES = {
    "exactlin.lp_solve": _lp_cells,
    "banach.is_isometric": _isometric,
    "polytope.complete_representations": _completion,
    "fraisse.step_chain": _step,
    "io.dumps_canonical": _dumps,
}


class Recorder:
    """Context manager that traces polyban's layer functions while entered."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.op_id = None
        self._stack: list[list] = []
        self._depth: Counter = Counter()
        self.targets = {}
        for layer in LAYERS:
            module = importlib.import_module(f"polyban.{layer}")
            for name, obj in vars(module).items():
                label = f"{layer}.{name}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                    and label not in UNWRAPPED
                ):
                    self.targets[id(obj)] = (obj, self._wrap(obj, label))
        self.aliases = [
            (module, attr, obj)
            for module_name, module in sorted(sys.modules.items())
            if module_name == "polyban" or module_name.startswith("polyban.")
            for attr, obj in vars(module).items()
            if id(obj) in self.targets and self.targets[id(obj)][0] is obj
        ]

    def reset(self) -> None:
        self.spans.clear()
        self.stats.clear()
        self.counts.clear()
        self.op_id = None

    def __enter__(self) -> "Recorder":
        for module, attr, obj in self.aliases:
            setattr(module, attr, self.targets[id(obj)][1])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, obj in self.aliases:
            setattr(module, attr, obj)

    def _wrap(self, fn, label):
        probe = PROBES.get(label)
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans) + len(stack)
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            outermost = depth[label] == 0
            depth[label] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                depth[label] -= 1
                stack.pop()
                duration = end - start
                self_s = duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                entry = self.stats.setdefault(label, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += self_s
                if outermost:
                    entry[2] += duration
                self.spans.append(
                    (span_id, parent[0] if parent else None, label, start, end, self.op_id)
                )
            if probe is not None:
                probe(self.counts, args, kwargs, result, self_s)
            return result

        return wrapper

    def calls(self, label: str) -> int:
        return self.stats.get(label, (0, 0.0, 0.0))[0]

    def self_s(self, label: str) -> float:
        return self.stats.get(label, (0, 0.0, 0.0))[1]

    def busy_s(self, label: str) -> float:
        return self.stats.get(label, (0, 0.0, 0.0))[2]

    def layer_self_s(self, layer: str) -> float:
        return sum(entry[1] for label, entry in self.stats.items() if label.startswith(layer + "."))


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


# Per-layer metrics read from one traced batch: (name, unit, better, reader).
# Counts are exact and repeat for the same inputs; times are in seconds.
PER_LAYER = [
    ("exactlin.lp_solve.calls", "count", "lower", lambda r: r.calls("exactlin.lp_solve")),
    ("exactlin.lp_solve.self_s", "s", "lower", lambda r: r.self_s("exactlin.lp_solve")),
    ("exactlin.lp_solve.cells", "count", "lower", lambda r: r.counts["exactlin.lp_solve.cells"]),
    ("exactlin.rank.calls", "count", "lower", lambda r: r.calls("exactlin.rank")),
    ("exactlin.rank.self_s", "s", "lower", lambda r: r.self_s("exactlin.rank")),
    ("banach.lower_isometry_bound.calls", "count", "lower", lambda r: r.calls("banach.lower_isometry_bound")),
    ("banach.lower_isometry_bound.self_s", "s", "lower", lambda r: r.self_s("banach.lower_isometry_bound")),
    ("banach.is_isometric.calls", "count", "lower", lambda r: r.calls("banach.is_isometric")),
    ("banach.is_isometric.busy_s", "s", "lower", lambda r: r.busy_s("banach.is_isometric")),
    ("banach.is_isometric.true_ratio", "1", "higher",
     lambda r: _ratio(r.counts["banach.is_isometric.true"], r.calls("banach.is_isometric"))),
    ("banach.operator_norm.calls", "count", "lower", lambda r: r.calls("banach.operator_norm")),
    ("banach.operator_norm.self_s", "s", "lower", lambda r: r.self_s("banach.operator_norm")),
    ("banach.pullback_space.calls", "count", "lower", lambda r: r.calls("banach.pullback_space")),
    ("banach.pullback_space.self_s", "s", "lower", lambda r: r.self_s("banach.pullback_space")),
    ("polytope.complete_representations.calls", "count", "lower",
     lambda r: r.calls("polytope.complete_representations")),
    ("polytope.complete_representations.self_s", "s", "lower",
     lambda r: r.self_s("polytope.complete_representations")),
    ("polytope.from_vrep.self_s", "s", "lower", lambda r: r.counts["polytope.from_vrep.self_s"]),
    ("polytope.from_hrep.self_s", "s", "lower", lambda r: r.counts["polytope.from_hrep.self_s"]),
    ("polytope.in_gens", "count", "lower", lambda r: r.counts["polytope.in_gens"]),
    ("polytope.out_vertices", "count", "lower", lambda r: r.counts["polytope.out_vertices"]),
    ("polytope.out_facets", "count", "lower", lambda r: r.counts["polytope.out_facets"]),
    ("polytope.max_dim", "count", "lower", lambda r: r.counts["polytope.max_dim"]),
    ("fraisse.step_chain.calls", "count", "lower", lambda r: r.calls("fraisse.step_chain")),
    ("fraisse.step_chain.self_s", "s", "lower", lambda r: r.self_s("fraisse.step_chain")),
    ("fraisse.realize_over.calls", "count", "lower", lambda r: r.calls("fraisse.realize_over")),
    ("fraisse.realize_over.self_s", "s", "lower", lambda r: r.self_s("fraisse.realize_over")),
    ("fraisse.g_witness.calls", "count", "lower", lambda r: r.calls("fraisse.g_witness")),
    ("fraisse.g_witness.busy_s", "s", "lower", lambda r: r.busy_s("fraisse.g_witness")),
    ("fraisse.realized_ratio", "1", "higher",
     lambda r: _ratio(r.counts["fraisse.realized"], r.calls("fraisse.step_chain"))),
    ("io.chain_from_json.calls", "count", "lower", lambda r: r.calls("io.chain_from_json")),
    ("io.chain_from_json.busy_s", "s", "lower", lambda r: r.busy_s("io.chain_from_json")),
    ("io.chain_from_json.self_s", "s", "lower", lambda r: r.self_s("io.chain_from_json")),
    ("io.chain_to_json.self_s", "s", "lower", lambda r: r.self_s("io.chain_to_json")),
    ("io.dumps_canonical.self_s", "s", "lower", lambda r: r.self_s("io.dumps_canonical")),
    ("io.bytes_out", "B", "lower", lambda r: r.counts["io.bytes_out"]),
    ("cli.main.calls", "count", "lower", lambda r: r.calls("cli.main")),
    ("cli.main.self_s", "s", "lower", lambda r: r.self_s("cli.main")),
    ("report.checks", "count", "lower",
     lambda r: sum(r.calls(f"report.{f}") for f in ("check_eq", "check_le", "check_lt", "check_true"))),
    ("amalgam.pushout.self_s", "s", "lower", lambda r: r.self_s("amalgam.pushout")),
    ("amalgam.correction_sum.self_s", "s", "lower", lambda r: r.self_s("amalgam.correction_sum")),
    ("amalgam.square_sum.self_s", "s", "lower", lambda r: r.self_s("amalgam.square_sum")),
    ("rationalize.repair_operator.self_s", "s", "lower", lambda r: r.self_s("rationalize.repair_operator")),
] + [
    (f"{layer}.self_s", "s", "lower", lambda r, layer=layer: r.layer_self_s(layer))
    for layer in LAYERS
] + [
    ("trace.spans", "count", "lower", lambda r: len(r.spans)),
    ("trace.aliases", "count", "higher", lambda r: len(r.aliases)),
]

# Metrics the recorder cannot read itself: worker.py adds max_bits, run.py
# the overhead ratio.
OUTSIDE = [
    ("rational.max_bits", "bit", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
]

# Exact metrics of a traced batch: the same inputs must give the same values.
COUNT_METRICS = [(name, unit) for name, unit, _, _ in PER_LAYER if unit != "s"] + [
    ("rational.max_bits", "bit")
]


def read_metrics(recorder: Recorder) -> dict:
    return {name: reader(recorder) for name, _, _, reader in PER_LAYER}


def write_spans(recorded: list[tuple], path: str) -> None:
    """Write spans as JSON lines."""
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, parent, name, start, end, op_id in recorded:
            handle.write(
                json.dumps({"id": span_id, "parent": parent, "name": name,
                            "start": start, "end": end, "op": op_id}) + "\n"
            )
