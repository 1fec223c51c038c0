"""Fuzzed input files for every file-reading verb.

Each example takes one verb's tour invocation (demos/cli_tour.sh), mutates
one of its input documents (a demos/data file or a demos/out chain file)
and runs cli.main on it.  Whatever the mutation, the exit contract holds:
the status is 0, 1 or 2, a rejection starts with an `error: ` line, no
exception escapes main, and bad input is never reported as a failed
internal verification.
"""

import contextlib
import copy
import io
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyban.cli import main

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

# Verb, input files (relative to demos/), flags: the tour's invocations.
INVOCATIONS = [
    ("space-check", ["data/hexagon_ball.json"], []),
    ("op-norm", ["data/identity_map.json"], []),
    ("amalgam-pushout", ["data/pushout_pair.json"], []),
    ("amalgam-correct", ["data/line_correction.json"], ["--eps", "1/2"]),
    ("square-sum", ["data/square_pair.json"], ["--eps", "1", "--delta", "1/8"]),
    ("repair", ["data/expansive_scalar.json"], ["--delta", "1/8"]),
    ("g-witness", ["out/chain-a.json", "data/extension_witness.json"], ["--eps", "1/4"]),
    ("kernel", ["out/chain-a.json", "data/kernel_seed.json"], ["--eps", "1/4"]),
    ("surject", ["out/chain-a.json", "data/target_vector.json"], []),
    ("embed", ["out/chain-other.json", "data/jordan_block.json"], ["--depth", "3"]),
    (
        "bnf",
        ["out/chain-other.json", "out/chain-third.json", "data/bnf_seed.json"],
        ["--eps", "1/2", "--depth", "2"],
    ),
]

# Replacement values: other rationals (planted value changes), malformed
# rationals, and values of the wrong JSON type.
VALUES = [
    "5", "-1", "1/2", "0", "-3/7", "2", 3, -1, 0, 10**6,
    "3/0", "1.5", "1e3", "", "x", True, None, [], {}, ["1"], {"dim": 1},
]


def nodes(doc, path=()):
    """Every path into doc, root first."""
    yield path
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from nodes(doc[key], path + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from nodes(value, path + (index,))


def doubled(value):
    """value with every rational leaf doubled; other leaves kept."""
    if isinstance(value, list):
        return [doubled(v) for v in value]
    if isinstance(value, dict):
        return {k: doubled(v) for k, v in value.items()}
    if isinstance(value, str) and value.lstrip("-").replace("/", "").isdigit():
        num, _, den = value.partition("/")
        return f"{2 * int(num)}/{den}" if den else str(2 * int(num))
    return value


@st.composite
def mutated(draw, doc):
    """doc with one node replaced, doubled, dropped or duplicated.  In a
    chain file, half the draws aim at a stage operator ("F"), whose values
    only the load checks can reject."""
    doc = copy.deepcopy(doc)
    paths = list(nodes(doc))
    operators = [path for path in paths if "F" in path]
    if operators and draw(st.booleans()):
        paths = operators
    path = draw(st.sampled_from(paths))
    op = draw(st.sampled_from(["replace", "double", "drop", "duplicate"]))
    if not path:
        return draw(st.sampled_from(VALUES)) if op == "replace" else doubled(doc)
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if op == "replace":
        parent[last] = draw(st.sampled_from(VALUES))
    elif op == "double":
        parent[last] = doubled(parent[last])
    elif op == "drop":
        del parent[last]
    elif isinstance(parent, list):
        parent.insert(last, copy.deepcopy(parent[last]))
    else:
        parent[last] = [parent[last], parent[last]]
    return doc


@pytest.mark.parametrize(
    "verb, files, flags", INVOCATIONS, ids=[inv[0] for inv in INVOCATIONS]
)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_exit_contract_holds_on_mutated_inputs(tmp_path_factory, verb, files, flags, data):
    docs = [json.loads((DEMOS / name).read_text(encoding="utf-8")) for name in files]
    which = data.draw(st.integers(0, len(files) - 1))
    docs[which] = data.draw(mutated(docs[which]))
    root = tmp_path_factory.mktemp("fuzz")
    paths = []
    for k, doc in enumerate(docs):
        path = root / f"input{k}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([verb, *paths, *flags])
    err = err.getvalue()
    assert code in (0, 1, 2), (code, err)
    if code == 2:
        assert err.startswith("error: "), err
    assert "verification failed" not in err, err
