"""Canonical JSON exchange formats.

Rationals travel as "p/q" strings (denominator omitted when 1), balls as
{"dim", "vrep", "hrep"}, spaces as {"dim", "ball"}, linear maps as
{"matrix", "domain", "codomain"} where either space may be a named
reference into a file-level "spaces" table.  Writing is canonical: keys
sorted, two-space indent, one trailing newline, so equal values produce
byte-equal files.
"""

from __future__ import annotations

import itertools
import json
from contextlib import contextmanager
from typing import Optional

from .banach import LinMap, Space, is_isometric, operator_norm
from .errors import DimensionMismatch, ParseError, PolybanError, VerificationError
from .exactlin import _TOO_LONG, QMat, QVec, rat, rat_str
from .fraisse import Chain, ChainStage, LogEntry, pad_map
from .polytope import Ball


def vec_from_json(obj, dim: Optional[int] = None) -> QVec:
    if not isinstance(obj, list):
        raise ParseError(f"expected a vector list, got {obj!r}")
    vec = QVec(tuple(rat(v) for v in obj))
    if dim is not None and vec.dim != dim:
        raise DimensionMismatch(f"vector has dim {vec.dim}, expected {dim}")
    return vec


def vec_to_json(vec: QVec) -> list:
    return [rat_str(v) for v in vec.entries]


def mat_from_json(obj, rows: int, cols: int) -> QMat:
    if not isinstance(obj, list):
        raise ParseError(f"expected a matrix list, got {obj!r}")
    if len(obj) != rows:
        raise DimensionMismatch(f"matrix has {len(obj)} rows, expected {rows}")
    # Each row has been parsed and measured by vec_from_json.
    return QMat(tuple(vec_from_json(row, cols).entries for row in obj), (rows, cols))


def mat_to_json(mat: QMat) -> list:
    return [[rat_str(v) for v in row] for row in mat.entries]


def _dim_from_json(obj, what: str) -> int:
    if not isinstance(obj, dict) or "dim" not in obj:
        raise ParseError(f"{what} object needs a dim field")
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise ParseError(f"{what} dim must be a nonnegative integer, got {dim!r}")
    return dim


def ball_from_json(obj) -> Ball:
    dim = _dim_from_json(obj, "ball")
    vrep = obj.get("vrep")
    hrep = obj.get("hrep")
    if vrep is None and hrep is None and dim > 0:
        raise ParseError("ball needs a vrep or an hrep")

    def parse_side(name, side):
        if side is None:
            return None
        if not isinstance(side, list):
            raise ParseError(f"ball {name} must be a list of vectors, got {side!r}")
        return tuple(vec_from_json(v, dim) for v in side)

    return Ball(dim, parse_side("vrep", vrep), parse_side("hrep", hrep))


def ball_to_json(ball: Ball) -> dict:
    doc = {"dim": ball.dim}
    if ball.vrep is not None:
        doc["vrep"] = [vec_to_json(v) for v in ball.vrep]
    if ball.hrep is not None:
        doc["hrep"] = [vec_to_json(v) for v in ball.hrep]
    return doc


def space_from_json(obj) -> Space:
    if not isinstance(obj, dict) or "ball" not in obj or "dim" not in obj:
        raise ParseError("space object needs dim and ball fields")
    dim = _dim_from_json(obj, "space")
    ball = ball_from_json(obj["ball"])
    if ball.dim != dim:
        raise DimensionMismatch("space dim disagrees with its ball")
    return Space(dim, ball)


def space_to_json(space: Space) -> dict:
    return {"dim": space.dim, "ball": ball_to_json(space.ball)}


def resolve_space(obj, table: dict) -> Space:
    if isinstance(obj, str):
        if obj not in table:
            raise ParseError(f"unknown space reference {obj!r}")
        return table[obj]
    return space_from_json(obj)


def spaces_table_from_json(doc: dict) -> dict:
    table = {}
    raw = doc.get("spaces", {})
    if not isinstance(raw, dict):
        raise ParseError("spaces table must be an object")
    for name, obj in raw.items():
        table[name] = space_from_json(obj)
    return table


def linmap_from_json(obj, table: Optional[dict] = None) -> LinMap:
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise ParseError("map object needs matrix, domain, codomain fields")
    table = table or {}
    domain = resolve_space(require_field(obj, "domain", "map object"), table)
    codomain = resolve_space(require_field(obj, "codomain", "map object"), table)
    matrix = mat_from_json(obj["matrix"], codomain.dim, domain.dim)
    return LinMap(matrix, domain, codomain)


def linmap_to_json(m: LinMap) -> dict:
    return {
        "matrix": mat_to_json(m.matrix),
        "domain": space_to_json(m.domain),
        "codomain": space_to_json(m.codomain),
    }


def chain_to_json(chain: Chain) -> dict:
    stages = []
    for stage, entry in zip(chain.stages, (None,) + chain.log):
        U = space_to_json(stage.U)
        stages.append(
            {
                "U": U,
                # A dict shared by siblings encodes twice, with equal bytes.
                "V": U if stage.V is stage.U else space_to_json(stage.V),
                "F": mat_to_json(stage.F.matrix),
                "log": None
                if entry is None
                else {"task": entry.task, "verdict": entry.verdict},
            }
        )
    return {"dim_cap": chain.dim_cap, "seed": chain.seed, "stages": stages}


def require_field(doc, name: str, what: str = "input document"):
    """doc[name], or a ParseError naming the missing field."""
    if not isinstance(doc, dict) or name not in doc:
        raise ParseError(f"{what} is missing the {name!r} field")
    return doc[name]


@contextmanager
def _labelled(label: str):
    """Prefix an input error raised in the block with the label.  A
    VerificationError is an internal fault, not bad input, and passes as is."""
    try:
        yield
    except VerificationError:
        raise
    except PolybanError as exc:
        raise type(exc)(f"{label}: {exc}") from exc


def _check_growth(prev: ChainStage, stage: ChainStage) -> None:
    """A stage's spaces hold the previous stage's as leading coordinates."""
    for small, big in ((prev.U.dim, stage.U.dim), (prev.V.dim, stage.V.dim)):
        if small > big:
            raise ParseError(f"cannot pad dimension {small} into dimension {big}")


def _check_norm(stage: ChainStage) -> None:
    norm_f = operator_norm(stage.F)
    if norm_f > 1:
        raise ParseError(f"stage operator has norm {norm_f} > 1")


def _verify_stage(prev: ChainStage, stage: ChainStage) -> None:
    """Full check of a loaded stage against its predecessor, along the
    coordinate pads of its spaces.  A chain file is outside input, so a
    failed check rejects it as a ParseError.

    The pads are ``[I; 0]``, so ``F pad_U == pad_V F_prev`` says that the
    leading ``V_prev.dim x U_prev.dim`` block of F is F_prev and that the
    rows of F below it vanish in those columns.  When both stages have
    V is U, the V pad is the U pad and is checked once.
    """
    _check_norm(stage)
    block = [row[: prev.U.dim] for row in stage.F.matrix.entries]
    top, below = block[: prev.V.dim], block[prev.V.dim :]
    if top != list(prev.F.matrix.entries) or any(x for row in below for x in row):
        raise ParseError("stage does not extend the previous operator")
    if not is_isometric(pad_map(prev.U, stage.U)) or (
        (stage.V is not stage.U or prev.V is not prev.U)
        and not is_isometric(pad_map(prev.V, stage.V))
    ):
        raise ParseError("stage inclusion lost isometry")


def _same_json(a, b) -> bool:
    """a == b as parsed JSON with every type kept apart: true is not 1, and
    1 is neither 1.0 nor "1"."""
    return a == b and _same_numbers(a, b)


def _same_numbers(a, b) -> bool:
    """For a == b: whether each number in a has the type of b's there.
    Numbers are the only JSON values equal across types."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return all(_same_numbers(value, b[key]) for key, value in a.items())
    if not isinstance(a, list):
        return True
    flat = itertools.chain.from_iterable
    if set(map(type, a)) == {list}:
        # Since a == b, the rows have equal lengths: compare their entries.
        a, b = list(flat(a)), flat(b)
    if set(map(type, a)).isdisjoint((bool, int, float, list, dict)):
        return True
    return all(map(_same_numbers, a, b))


def chain_from_json(obj, verify: bool = True) -> Chain:
    """Rebuild a chain; with verify, every stage is checked in full.  A stage
    whose spaces shrink is rejected either way.

    From stage 1 on, a record whose U, V and F equal the previous record's,
    as JSON and type for type, is the previous stage: the same ChainStage
    object is appended, with no second parse or check.  Its checks follow
    from the previous stage's: F is the same, the pads are identities, and
    F's norm was checked with the previous stage (with verify, stage 0's
    norm is checked too).  Likewise a U or V equal to the previous record's
    is the previous stage's space, and a V equal to its own record's U is
    that U.  Every record's log entry is parsed and checked.
    """
    if not isinstance(obj, dict) or "stages" not in obj:
        raise ParseError("chain object needs a stages list")
    dim_cap = obj.get("dim_cap")
    seed = obj.get("seed")
    for name, value in (("dim_cap", dim_cap), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParseError(f"chain {name} must be an integer")
    if dim_cap < 0:
        raise ParseError("chain dim_cap must be >= 0")
    raw_stages = obj["stages"]
    if not isinstance(raw_stages, list) or not raw_stages:
        raise ParseError("chain needs a stages list with at least stage 0")
    stages: list[ChainStage] = []
    log: list[LogEntry] = []
    docs: list = [None, None, None]
    for idx, record in enumerate(raw_stages):
        what = f"chain stage {idx}"
        prev_docs, docs = docs, [require_field(record, k, what) for k in ("U", "V", "F")]
        same = [idx > 0 and _same_json(new, old) for new, old in zip(docs, prev_docs)]
        if all(same):
            stage = stages[-1]
        else:
            with _labelled(what):
                U = stages[-1].U if same[0] else space_from_json(docs[0])
                if same[1]:
                    V = stages[-1].V
                elif _same_json(docs[1], docs[0]):
                    V = U
                else:
                    V = space_from_json(docs[1])
                stage = ChainStage(U, V, LinMap(mat_from_json(docs[2], V.dim, U.dim), U, V))
                if idx > 0:
                    _check_growth(stages[-1], stage)
                    if verify:
                        _verify_stage(stages[-1], stage)
                elif verify:
                    _check_norm(stage)
        stages.append(stage)
        entry = record.get("log")
        if idx > 0:
            if not isinstance(entry, dict):
                raise ParseError(f"stage {idx} is missing its log entry")
            what = f"log entry of stage {idx}"
            task = require_field(entry, "task", what)
            verdict = require_field(entry, "verdict", what)
            log.append(LogEntry(str(task), str(verdict)))
    return Chain(tuple(stages), tuple(log), dim_cap, seed)


def dumps_canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def save_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_canonical(doc))


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:
        # json reports every other fault as a JSONDecodeError.
        raise ParseError(f"{path}: {_TOO_LONG}") from exc
