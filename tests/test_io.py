"""JSON exchange formats: canonical rendering, round trips, rejection paths."""

import copy
import hashlib
import json
import pathlib
from fractions import Fraction

import pytest

from polyban.banach import LinMap, l1_space, line, linf_space
from polyban.errors import DimensionMismatch, ParseError
from polyban.exactlin import QMat, QVec
from polyban.fraisse import _extension_task, build_chain, glue_task, step_chain
from polyban.io import (
    ball_from_json,
    ball_to_json,
    chain_from_json,
    chain_to_json,
    dumps_canonical,
    linmap_from_json,
    linmap_to_json,
    load_json,
    mat_from_json,
    space_from_json,
    space_to_json,
    spaces_table_from_json,
    save_json,
    vec_from_json,
    vec_to_json,
)


class TestRational:
    def test_round_trip(self):
        vec = vec_from_json(["-3/4", 5, "7"])
        assert vec.entries == (Fraction(-3, 4), Fraction(5), Fraction(7))
        assert vec_to_json(vec) == ["-3/4", "5", "7"]
        assert vec_from_json(vec_to_json(vec)) == vec


class TestVectorsAndMatrices:
    def test_vector_dim_checked(self):
        with pytest.raises(DimensionMismatch):
            vec_from_json(["1", "2"], dim=3)

    def test_empty_matrix_keeps_shape(self):
        mat = mat_from_json([], rows=0, cols=3)
        assert mat.shape == (0, 3)

    def test_row_count_checked(self):
        with pytest.raises(DimensionMismatch):
            mat_from_json([["1"]], rows=2, cols=1)


class TestBallAndSpace:
    def test_ball_round_trip(self):
        space = linf_space(2)
        doc = ball_to_json(space.ball)
        assert ball_from_json(doc) == space.ball

    def test_wrong_dim_vertex_rejected(self):
        with pytest.raises(DimensionMismatch):
            ball_from_json({"dim": 2, "vrep": [["1", "0", "0"]]})

    def test_space_completes_on_load(self):
        doc = {"dim": 2, "ball": {"dim": 2, "vrep": [["1", "0"], ["0", "1"]]}}
        space = space_from_json(doc)
        assert space == l1_space(2)

    def test_space_dim_mismatch_rejected(self):
        doc = {"dim": 3, "ball": ball_to_json(line().ball)}
        with pytest.raises(DimensionMismatch):
            space_from_json(doc)

    def test_missing_reps_rejected(self):
        with pytest.raises(ParseError):
            ball_from_json({"dim": 2})


class TestLinMap:
    def test_inline_round_trip(self):
        T = LinMap(QMat.from_rows([[0, 1], [0, 0]]), l1_space(2), l1_space(2))
        assert linmap_from_json(linmap_to_json(T)) == T

    def test_named_references(self):
        doc = {
            "spaces": {"X": space_to_json(l1_space(2))},
            "map": {"matrix": [["1", "0"], ["0", "1"]], "domain": "X", "codomain": "X"},
        }
        table = spaces_table_from_json(doc)
        T = linmap_from_json(doc["map"], table)
        assert T == LinMap(QMat.identity(2), l1_space(2), l1_space(2))

    def test_unknown_reference_rejected(self):
        with pytest.raises(ParseError):
            linmap_from_json(
                {"matrix": [], "domain": "nope", "codomain": "nope"}, {}
            )

    def test_matrix_shape_checked(self):
        doc = linmap_to_json(LinMap(QMat.identity(1), line(), line()))
        doc["matrix"] = [["1", "0"]]
        with pytest.raises(DimensionMismatch):
            linmap_from_json(doc)


def counting(monkeypatch, module, name):
    """Record the arguments of every call of module.name."""
    real, calls = getattr(module, name), []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestChain:
    def test_round_trip_equality(self):
        chain = build_chain(6, dim_cap=4, seed=1)
        doc = chain_to_json(chain)
        assert chain_from_json(doc) == chain

    def test_round_trip_bytes(self, tmp_path):
        chain = build_chain(5, dim_cap=4, seed=0)
        path = tmp_path / "chain.json"
        save_json(str(path), chain_to_json(chain))
        text = path.read_text(encoding="utf-8")
        reloaded = chain_from_json(load_json(str(path)))
        assert dumps_canonical(chain_to_json(reloaded)) == text

    def test_each_distinct_record_side_completes_once(self, monkeypatch):
        import polyban.banach

        doc = chain_to_json(build_chain(9, dim_cap=6, seed=1))
        calls = counting(monkeypatch, polyban.banach, "complete_representations")
        chain = chain_from_json(doc)
        records = doc["stages"]
        # A U is new when it differs from the previous record's; every V
        # equals its own record's U and is that U.
        changes = [n == 0 or record["U"] != records[n - 1]["U"] for n, record in enumerate(records)]
        assert all(record["V"] == record["U"] for record in records)
        assert len(calls) == sum(changes) == 6
        assert all(stage.V is stage.U for stage in chain.stages)
        # Records 1, 2, 4 and 7 repeat their predecessors; stage 0's norm is
        # checked on load, so stage 1 is reused like any later record.
        reused = [n for n in range(1, 10) if chain.stages[n] is chain.stages[n - 1]]
        assert reused == [1, 2, 4, 7]
        assert chain == build_chain(9, dim_cap=6, seed=1)

    def test_stage_one_equal_to_stage_zero_is_checked(self):
        record = {"U": space_to_json(line()), "V": space_to_json(line()), "F": [["2"]]}
        log = {"task": "task", "verdict": "realized"}
        doc = {"dim_cap": 4, "seed": 0, "stages": [record, dict(record, log=log)]}
        with pytest.raises(ParseError, match=r"^chain stage 0: stage operator has norm 2 > 1$"):
            chain_from_json(doc)

    def test_expansive_stage_zero_is_rejected_with_verify(self):
        record = {"U": space_to_json(line()), "V": space_to_json(line()), "F": [["2"]]}
        doc = {"dim_cap": 4, "seed": 0, "stages": [record]}
        with pytest.raises(ParseError, match=r"^chain stage 0: stage operator has norm 2 > 1$"):
            chain_from_json(doc)
        loaded = chain_from_json(doc, verify=False)
        assert loaded.stages[0].F.matrix.entries == ((Fraction(2),),)

    def test_missing_log_rejected(self):
        doc = chain_to_json(build_chain(2))
        doc["stages"][1].pop("log")
        with pytest.raises(ParseError):
            chain_from_json(doc)

    def test_negative_dim_cap_rejected(self):
        doc = chain_to_json(build_chain(2))
        doc["dim_cap"] = -1
        with pytest.raises(ParseError, match="dim_cap must be >= 0"):
            chain_from_json(doc)

    def test_tampered_operator_rejected(self):
        chain = build_chain(6, dim_cap=4, seed=1)
        doc = chain_to_json(chain)
        last = doc["stages"][-1]
        last["F"] = [["7" for _ in row] for row in last["F"]]
        with pytest.raises(ParseError, match=r"^chain stage 6: stage operator has norm"):
            chain_from_json(doc)

    def test_verify_can_be_skipped(self):
        chain = build_chain(4, dim_cap=4, seed=1)
        doc = chain_to_json(chain)
        assert chain_from_json(doc, verify=False) == chain

    @pytest.mark.parametrize("verify", [True, False])
    def test_shrinking_stage_rejected_in_both_modes(self, verify):
        doc = chain_to_json(build_chain(6, dim_cap=4, seed=0))
        assert [s["U"]["dim"] for s in doc["stages"]][3:5] == [1, 1]
        zero = {"ball": {"dim": 0, "hrep": [], "vrep": []}, "dim": 0}
        doc["stages"][4].update(U=zero, V=zero, F=[])
        with pytest.raises(
            ParseError, match=r"^chain stage 4: cannot pad dimension 1 into dimension 0$"
        ):
            chain_from_json(doc, verify=verify)


def asymmetric_chain():
    """build_chain(3, 4, 0), then an extension task that grows U alone and a
    glue task that grows both sides: stages 4 and 5 have U != V."""
    chain = build_chain(3, 4, 0)
    chain = step_chain(chain, _extension_task(chain.stages[-1], 3, 0, Fraction(1, 2)))
    chain = step_chain(chain, glue_task(Fraction(1, 2)))
    assert [(s.U.dim, s.V.dim) for s in chain.stages[3:]] == [(1, 1), (2, 1), (3, 2)]
    return chain


class TestSymmetricRecords:
    def test_asymmetric_stages_complete_and_check_both_sides(self, monkeypatch):
        import polyban.banach
        import polyban.io

        chain = asymmetric_chain()
        doc = chain_to_json(chain)
        completed = counting(monkeypatch, polyban.banach, "complete_representations")
        checked = counting(monkeypatch, polyban.io, "is_isometric")
        loaded = chain_from_json(doc)
        assert loaded == chain
        # Stage 0's sides and the U of stage 3 (V is U there); stage 4's U
        # (its V is stage 3's); both sides of stage 5.
        assert [ball.dim for (ball,) in completed] == [0, 1, 2, 3, 2]
        pads = [(m.domain.dim, m.codomain.dim) for (m,) in checked]
        assert pads == [(0, 1), (1, 2), (1, 1), (2, 3), (1, 2)]
        assert [s.V is s.U for s in loaded.stages] == [True] * 4 + [False] * 2

    def test_asymmetric_stage_with_a_non_isometric_v_pad_is_rejected(self):
        doc = chain_to_json(asymmetric_chain())
        # Halve the first coordinate's norm in stage 5's V: F stays
        # nonexpansive and the U pad isometric, but stage 4's V pads in at
        # norm 1/2.
        doc["stages"][5]["V"]["ball"] = {"dim": 2, "hrep": [["1/2", "-1"], ["1/2", "1"]]}
        with pytest.raises(ParseError, match=r"^chain stage 5: stage inclusion lost isometry$"):
            chain_from_json(doc)
        assert chain_from_json(doc, verify=False).stages[5].V.dim == 2

    def test_symmetric_stage_after_an_asymmetric_one_checks_its_v_pad(self):
        half = {"dim": 1, "ball": {"dim": 1, "vrep": [["2"]]}}
        unit = space_to_json(line())
        log = {"task": "task", "verdict": "realized"}
        stages = [{"U": unit, "V": half, "F": [["0"]]}, {"U": unit, "V": unit, "F": [["0"]], "log": log}]
        doc = {"dim_cap": 4, "seed": 0, "stages": stages}
        with pytest.raises(ParseError, match=r"^chain stage 1: stage inclusion lost isometry$"):
            chain_from_json(doc)

    def test_v_differing_from_u_in_one_type_is_parsed_alone(self, monkeypatch):
        import polyban.banach

        doc = chain_to_json(build_chain(4, 4, 0))
        record = doc["stages"][4]
        assert record["U"]["ball"]["vrep"] == [["1"]]
        record["V"] = copy.deepcopy(record["U"])
        record["V"]["ball"]["vrep"] = [[1]]
        completed = counting(monkeypatch, polyban.banach, "complete_representations")
        chain = chain_from_json(doc)
        stage = chain.stages[4]
        assert stage.V == stage.U and stage.V is not stage.U
        assert stage.U is chain.stages[3].U
        assert [ball.dim for (ball,) in completed] == [0, 1, 1]
        assert chain == build_chain(4, 4, 0)

    def test_v_with_true_for_u_integer_is_parsed_and_rejected(self):
        doc = chain_to_json(build_chain(4, 4, 0))
        record = doc["stages"][4]
        record["V"] = dict(record["U"], dim=True)
        with pytest.raises(
            ParseError, match=r"^chain stage 4: space dim must be a nonnegative integer, got True$"
        ):
            chain_from_json(doc)


# The chain files of the two long cap-8 builds, as (stages, length, sha256).
LONG_CHAINS = [
    (30, 990954, "4995d02b72929c365c09c0c48a58fc52f7e5ba5fd6acc8cac9fce6ae1503fe0c"),
    (100, 4590761, "7eb9490b5fd951d0c4eaea4cf4c6eb504bddcd3e469415d6bdf27be7623d8f05"),
]


class TestLongChainBytes:
    @pytest.mark.parametrize("stages, length, digest", LONG_CHAINS, ids=["30", "100"])
    def test_bytes_pinned_and_round_trip(self, stages, length, digest):
        text = dumps_canonical(chain_to_json(build_chain(stages, 8, 1))).encode()
        assert (len(text), hashlib.sha256(text).hexdigest()) == (length, digest)
        reloaded = chain_from_json(json.loads(text))
        assert dumps_canonical(chain_to_json(reloaded)).encode() == text


class TestShippedFiles:
    def test_every_data_file_round_trips_byte_identically(self):
        data = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"
        files = sorted(data.glob("*.json"))
        assert files
        for path in files:
            text = path.read_text(encoding="utf-8")
            assert dumps_canonical(load_json(str(path))) == text, path.name


class TestCanonicalText:
    def test_sorted_keys_and_trailing_newline(self):
        text = dumps_canonical({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n") and not text.endswith("\n\n")

    def test_load_error_is_position_annotated(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "x": [1,,]\n}\n', encoding="utf-8")
        with pytest.raises(ParseError, match=r"bad\.json:2:"):
            load_json(str(path))
