"""JSON exchange formats: canonical rendering, round trips, rejection paths."""

import pathlib
from fractions import Fraction

import pytest

from polyban.banach import LinMap, l1_space, line, linf_space
from polyban.errors import DimensionMismatch, ParseError
from polyban.exactlin import QMat, QVec
from polyban.fraisse import build_chain
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
