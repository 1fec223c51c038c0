"""Command line front-end: one canonical report per verb, exit status
mirroring the exact verdicts, annotated rejection of bad inputs."""

import argparse
import json
import subprocess
import sys

import pytest

from polyban.banach import LinMap, l1_space, line, zero_space
from polyban.cli import build_parser, main
from polyban.errors import VerificationError
from polyban.exactlin import QMat, QVec, rat, rat_str
from polyban.fraisse import build_chain
from polyban.io import (
    chain_from_json,
    dumps_canonical,
    linmap_to_json,
    load_json,
    mat_to_json,
    save_json,
)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert main(
        [
            "chain-build",
            "--stages",
            "8",
            "--dim-cap",
            "6",
            "--seed",
            "1",
            "--out",
            str(root / "chain.json"),
        ]
    ) == 0
    assert main(
        [
            "chain-build",
            "--stages",
            "3",
            "--dim-cap",
            "6",
            "--seed",
            "2",
            "--out",
            str(root / "small_a.json"),
        ]
    ) == 0
    assert main(
        [
            "chain-build",
            "--stages",
            "3",
            "--dim-cap",
            "6",
            "--seed",
            "3",
            "--out",
            str(root / "small_b.json"),
        ]
    ) == 0
    return root


def planted_failure(*args, **kwargs):
    raise VerificationError("planted failure")


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestOpNorm:
    def test_identity_reports_norm_one(self, tmp_path, capsys):
        ident = LinMap(QMat.identity(2), l1_space(2), l1_space(2))
        path = tmp_path / "ident.json"
        save_json(str(path), linmap_to_json(ident))
        code, doc = run_json(capsys, ["op-norm", str(path)])
        assert code == 0
        assert doc["norm"] == "1"
        assert doc["verdict"] == "pass"

    def test_report_written_canonically(self, tmp_path):
        ident = LinMap(QMat.identity(1), line(), line())
        path = tmp_path / "m.json"
        out = tmp_path / "report.json"
        save_json(str(path), linmap_to_json(ident))
        assert main(["op-norm", str(path), "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text == dumps_canonical(load_json(str(out)))


class TestSpaceCheck:
    def test_bare_ball_accepted(self, tmp_path, capsys):
        path = tmp_path / "ball.json"
        save_json(
            str(path), {"dim": 2, "hrep": [["1", "0"], ["0", "1"], ["1", "1"]]}
        )
        code, doc = run_json(capsys, ["space-check", str(path)])
        assert code == 0
        assert doc["verdict"] == "pass"
        assert ["1", "-1"] in doc["space"]["ball"]["vrep"]

    def test_degenerate_ball_rejected(self, tmp_path, capsys):
        path = tmp_path / "flat.json"
        save_json(str(path), {"dim": 2, "vrep": [["1", "0"]]})
        assert main(["space-check", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestAmalgamVerbs:
    def test_correct_line_instance(self, tmp_path, capsys):
        f = LinMap(QMat.identity(1), line(), line())
        path = tmp_path / "f.json"
        save_json(str(path), {"f": linmap_to_json(f)})
        code, doc = run_json(
            capsys, ["amalgam-correct", str(path), "--eps", "1/2"]
        )
        assert code == 0
        assert doc["verdict"] == "pass"
        assert ["2", "-2"] in doc["Z0"]["ball"]["vrep"]

    def test_pushout(self, tmp_path, capsys):
        i = LinMap(QMat.from_rows([[1], [0]]), line(), l1_space(2))
        f = LinMap(QMat.identity(1), line(), line())
        path = tmp_path / "po.json"
        save_json(str(path), {"i": linmap_to_json(i), "f": linmap_to_json(f)})
        code, doc = run_json(capsys, ["amalgam-pushout", str(path)])
        assert code == 0
        assert doc["verdict"] == "pass"
        assert doc["W"]["dim"] == 2

    def test_square_sum(self, tmp_path, capsys):
        ident = LinMap(QMat.identity(1), line(), line())
        half = LinMap(QMat.from_rows([["1/2"]]), line(), line())
        path = tmp_path / "sq.json"
        save_json(
            str(path),
            {
                "T0": linmap_to_json(ident),
                "T1": linmap_to_json(ident),
                "f0": linmap_to_json(half),
                "f1": linmap_to_json(half),
            },
        )
        code, doc = run_json(
            capsys,
            ["square-sum", str(path), "--eps", "1", "--delta", "1/8"],
        )
        assert code == 0
        assert doc["verdict"] == "pass"


class TestRepair:
    def test_expansive_scalar(self, tmp_path, capsys):
        T = LinMap(QMat.from_rows([["5/4"]]), line(), line())
        empty = zero_space()
        pin = LinMap(QMat.zeros(1, 0), empty, line())
        path = tmp_path / "rep.json"
        save_json(
            str(path),
            {
                "T": linmap_to_json(T),
                "i0": linmap_to_json(pin),
                "j0": linmap_to_json(pin),
            },
        )
        code, doc = run_json(capsys, ["repair", str(path), "--delta", "1/8"])
        assert code == 0
        assert doc["verdict"] == "pass"
        assert rat(doc["checks"][0]["computed"]) <= 1


class TestChainBuild:
    def test_runs_are_byte_identical(self, tmp_path):
        args = ["chain-build", "--stages", "6", "--dim-cap", "6", "--seed", "1"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_report_loads_as_chain(self, work):
        doc = load_json(str(work / "chain.json"))
        chain = chain_from_json(doc["chain"])
        assert chain == build_chain(8, dim_cap=6, seed=1)
        assert doc["realized"] >= 1

    def test_negative_stage_count_rejected(self, capsys):
        assert main(["chain-build", "--stages", "-1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_dim_cap_rejected(self, tmp_path, capsys):
        out = tmp_path / "chain.json"
        argv = ["chain-build", "--stages", "3", "--dim-cap", "-1", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: dim_cap must be >= 0\n"
        assert not out.exists()


class TestWitnessVerbs:
    def test_g_witness(self, work, tmp_path, capsys):
        chain = chain_from_json(load_json(str(work / "chain.json"))["chain"])
        n = next(
            i
            for i, st in enumerate(chain.stages)
            if st.U.dim >= 1 and st.V.dim >= 1
        )
        stage = chain.stages[n]
        s = stage.F.matrix.entries[0][0]
        X = l1_space(2)
        T = LinMap(QMat.from_rows([[s, 0], [0, 0]]), X, X)
        incl = LinMap(QMat.from_rows([[1], [0]]), line(), X)
        path = tmp_path / "gw.json"
        save_json(
            str(path),
            {
                "T": linmap_to_json(T),
                "X0incl": linmap_to_json(incl),
                "Y0incl": linmap_to_json(incl),
                "seed": {
                    "stage": n,
                    "S": [[str(s)]],
                    "i0": mat_to_json(
                        QMat.from_cols([QVec.unit(stage.U.dim, 0)], rows=stage.U.dim)
                    ),
                    "i1": mat_to_json(
                        QMat.from_cols([QVec.unit(stage.V.dim, 0)], rows=stage.V.dim)
                    ),
                },
            },
        )
        code, doc = run_json(
            capsys,
            ["g-witness", str(work / "chain.json"), str(path), "--eps", "1/4"],
        )
        assert code == 0
        assert doc["verdict"] == "pass"
        assert doc["stage"] == len(chain.stages)

    def test_surject(self, work, tmp_path, capsys):
        path = tmp_path / "v.json"
        save_json(str(path), {"v": ["1", "-1/2"]})
        code, doc = run_json(
            capsys, ["surject", str(work / "chain.json"), str(path)]
        )
        assert code == 0
        assert doc["verdict"] == "pass"
        extended = chain_from_json(doc["chain"])
        u = QVec.of([rat(x) for x in doc["u"]])
        stage = extended.stages[doc["stage"]]
        image = stage.F.matrix.apply(u)
        assert image.entries[:2] == (rat("1"), rat("-1/2"))
        assert all(x == 0 for x in image.entries[2:])

    def test_kernel(self, work, tmp_path, capsys):
        chain = chain_from_json(load_json(str(work / "chain.json"))["chain"])
        found = None
        for idx, stage in enumerate(chain.stages):
            for col in range(stage.U.dim):
                if all(
                    stage.F.matrix.entries[row][col] == 0
                    for row in range(stage.V.dim)
                ):
                    found = (idx, col)
                    break
            if found:
                break
        assert found is not None
        idx, col = found
        stage = chain.stages[idx]
        i = LinMap(
            QMat.from_cols([QVec.unit(stage.U.dim, col)], rows=stage.U.dim),
            line(),
            stage.U,
        )
        ident = LinMap(QMat.identity(1), line(), line())
        path = tmp_path / "k.json"
        save_json(
            str(path), {"X0incl": linmap_to_json(ident), "i": linmap_to_json(i)}
        )
        code, doc = run_json(
            capsys,
            ["kernel", str(work / "chain.json"), str(path), "--eps", "1/4"],
        )
        assert code == 0
        assert doc["verdict"] == "pass"

    def test_embed(self, work, tmp_path, capsys):
        J = LinMap(QMat.from_rows([[0, 1], [0, 0]]), l1_space(2), l1_space(2))
        path = tmp_path / "jordan.json"
        save_json(str(path), {"T": linmap_to_json(J)})
        code, doc = run_json(
            capsys,
            ["embed", str(work / "small_a.json"), str(path), "--depth", "3"],
        )
        assert code == 0
        assert doc["verdict"] == "pass"
        assert len(doc["squares"]) == 4

    def test_bnf(self, work, tmp_path, capsys):
        path = tmp_path / "seed.json"
        save_json(str(path), {"stage_a": 0, "stage_b": 0, "i0": [], "i1": []})
        code, doc = run_json(
            capsys,
            [
                "bnf",
                str(work / "small_a.json"),
                str(work / "small_b.json"),
                str(path),
                "--eps",
                "1/2",
                "--depth",
                "2",
            ],
        )
        assert code == 0
        assert doc["verdict"] == "pass"
        assert len(doc["k_squares"]) == 3
        assert len(doc["l_squares"]) == 2
        assert sum(rat(e) for e in doc["etas"]) < 1


class TestShippedInstances:
    def test_witness_files_run_against_their_chain(self, tmp_path, capsys):
        import pathlib

        data = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"
        chain = tmp_path / "chain.json"
        assert main(
            [
                "chain-build",
                "--stages",
                "8",
                "--dim-cap",
                "6",
                "--seed",
                "1",
                "--out",
                str(chain),
            ]
        ) == 0
        for verb, name, extra in (
            ("g-witness", "extension_witness.json", ["--eps", "1/4"]),
            ("kernel", "kernel_seed.json", ["--eps", "1/4"]),
            ("surject", "target_vector.json", []),
        ):
            code, doc = run_json(
                capsys, [verb, str(chain), str(data / name)] + extra
            )
            assert code == 0, (verb, name)
            assert doc["verdict"] == "pass"


def expansive_operator(stage):
    stage["F"][0][0] = "5"


def zero_denominator(stage):
    stage["F"][0][0] = "3/0"


def doubled_domain_vrep(stage):
    ball = stage["U"]["ball"]
    ball["vrep"] = [[rat_str(2 * rat(x)) for x in v] for v in ball["vrep"]]


def shrunk_domain_ball(stage):
    ball = stage["U"]["ball"]
    ball["vrep"] = [[rat_str(2 * rat(x)) for x in v] for v in ball["vrep"]]
    ball["hrep"] = [[rat_str(rat(x) / 2) for x in v] for v in ball["hrep"]]


class TestErrorPaths:
    def test_malformed_json_is_position_annotated(self, work, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"v": [1,,]}', encoding="utf-8")
        assert main(["surject", str(work / "chain.json"), str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad.json:1:" in err

    def test_zero_denominator_named(self, work, tmp_path, capsys):
        path = tmp_path / "v.json"
        save_json(str(path), {"v": ["3/0"]})
        assert main(["surject", str(work / "chain.json"), str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: not a rational: '3/0'\n"

    def test_dim_cap_flag_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["amalgam-pushout", str(tmp_path / "unused.json"), "--dim-cap", "3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "--dim-cap" in err
        assert "Traceback" not in err

    def test_only_chain_build_takes_a_dim_cap(self):
        (sub,) = (
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        with_cap = [
            verb
            for verb, parser in sub.choices.items()
            if any("--dim-cap" in a.option_strings for a in parser._actions)
        ]
        assert with_cap == ["chain-build"]

    def test_exponent_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["amalgam-correct", "unused.json", "--eps", "1e3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--eps" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "verb, doc, named",
        [
            ("op-norm", {"map": {"matrix": [["1"]]}}, "'domain'"),
            (
                "op-norm",
                {"map": {"matrix": [["1"]], "domain": {"dim": 1, "ball": {"dim": 1, "vrep": [["1"]]}}}},
                "'codomain'",
            ),
            ("space-check", {"dim": 2, "vrep": 5}, "vrep"),
            ("space-check", {"dim": 2, "hrep": "1, 0"}, "hrep"),
        ],
        ids=["map-without-domain", "map-without-codomain", "vrep-not-a-list", "hrep-not-a-list"],
    )
    def test_malformed_document_shape_named(self, tmp_path, capsys, verb, doc, named):
        path = tmp_path / "input.json"
        save_json(str(path), doc)
        assert main([verb, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[" * 200000, "input.json: JSON nested too deeply"),
            ('{"dim": 1, "vrep": [[' + "7" * 5000 + "]]}", "input.json: an integer of more than"),
            ('{"dim": 1, "vrep": [["1/' + "7" * 5000 + '"]]}', "not a rational: an integer of more than"),
        ],
        ids=["deep-nesting", "long-json-number", "long-rational-string"],
    )
    def test_interpreter_limits_are_input_errors(self, tmp_path, capsys, text, named):
        path = tmp_path / "input.json"
        path.write_text(text, encoding="utf-8")
        assert main(["space-check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err

    def test_missing_field_named(self, work, tmp_path, capsys):
        path = tmp_path / "empty.json"
        save_json(str(path), {})
        assert main(["surject", str(work / "chain.json"), str(path)]) == 2
        assert "'v'" in capsys.readouterr().err

    def surject_with_chain(self, work, tmp_path, capsys, tamper, index=1):
        """surject's stderr and chain path, after tamper edits one stage."""
        doc = load_json(str(work / "chain.json"))
        tamper(doc["chain"]["stages"][index])
        chain = tmp_path / "chain.json"
        save_json(str(chain), doc)
        target = tmp_path / "v.json"
        save_json(str(target), {"v": ["1"]})
        assert main(["surject", str(chain), str(target)]) == 2
        return capsys.readouterr().err, chain

    def test_chain_stage_without_space_named(self, work, tmp_path, capsys):
        err, _ = self.surject_with_chain(
            work, tmp_path, capsys, lambda stage: stage.pop("U")
        )
        assert "chain stage 1 is missing the 'U' field" in err

    def test_log_entry_without_task_named(self, work, tmp_path, capsys):
        err, _ = self.surject_with_chain(
            work, tmp_path, capsys, lambda stage: stage["log"].pop("task")
        )
        assert "log entry of stage 1 is missing the 'task' field" in err

    @pytest.mark.parametrize(
        "tamper, index, message",
        [
            (expansive_operator, 3, "chain stage 3: stage operator has norm 5 > 1"),
            (shrunk_domain_ball, 5, "chain stage 5: stage inclusion lost isometry"),
            (zero_denominator, 3, "chain stage 3: not a rational: '3/0'"),
            (doubled_domain_vrep, 5, "chain stage 5: vrep point violates declared hrep"),
        ],
        ids=[
            "expansive-operator",
            "shrunk-domain-ball",
            "zero-denominator",
            "doubled-domain-vrep",
        ],
    )
    def test_tampered_chain_is_rejected_input(
        self, work, tmp_path, capsys, tamper, index, message
    ):
        err, chain = self.surject_with_chain(work, tmp_path, capsys, tamper, index)
        assert err == f"error: {chain}: {message}\n"

    @pytest.mark.parametrize("content", [None, b'{"v": ["\xe9"]}'])
    def test_unreadable_input_path_named(self, work, tmp_path, capsys, content):
        path = tmp_path / "input.json"
        if content is not None:
            path.write_bytes(content)
        assert main(["surject", str(work / "chain.json"), str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize(
        "target, planted, argv, message",
        [
            (
                "polyban.cli.pushout",
                planted_failure,
                ["amalgam-pushout", "pushout_pair.json"],
                "planted failure",
            ),
            # correction_sum certifies the leg isometry that it reports.  jY is
            # isometric for every nonexpansive f, so its failure is internal;
            # it is the leg whose leading (X-block) rows are zero.
            (
                "polyban.amalgam.is_isometric",
                lambda T: not T.matrix.row(0).is_zero(),
                ["amalgam-correct", "line_correction.json", "--eps", "1/2"],
                "jY is isometric: claimed true, computed false",
            ),
        ],
        ids=["pushout", "correction-sum"],
    )
    def test_internal_verification_failure_exits_one(
        self, monkeypatch, capsys, tmp_path, target, planted, argv, message
    ):
        import pathlib

        monkeypatch.setattr(target, planted)
        data = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"
        out = tmp_path / "report.json"
        verb, infile, *flags = argv
        assert main([verb, str(data / infile), *flags, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: verification failed: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_correction_precondition_is_input_error(self, tmp_path, capsys):
        """A map that shrinks a vector below 1 - eps of its norm violates
        correction_sum's precondition: exit 2, not a verification failure."""
        import pathlib

        data = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"
        doc = load_json(str(data / "line_correction.json"))
        doc["f"]["matrix"] = [["0"]]
        path = tmp_path / "lc0.json"
        save_json(str(path), doc)
        assert main(["amalgam-correct", str(path), "--eps", "1/2"]) == 2
        assert capsys.readouterr().err == (
            "error: eps 1/2 is too small: f shrinks some vector below 1 - eps "
            "of its norm, so iX is not isometric\n"
        )

    def test_cli_runs_no_checks_of_its_own_on_construction_results(self):
        import polyban.cli

        for name in ("is_isometric", "classify_embedding", "map_distance"):
            assert not hasattr(polyban.cli, name), name

    def test_console_entry_point(self, tmp_path):
        ident = LinMap(QMat.identity(1), line(), line())
        path = tmp_path / "m.json"
        save_json(str(path), linmap_to_json(ident))
        proc = subprocess.run(
            [sys.executable, "-m", "polyban.cli", "op-norm", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["norm"] == "1"
