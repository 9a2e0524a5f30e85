import json
import pathlib

import numpy as np
import pytest

from convalg.cli import run

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def read(path):
    return json.loads(pathlib.Path(path).read_text(encoding="utf-8"))


class TestClassifyConv:
    def test_bundled_transform_fixture(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run(["classify-conv", "--input", str(FIXTURES / "dft_n8.json"),
                    "--output", str(out)])
        assert code == 0
        rep = read(out)
        assert rep["error"] is None
        assert len(rep["result"]["support"]) == 8
        assert rep["result"]["sigma"] == [[e, e] for e in range(8)]
        assert rep["config"]["command"] == "classify-conv"

    def test_identity_fixture_rejected_with_witness(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run(["classify-conv", "--input", str(FIXTURES / "identity_n4.json"),
                    "--output", str(out)])
        assert code == 1
        rep = read(out)
        assert rep["result"] is None
        assert rep["error"]["type"] == "AxiomViolation"
        assert rep["error"]["details"]["report"]["witness"] is not None

    def test_n_validation(self, tmp_path):
        code = run(["classify-conv", "--input", str(FIXTURES / "dft_n8.json"),
                    "--n", "4", "--output", str(tmp_path / "r.json")])
        assert code == 2


class TestCheckAxioms:
    def test_basis_mode(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["check-axioms", "--input", str(FIXTURES / "dft_n8.json"),
                    "--output", str(out)]) == 0
        rep = read(out)
        assert rep["result"]["passed"] is True
        assert rep["result"]["max_residual"] <= 1e-10

    def test_sampled_mode(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["check-axioms", "--input", str(FIXTURES / "dft_n8.json"),
                    "--mode", "sampled", "--samples", "8", "--seed", "3",
                    "--output", str(out)]) == 0

    def test_failing_operator_exits_one(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run(["check-axioms", "--input", str(FIXTURES / "identity_n4.json"),
                    "--output", str(out)])
        assert code == 1
        assert read(out)["result"]["witness"] is not None


class TestConstructPipeline:
    def test_conv_params_to_operator_to_classification(self, tmp_path):
        op_path = tmp_path / "op.json"
        assert run(["construct", "--input", str(FIXTURES / "conv_params_n6.json"),
                    "--output", str(op_path)]) == 0
        rep_path = tmp_path / "rep.json"
        assert run(["classify-conv", "--input", str(op_path),
                    "--output", str(rep_path)]) == 0
        rep = read(rep_path)
        assert rep["result"]["support"] == [0, 3]
        assert rep["result"]["sigma"] == [[0, 2], [3, 2]]

    def test_intertwiner_params_roundtrip(self, tmp_path):
        op_path = tmp_path / "op.json"
        assert run(["construct",
                    "--input", str(FIXTURES / "intertwiner_params_n8.json"),
                    "--output", str(op_path)]) == 0
        rep_path = tmp_path / "rep.json"
        assert run(["classify-intertwiner", "--input", str(op_path),
                    "--output", str(rep_path)]) == 0
        result = read(rep_path)["result"]
        assert (result["k0"], result["m0"], result["m1"]) == (3, 2, 5)
        assert result["c"] == [2.0, -1.0]


class TestClassifyExchange:
    def test_identity_table_direct(self, tmp_path):
        op = {"schema": 1, "group": [5],
              "columns": [[[1.0, 0.0] if i == k else [0.0, 0.0]
                           for i in range(5)] for k in range(5)]}
        p = tmp_path / "op.json"
        p.write_text(json.dumps(op))
        out = tmp_path / "rep.json"
        assert run(["classify-exchange", "--input", str(p),
                    "--output", str(out)]) == 0
        assert read(out)["result"] == {"conjugate": False, "eta": 1,
                                       "residual": 0.0, "variant": "direct"}

    def test_transform_table_fourier_variant(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["classify-exchange", "--input", str(FIXTURES / "dft_n8.json"),
                    "--variant", "fourier", "--output", str(out)]) == 0
        rep = read(out)
        assert rep["result"]["eta"] == 1
        assert rep["result"]["variant"] == "fourier"

    def test_rejection_reports_step_error(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run(["classify-exchange", "--input", str(FIXTURES / "dft_n8.json"),
                    "--output", str(out)])
        assert code == 1
        assert read(out)["error"]["type"] == "FixedPointViolation"


class TestClassifyIntertwiner:
    def test_vanishing_entry_surfaces_verbatim(self, tmp_path):
        op_path = tmp_path / "op.json"
        run(["construct", "--input", str(FIXTURES / "intertwiner_params_n8.json"),
             "--output", str(op_path)])
        doc = read(op_path)
        doc["columns"][6][4] = [0.0, 0.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "rep.json"
        assert run(["classify-intertwiner", "--input", str(bad),
                    "--output", str(out)]) == 1
        err = read(out)["error"]
        assert err["type"] == "EntryVanishes"
        assert err["details"] == {"j": 6, "ell": 4}


class TestClassifyTorus:
    def test_bundled_family(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["classify-torus",
                    "--input", str(FIXTURES / "fourier_torus_m64_n8.json"),
                    "--output", str(out)]) == 0
        rep = read(out)
        assert rep["result"]["support"] == list(range(-8, 9))
        assert rep["result"]["freq_map"] == [[xi, xi] for xi in range(-8, 9)]


class TestVerifyTwisted:
    def test_bundled_gaussian_fixture(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run(["verify-twisted",
                    "--input", str(FIXTURES / "gaussian_pair_s64.json"),
                    "--output", str(out)])
        assert code == 0
        rep = read(out)
        assert rep["result"]["relative_error"] <= 5e-2
        assert rep["result"]["phases_resolved"] is True

    def test_synthesized_grid(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["verify-twisted", "--grid-S", "32", "--grid-L", "2.5",
                    "--output", str(out)]) == 0
        rep = read(out)
        assert rep["config"]["grid_S"] == 32
        assert rep["result"]["relative_error"] <= 5e-2

    def test_tolerance_gate(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run(["verify-twisted", "--grid-S", "16", "--grid-L", "4.0",
                    "--tol", "1e-12", "--output", str(out)])
        assert code == 1


class TestErrorHandling:
    def test_missing_file(self):
        assert run(["classify-conv", "--input", "/does/not/exist.json"]) == 2

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert run(["classify-conv", "--input", str(p)]) == 2

    def test_schema_violation(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema": 1, "group": [2]}))
        assert run(["classify-conv", "--input", str(p)]) == 2

    def test_unknown_field(self, tmp_path):
        doc = read(FIXTURES / "dft_n8.json")
        doc["comment"] = "hello"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert run(["classify-conv", "--input", str(p)]) == 2

    def test_nonpositive_tol(self):
        assert run(["classify-conv", "--input", str(FIXTURES / "dft_n8.json"),
                    "--tol", "0"]) == 2

    @pytest.mark.parametrize("command, fixture, literal", [
        ("check-axioms", "identity_n4.json", "NaN"),
        ("classify-torus", "fourier_torus_m64_n8.json", "Infinity"),
        ("classify-torus", "fourier_torus_m64_n8.json", "1e999"),
        pytest.param("check-axioms", "identity_n4.json", "1" + "0" * 400,
                     id="check-axioms-identity_n4.json-401-digit-int"),
    ])
    def test_nonfinite_entry(self, tmp_path, capsys, command, fixture, literal):
        doc = read(FIXTURES / fixture)
        values = doc["columns"][0] if "columns" in doc else doc["kernels"][0][1]
        values[1] = "entry"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc).replace('"entry"', f"[{literal}, 0.0]"))
        assert run([command, "--input", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("literal", ["1e999", "1" + "0" * 400],
                             ids=["1e999", "401-digit-int"])
    def test_out_of_range_half_width(self, tmp_path, capsys, literal):
        doc = read(FIXTURES / "gaussian_pair_s64.json")
        doc["f"]["L"] = "half-width"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc).replace('"half-width"', literal))
        assert run(["verify-twisted", "--input", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "different grids" not in err

    @pytest.mark.filterwarnings("error")    # rejected before any arithmetic
    def test_infinite_grid_half_width(self, capsys):
        assert run(["verify-twisted", "--grid-S", "16", "--grid-L", "1e999"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "half width" in err

    @pytest.mark.parametrize("command", ["check-axioms", "classify-conv"])
    @pytest.mark.parametrize("doc", ["group-1", "identity_n4.json"])
    def test_overflowing_entry(self, tmp_path, capsys, command, doc):
        # 1e300 is finite, but its products overflow to a NaN residual,
        # which no report may carry
        if doc == "group-1":
            op = {"schema": 1, "group": [1], "columns": [[[1e300, 0.0]]]}
        else:
            op = read(FIXTURES / doc)
            op["columns"][0][1] = [1e300, 0.0]
        p = tmp_path / "big.json"
        p.write_text(json.dumps(op))
        assert run([command, "--input", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.strip().splitlines()) == 1

    def test_unwritable_output(self, tmp_path, capsys):
        out = tmp_path / "missing" / "rep.json"
        assert run(["classify-conv", "--input", str(FIXTURES / "dft_n8.json"),
                    "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert not out.parent.exists()


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        out = tmp_path / "rep.json"
        argv = ["classify-conv", "--input", str(FIXTURES / "dft_n8.json"),
                "--seed", "7", "--output", str(out)]
        assert run(argv) == 0
        first = out.read_bytes()
        assert run(argv) == 0
        assert out.read_bytes() == first

    def test_config_embedded_verbatim(self, tmp_path):
        out = tmp_path / "rep.json"
        run(["check-axioms", "--input", str(FIXTURES / "dft_n8.json"),
             "--mode", "sampled", "--samples", "5", "--seed", "11",
             "--tol", "1e-8", "--output", str(out)])
        cfg = read(out)["config"]
        assert cfg["mode"] == "sampled"
        assert cfg["samples"] == 5
        assert cfg["seed"] == 11
        assert cfg["tol"] == 1e-8


class TestUnitaryFlag:
    def test_scales_loaded_operator(self, tmp_path):
        # the unitary rescale breaks the multiplicative axiom for n > 1
        out = tmp_path / "rep.json"
        code = run(["check-axioms", "--input", str(FIXTURES / "dft_n8.json"),
                    "--unitary", "--output", str(out)])
        assert code == 1
        rep = read(out)
        assert rep["config"]["unitary"] is True
        assert rep["result"]["passed"] is False
