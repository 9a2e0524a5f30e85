import argparse
import json
import math
import pathlib

import numpy as np
import pytest

from convalg import cli, errors, jsonio, torus
from convalg.cli import run
from convalg.groups import Group
from convalg.intertwine import construct_intertwiner
from convalg.operators import AxiomReport

from helpers import CRASH_CASES, edited_fixture

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

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_sampled_count_below_one_rejected(self, tmp_path, capsys, samples):
        out = tmp_path / "rep.json"
        code = run(["check-axioms", "--input", str(FIXTURES / "identity_n4.json"),
                    "--mode", "sampled", "--samples", samples, "--output", str(out)])
        _, err = capsys.readouterr()
        assert code == 2
        assert err == "error: --samples must be >= 1\n"
        assert not out.exists()

    def test_basis_mode_ignores_samples(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run(["check-axioms", "--input", str(FIXTURES / "identity_n4.json"),
                    "--samples", "0", "--output", str(out)])
        assert code == 1
        assert read(out)["result"]["checked"] == 16


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

    @pytest.mark.parametrize("M", [2, 8, 16, 64, 256])
    def test_nyquist_kernel_classifies(self, tmp_path, M):
        # the kernel e^{i pi M x} alternates +1, -1: a = M/2, freq_map -M/2
        x = np.arange(M) / M
        kernel = np.exp(1j * np.pi * M * x)
        family = {"schema": 1, "M": M, "N": 0,
                  "kernels": [[0, [[v.real, v.imag] for v in kernel]]]}
        path, out = tmp_path / "family.json", tmp_path / "rep.json"
        path.write_text(json.dumps(family))
        assert run(["classify-torus", "--input", str(path), "--output", str(out)]) == 0
        assert read(out)["result"]["freq_map"] == [[0, -M // 2]]

    @pytest.mark.parametrize("kind", ["NotUnimodular", "SnapFailure"])
    def test_recovery_rejection_names_its_frequency(self, tmp_path, monkeypatch, kind):
        # the character check is stubbed to pass every kernel, so the one at
        # xi = 1 reaches frequency recovery and fails there; the rejection
        # names xi as an attribute, in details and in the report
        monkeypatch.setattr(torus, "check_character_equation",
                            lambda h, tol: AxiomReport(True, 0.0, tol))
        x = np.arange(64) / 64
        bad = (0.5 * np.exp(6j * np.pi * x) if kind == "NotUnimodular"
               else np.exp(2j * np.pi * np.sin(2 * np.pi * x)))
        kernels = zip((-1, 0, 1), (np.exp(2j * np.pi * x), np.ones(64), bad))
        family = {"schema": 1, "M": 64, "N": 1,
                  "kernels": [[xi, jsonio.pairs(h)] for xi, h in kernels]}
        with pytest.raises(getattr(errors, kind)) as exc:
            torus.classify_torus_operator(jsonio.kernel_family_from_json(family))
        assert exc.value.xi == exc.value.details["xi"] == 1
        path, out = tmp_path / "family.json", tmp_path / "rep.json"
        path.write_text(json.dumps(family))
        assert run(["classify-torus", "--input", str(path), "--output", str(out)]) == 1
        error = read(out)["error"]
        assert error["type"] == kind and error["details"]["xi"] == 1


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

    @pytest.mark.parametrize("literal", ["nan", "inf", "-inf", "1e999"])
    def test_nonfinite_tol_rejected_before_loading(self, capsys, literal):
        # a missing input shows that nothing was loaded
        assert run(["classify-conv", "--input", "/does/not/exist.json",
                    f"--tol={literal}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --tol must be positive and finite\n"

    @pytest.mark.parametrize("argv", [
        ["classify-conv", "--bogus"],
        ["check-axioms", "--mode", "x"],
        ["classify-conv", "--tol", "tiny"],
        [],
        ["classify-torus", "--seed", "4"],
        ["verify-twisted", "--unitary"],
        ["construct", "--tol", "1e-9"],
    ], ids=["unknown-option", "bad-choice", "non-numeric-tol", "missing-command",
            "torus-seed", "twisted-unitary", "construct-tol"])
    def test_usage_error_is_one_line(self, tmp_path, capsys, argv):
        out = tmp_path / "rep.json"
        if argv:
            argv = argv + ["--input", str(FIXTURES / "dft_n8.json"), "--output", str(out)]
        assert run(argv) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not out.exists()

    # every option a command accepted and never read
    @pytest.mark.parametrize("command, option", [
        ("classify-conv", "--seed"), ("classify-intertwiner", "--seed"),
        ("classify-torus", "--n"), ("classify-torus", "--seed"),
        ("classify-torus", "--unitary"), ("verify-twisted", "--n"),
        ("verify-twisted", "--seed"), ("verify-twisted", "--unitary"),
        ("construct", "--tol"), ("construct", "--seed"), ("construct", "--unitary"),
    ])
    def test_unread_option_rejected(self, tmp_path, capsys, command, option):
        out = tmp_path / "rep.json"
        value = [] if option == "--unitary" else ["1"]
        assert run([command, option, *value, "--input", str(FIXTURES / "dft_n8.json"),
                    "--output", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err == f"error: unrecognized arguments: {' '.join([option, *value])}\n"
        assert not out.exists()

    def test_help_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["classify-conv", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: convalg classify-conv")

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
        # which no report may carry; the error names the input
        if doc == "group-1":
            op = {"schema": 1, "group": [1], "columns": [[[1e300, 0.0]]]}
        else:
            op = read(FIXTURES / doc)
            op["columns"][0][1] = [1e300, 0.0]
        p = tmp_path / "big.json"
        p.write_text(json.dumps(op))
        for output in ([], ["--output", str(tmp_path / "rep.json")]):
            assert run([command, "--input", str(p)] + output) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert len(err.strip().splitlines()) == 1
            assert str(p) in err
            assert "cannot write the report" not in err
            assert [f.name for f in tmp_path.iterdir()] == ["big.json"]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_pair_entry(self, tmp_path, capsys):
        # 1e308 is finite, but the twisted product overflows: the error names
        # the input as too large to check, not as non-finite
        command, fixture, edits = CRASH_CASES["entry-1e308"]
        p = tmp_path / "pair.json"
        p.write_text(json.dumps(edited_fixture(fixture, edits)))
        for output in ([], ["--output", str(tmp_path / "rep.json")]):
            assert run([command, "--input", str(p)] + output) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == (f"error: --input {p} is too large to check "
                           "(Out of range float values are not JSON compliant: nan)\n")
            assert [f.name for f in tmp_path.iterdir()] == ["pair.json"]

    @pytest.mark.parametrize("doc", [
        {"schema": 1, "M": 2_000_000_000, "N": 0},
        {"schema": 1, "M": 4, "N": 2_000_000_000, "kernels": []},
        {"schema": 1, "M": 4, "N": -3, "kernels": []},
    ], ids=["huge-M", "huge-N", "negative-N"])
    def test_kernel_family_sizes_checked_before_allocation(self, tmp_path, capsys, doc):
        doc = {"kernels": [[0, [[1.0, 0.0]] * 3]], **doc}
        p = tmp_path / "fam.json"
        p.write_text(json.dumps(doc))
        assert run(["classify-torus", "--input", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "$.N" in err or "$.kernels" in err

    # sizes whose tables exceed the 128 TiB user address space of x86-64:
    # refused by the MAX_TABLE_BYTES cap, and an allocation would fail at once
    @pytest.mark.parametrize("argv, params", [
        (["construct"], {"schema": 1, "n": 10**7, "support": [0], "sigma": [[0, 0]]}),
        (["construct"], {"schema": 1, "n": 10**7, "k0": 1, "m0": 0, "m1": 0,
                         "c": [1.0, 0.0]}),
        (["verify-twisted", "--grid-S", "5000000"], None),
    ], ids=["construct-conv", "construct-intertwiner", "verify-twisted"])
    def test_unallocatable_size(self, tmp_path, capsys, argv, params):
        if params is not None:
            p = tmp_path / "params.json"
            p.write_text(json.dumps(params))
            argv = argv + ["--input", str(p)]
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "allocate" in err

    @pytest.mark.parametrize("command, tables, step", [
        ("construct", cli.CONSTRUCT_TABLES, 1), ("verify-twisted", cli.TWISTED_TABLES, 2)])
    def test_size_just_over_cap(self, tmp_path, capsys, monkeypatch, command, tables, step):
        # the smallest order (even side) whose tables exceed the cap
        side = math.isqrt(cli.MAX_TABLE_BYTES // (16 * tables)) + 1
        side += -side % step
        assert tables * 16 * (side - step) ** 2 <= cli.MAX_TABLE_BYTES
        if command == "construct":
            p = tmp_path / "params.json"
            p.write_text(json.dumps({"schema": 1, "n": side, "support": [0],
                                     "sigma": [[0, 0]]}))
            argv = [command, "--input", str(p)]
        else:
            argv = [command, "--grid-S", str(side)]
        # the tables start with these calls; reaching one fails the test
        monkeypatch.setattr(np, "zeros", None)
        monkeypatch.setattr(np, "exp", None)
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "would allocate" in err and "MAX_TABLE_BYTES" in err

    def test_unwritable_output(self, tmp_path, capsys):
        out = tmp_path / "missing" / "rep.json"
        assert run(["classify-conv", "--input", str(FIXTURES / "dft_n8.json"),
                    "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert not out.parent.exists()


class TestBoundaryCrashes:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", [c for c in CRASH_CASES if c != "huge-m1"])
    def test_one_line_exit_2(self, tmp_path, capsys, case):
        command, fixture, edits = CRASH_CASES[case]
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(edited_fixture(fixture, edits)))
        assert run([command, "--input", str(p), "--output", str(tmp_path / "rep.json")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert [f.name for f in tmp_path.iterdir()] == ["doc.json"]

    @pytest.mark.parametrize("value", [[1], 7, False, "x"])
    def test_pair_member_not_an_object(self, tmp_path, capsys, value):
        p = tmp_path / "pair.json"
        p.write_text(json.dumps(edited_fixture("gaussian_pair_s64.json", [(("g",), value)])))
        assert run(["verify-twisted", "--input", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: $.g: expected an object, got ")
        assert len(err.splitlines()) == 1

    def test_repeated_sigma_entry(self, tmp_path, capsys):
        p = tmp_path / "params.json"
        p.write_text(json.dumps(edited_fixture(
            "conv_params_n6.json", [(("sigma",), [[0, 2], [3, 2], [3, 4]])])))
        assert run(["construct", "--input", str(p)]) == 2
        assert capsys.readouterr().err == "error: $.sigma[2]: sigma(3) is given twice\n"

    @pytest.mark.filterwarnings("error")
    def test_huge_intertwiner_parameters_reduced(self, tmp_path):
        command, fixture, edits = CRASH_CASES["huge-m1"]
        p = tmp_path / "params.json"
        p.write_text(json.dumps(edited_fixture(fixture, edits)))
        assert run([command, "--input", str(p), "--output", str(tmp_path / "op.json")]) == 0
        op = read(tmp_path / "op.json")
        table = np.array(op["columns"]).view(np.complex128)[..., 0].T
        want = construct_intertwiner(Group(8), 3, 2, 2 ** 70 % 8, 2 - 1j).table
        assert np.array_equal(table, want)


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        out = tmp_path / "rep.json"
        argv = ["classify-exchange", "--input", str(FIXTURES / "dft_n8.json"),
                "--variant", "fourier", "--seed", "7", "--output", str(out)]
        assert run(argv) == 0
        first = out.read_bytes()
        assert run(argv) == 0
        assert out.read_bytes() == first

    def test_stdout_report_matches_file(self, tmp_path, capsys):
        # construct's report carries no config, so both sinks write the same bytes
        out = tmp_path / "op.json"
        argv = ["construct", "--input", str(FIXTURES / "intertwiner_params_n8.json")]
        assert run(argv + ["--output", str(out)]) == 0
        assert run(argv) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")

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


class TestParser:
    def test_built_once_and_stateless(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        out = tmp_path / "rep.json"
        argv = ["check-axioms", "--input", str(FIXTURES / "dft_n8.json"), "--output", str(out)]
        assert run(argv + ["--mode", "sampled", "--samples", "4", "--seed", "5"]) == 0
        assert read(out)["config"]["mode"] == "sampled"
        assert run(argv) == 0
        cfg = read(out)["config"]
        assert (cfg["mode"], cfg["samples"], cfg["seed"]) == ("basis", 64, 0)
        assert built == []

    def test_each_command_accepts_what_it_reads(self):
        operator = {"--input", "--output", "--tol", "--n", "--unitary"}
        commands = cli.PARSER._subparsers._group_actions[0].choices
        accepted = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
                    for name, p in commands.items()}
        assert accepted == {
            "classify-conv": operator, "classify-intertwiner": operator,
            "check-axioms": operator | {"--seed", "--mode", "--samples"},
            "classify-exchange": operator | {"--seed", "--variant"},
            "classify-torus": {"--input", "--output", "--tol"},
            "verify-twisted": {"--input", "--output", "--tol", "--grid-S", "--grid-L"},
            "construct": {"--input", "--output", "--n"}}
        assert sum(map(len, accepted.values())) == 36

    def test_config_echoes_every_field(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["classify-torus", "--input", str(FIXTURES / "fourier_torus_m64_n8.json"),
                    "--output", str(out)]) == 0
        assert read(out)["config"] == {
            "command": "classify-torus", "input": str(FIXTURES / "fourier_torus_m64_n8.json"),
            "output": str(out), "n": None, "tol": 1e-9, "seed": 0, "unitary": False,
            "mode": "basis", "samples": 64, "variant": "direct", "grid_S": 64, "grid_L": 4.0}

    @pytest.mark.parametrize("argv, tol", [
        (["verify-twisted", "--grid-S", "32", "--grid-L", "2.5"], 5e-2),
        (["classify-conv", "--input", str(FIXTURES / "dft_n8.json")], 1e-9),
    ], ids=["verify-twisted", "classify-conv"])
    def test_default_tol(self, tmp_path, argv, tol):
        out = tmp_path / "rep.json"
        assert run(argv + ["--output", str(out)]) == 0
        assert read(out)["config"]["tol"] == tol


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
