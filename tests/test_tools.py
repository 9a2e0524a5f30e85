import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def fixture_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("report-bytes")
    subprocess.run([sys.executable, str(ROOT / "tools" / "report_bytes.py"), str(ROOT),
                    str(out), "--seeds"], check=True, timeout=60)
    return out


def test_report_bytes_on_fixtures(fixture_runs):
    # a bare --seeds records the fixtures, their edits, the product-group, overflow and gates
    # runs only
    assert sorted(p.name for p in fixture_runs.iterdir()) == [
        "fixtures", "fixtures-edited", "fixtures-stdout", "gates", "overflow", "product"]
    for sink in ("fixtures", "fixtures-stdout"):
        runs = sorted((fixture_runs / sink).iterdir())
        assert len(runs) == 7 * len(list((ROOT / "fixtures").glob("*.json")))
        for path in runs:
            text = path.read_text(encoding="utf-8")
            assert str(ROOT) not in text
            assert text.splitlines()[1] in ("exit: 0", "exit: 1", "exit: 2")
    text = (fixture_runs / "fixtures" / "dft_n8-classify-conv.txt").read_text(encoding="utf-8")
    assert "exit: 0\n" in text and '"input": "<checkout>/fixtures/dft_n8.json"' in text


def test_report_bytes_on_edited_fixtures(fixture_runs):
    # each field, and each field of a pair's f and g, dropped or replaced by 9 values, under
    # each command that reads the fixture: one that does not exit 2 on it unedited
    runs = sorted((fixture_runs / "fixtures-edited").iterdir())
    exits = {}
    for path in runs:
        text = path.read_text(encoding="utf-8")
        assert str(ROOT) not in text
        exit_ = text.splitlines()[1]
        assert exit_ in ("exit: 0", "exit: 1", "exit: 2"), path.name
        exits.setdefault(path.name.split("-")[0], set()).add(exit_)
    expected = 0
    for fixture in (ROOT / "fixtures").glob("*.json"):
        doc = json.loads(fixture.read_text(encoding="utf-8"))
        fields = len(doc) + sum(len(doc[m]) for m in ("f", "g") if isinstance(doc.get(m), dict))
        readers = [p for p in (fixture_runs / "fixtures").glob(f"{fixture.stem}-*.txt")
                   if sections(p)["exit"] != "exit: 2"]
        expected += 10 * fields * len(readers)
        assert "exit: 2" in exits[fixture.stem], fixture.name
    assert len(runs) == expected
    text = (fixture_runs / "fixtures-edited" / "gaussian_pair_s64-f.L-str-verify-twisted.txt"
            ).read_text(encoding="utf-8")
    assert "exit: 2\n" in text and "error: $.f.L: expected a number\n" in text


def test_report_bytes_on_product_groups(fixture_runs):
    # each transform table passes the basis check, and fails it with one planted entry
    runs = {p.name: sections(p) for p in (fixture_runs / "product").iterdir()}
    assert sorted(runs) == sorted(f"{g}-{kind}.txt" for g in ("2x3", "4x6", "3x2x2", "2x64")
                                  for kind in ("clean", "planted"))
    for name, run in runs.items():
        assert run["argv"].startswith("argv: check-axioms --input <work>/")
        assert run["exit"] == ("exit: 0" if name.endswith("-clean.txt") else "exit: 1"), name
        assert '"checked": ' in run["report"] and '"mode": "basis"' in run["report"]


def test_report_bytes_on_overflow(fixture_runs):
    # one value near the float limit: each run exits 2 with one line and writes no report
    runs = {p.name: sections(p) for p in (fixture_runs / "overflow").iterdir()}
    names = ["identity_n4-1e+300-check-axioms", "identity_n4-1e+300-check-axioms-mode-sampled",
             "identity_n4-1e+300-classify-conv", "identity_n4-1e+308-check-axioms",
             "identity_n4-1e+308-check-axioms-mode-sampled",
             "gaussian_pair_s64-1e+308-verify-twisted"]
    assert sorted(runs) == sorted(f"{name}{sink}.txt" for name in names
                                  for sink in ("", "-stdout"))
    for name, run in runs.items():
        assert run["argv"].startswith("argv: ") and "--input <work>/" in run["argv"]
        assert (run["exit"], run["stdout"], run["report"]) == ("exit: 2", "", ""), name
        assert run["stderr"].startswith("error: ") and run["stderr"].count("\n") == 1, name


def test_report_bytes_on_gates(fixture_runs):
    # a row at eps chi in a canonical n = 8 table passes the basis check (whose scale is
    # about 2) up to eps = 2 tol and then vanishes; a kernel at eps chi fails its own check,
    # and the one at (1 + 2 tol) chi before it sits at the check's edge, within rounding
    runs = {p.name: sections(p) for p in (fixture_runs / "gates").iterdir()}
    scales = ("1.5", "2", "2.5", "3")
    assert sorted(runs) == sorted(
        [f"n8-eps{s}-{c}.txt" for s in scales for c in ("classify-conv", "check-axioms")]
        + [f"m64-eps{s}-classify-torus.txt" for s in scales])
    for s in scales:
        passed = s in ("1.5", "2")
        conv = runs[f"n8-eps{s}-classify-conv.txt"]
        assert conv["exit"] == ("exit: 0" if passed else "exit: 1"), s
        if passed:
            assert json.loads(conv["report"])["result"]["support"] == list(range(6))
        else:
            assert json.loads(conv["report"])["error"]["type"] == "AxiomViolation"
        assert runs[f"n8-eps{s}-check-axioms.txt"]["exit"] == ("exit: 0" if passed else "exit: 1")
        error = json.loads(runs[f"m64-eps{s}-classify-torus.txt"]["report"])["error"]
        assert error["type"] == "CharacterEquationViolation" and error["details"]["xi"] in (-1, 1)


def sections(path: pathlib.Path) -> dict:
    """The argv, exit, stdout, stderr and report sections of one recorded run."""
    text = path.read_text(encoding="utf-8")
    argv, exit_, rest = text.split("\n", 2)
    stdout, rest = rest.removeprefix("stdout:\n").split("stderr:\n", 1)
    stderr, report = rest.split("report:\n", 1)
    return {"argv": argv, "exit": exit_, "stdout": stdout, "stderr": stderr, "report": report}


def test_stdout_report_equals_file_report(fixture_runs):
    # the same bytes on both sinks, but for the config's "output", which names the sink
    reports = 0
    for path in sorted((fixture_runs / "fixtures").iterdir()):
        to_file, to_stdout = sections(path), sections(fixture_runs / "fixtures-stdout" / path.name)
        assert (to_file["exit"], to_file["stderr"]) == (to_stdout["exit"], to_stdout["stderr"])
        assert to_file["stdout"] == to_stdout["report"] == ""
        expected = to_file["report"].replace('"output": "<work>/report.json"', '"output": null')
        assert to_stdout["stdout"] == expected, path.name
        reports += to_file["exit"] != "exit: 2"
    assert reports >= len(list((ROOT / "fixtures").glob("*.json")))    # one per fixture at least


def test_report_bytes_on_workload_seed(tmp_path):
    subprocess.run([sys.executable, str(ROOT / "tools" / "report_bytes.py"), str(ROOT),
                    str(tmp_path), "--seeds", "3"], check=True, timeout=120)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fixtures", "fixtures-edited", "fixtures-stdout", "gates", "overflow", "product", "seed3",
        "signal-algebra"]
    assert all(p.read_text(encoding="utf-8").splitlines()[1] in ("exit: 0", "exit: 1", "exit: 2")
               for p in (tmp_path / "seed3").iterdir())
    assert [p.name for p in (tmp_path / "signal-algebra").iterdir()] == ["seed3.txt"]
    text = (tmp_path / "signal-algebra" / "seed3.txt").read_text(encoding="utf-8")
    blocks = [b.split("\n") for b in text.split("request ")[1:]]
    assert [b[0].split()[0] for b in blocks] == [f"{i:04d}" for i in range(len(blocks))]
    # every request meets the workload's known answer
    assert all(b[1] == "verdict: ok" for b in blocks)
    outcomes = {}
    for b in blocks:
        outcomes.setdefault(b[0].split()[1], []).append(b[2])
    failed = outcomes["sampled-conv-check-reject"][0]
    assert failed.startswith("outcome: AxiomReport(passed=False, max_residual=")
    assert "witness=Witness(identity='T(f*g) = T(f).T(g)', inputs=(Signal((" in failed
    assert "checked=32)" in failed and "sha256:" in failed
    assert {o.split("(")[0] for o in outcomes["classify-exchange-reject"]} == {
        "outcome: EtaNotCoprime", "outcome: DeltaImageInconsistent",
        "outcome: FinalSweepViolation"}
    assert outcomes["dft-recent"][0].startswith("outcome: Signal((")
