import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_report_bytes_on_fixtures(tmp_path):
    subprocess.run([sys.executable, str(ROOT / "tools" / "report_bytes.py"), str(ROOT),
                    str(tmp_path), "--seeds"], check=True, timeout=60)
    runs = sorted((tmp_path / "fixtures").iterdir())
    assert len(runs) == 7 * len(list((ROOT / "fixtures").glob("*.json")))
    assert [p.name for p in tmp_path.iterdir()] == ["fixtures"]
    for path in runs:
        text = path.read_text(encoding="utf-8")
        assert str(ROOT) not in text
        assert text.splitlines()[1] in ("exit: 0", "exit: 1", "exit: 2")
    text = (tmp_path / "fixtures" / "dft_n8-classify-conv.txt").read_text(encoding="utf-8")
    assert "exit: 0\n" in text and '"input": "<checkout>/fixtures/dft_n8.json"' in text


def test_report_bytes_on_workload_seed(tmp_path):
    subprocess.run([sys.executable, str(ROOT / "tools" / "report_bytes.py"), str(ROOT),
                    str(tmp_path), "--seeds", "3"], check=True, timeout=120)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fixtures", "seed3", "signal-algebra"]
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
