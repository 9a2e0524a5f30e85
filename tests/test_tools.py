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
