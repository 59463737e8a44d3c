"""Smoke tests: every example script must run end to end.

Run as subprocesses at reduced scale so the suite stays fast while still
exercising the real entry points a new user will hit first.
"""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _run(script: str, *args: str, timeout: int = 600) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True, text=True, timeout=timeout)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = _run("quickstart.py")
        assert "Model graphlets" in out
        assert "blocked" in out  # day-3 anomaly blocks training

    def test_corpus_study(self):
        out = _run("corpus_study.py", "10")
        assert "Table 1" in out
        assert "unpushed graphlet fraction" in out

    def test_waste_mitigation(self):
        out = _run("waste_mitigation.py", "12")
        assert "RF:Validation" in out
        assert "freshness" in out.lower()

    def test_incremental_vocab(self):
        out = _run("incremental_vocab.py")
        assert "vocabularies identical across all steps: True" in out
