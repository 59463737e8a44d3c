"""The public query/metadata API surface matches the reviewed snapshot.

This is the in-suite mirror of CI's ``tools/api_snapshot.py --check``:
any signature, export, or attribute change to ``repro.query`` /
``repro.mlmd`` must come with a regenerated ``tools/api_snapshot.json``
(and an ``API_VERSION`` bump if breaking).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

TOOLS_DIR = Path(__file__).resolve().parents[2] / "tools"


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "api_snapshot", TOOLS_DIR / "api_snapshot.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_surface_matches_snapshot():
    tool = _load_tool()
    expected = json.loads((TOOLS_DIR / "api_snapshot.json").read_text())
    changes = tool._diff(expected, tool.snapshot())
    assert not changes, (
        "public API surface changed without a snapshot update:\n  "
        + "\n  ".join(changes)
        + "\nIf intentional: PYTHONPATH=src python tools/api_snapshot.py"
        " --update (bump MetadataClient.API_VERSION if breaking).")


def test_snapshot_covers_the_query_surface():
    tool = _load_tool()
    surface = tool.snapshot()
    assert "MetadataClient" in surface["repro.query"]
    assert "SqliteStore" in surface["repro.mlmd"]
    client = surface["repro.query"]["MetadataClient"]
    for operation in ("segment_pipeline", "artifacts", "executions",
                      "contexts"):
        assert operation in client
