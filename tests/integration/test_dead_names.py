"""Every public ``src/`` name is reached from outside its own body.

This is the in-suite mirror of CI's ``tools/dead_names.py --check``: a
public function, class, constant, method or property that only its own
unit test (or nothing) uses must be deleted, or listed in the tool's
``KEEP`` with a reason.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOLS_DIR = Path(__file__).resolve().parents[2] / "tools"


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "dead_names", TOOLS_DIR / "dead_names.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_unreached_public_names():
    tool = _load_tool()
    unlisted = [name for name in tool.dead_names() if name not in tool.KEEP]
    assert not unlisted, (
        "public names nothing outside their own body reaches:\n  "
        + "\n  ".join(unlisted)
        + "\nDelete them with their exports and tests, or add each to"
        " KEEP in tools/dead_names.py with one line of reason.")


def test_keep_list_names_are_defined():
    tool = _load_tool()
    defined = {qualified for qualified, *_ in tool.definitions()}
    assert sorted(set(tool.KEEP) - defined) == []
