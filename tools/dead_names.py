"""List the public ``src/`` names that nothing outside their own body uses.

A public name is a module-level function, class or UPPER_CASE
constant under ``src/repro``, or a method or property of such a class,
whose name does not start with ``_``. It is reached when one of these
refers to it outside the name's own body:

* a ``Name`` node, an ``Attribute`` node's attribute, or an
  ``ImportFrom`` alias, in any ``.py`` file under ``src/``,
  ``benchmarks/``, ``examples/``, ``e2e_bench/`` or ``tools/``;
* a string constant that is exactly the name (``getattr`` targets,
  ``__all__`` entries, lazy-export tables);
* an identifier in the CI workflow file.

References are matched by bare name, so one caller keeps every
definition of that name alive, and the scan is one pass: a name whose
only caller is itself unreached shows up once that caller is deleted.
A package ``__init__`` re-export (an
``ImportFrom`` alias or a string constant in an ``__init__.py``) does
not count, and neither does ``tests/``: a name only its own unit test
reaches is dead code with a test.

``KEEP`` lists the deliberate exceptions, each with its reason.

Usage::

    PYTHONPATH=src python tools/dead_names.py            # print
    PYTHONPATH=src python tools/dead_names.py --check    # CI gate

``--check`` exits 1 on any unreached name missing from ``KEEP`` and on
any ``KEEP`` entry that is no longer defined.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCANNED_DIRS = ("src", "benchmarks", "examples", "e2e_bench", "tools")
CI_FILE = ROOT / ".github" / "workflows" / "ci.yml"

_PRESET = "corpus-scale preset that DESIGN and EXPERIMENTS name"
_DRIFT_REFERENCE = ("per-domain drift that tests/data/test_columns.py "
                    "checks the columnar drift against")
_MLMD_PARITY = ("MLMD-parity read of the versioned surface "
                "(tools/api_snapshot.py)")
_PAPER_FIGURE = ("a figure the paper reports; calibration.py keeps the "
                 "paper's numbers whether or not a bench compares one")

#: Unreached names that stay, keyed by qualified name, with the reason.
KEEP = {
    **{f"repro.corpus.calibration.{name}": _PAPER_FIGURE
       for name in ("PAPER_N_PIPELINES", "PAPER_INPUT_SIM_PUSHED",
                    "PAPER_INPUT_SIM_UNPUSHED", "PAPER_WASTE_N_PIPELINES")},
    "repro.corpus.config.CorpusConfig.small": _PRESET,
    "repro.corpus.config.CorpusConfig.medium": _PRESET,
    "repro.corpus.config.CorpusConfig.paper_scale": _PRESET,
    "repro.data.schema.NumericDomain.shifted": _DRIFT_REFERENCE,
    "repro.data.schema.CategoricalDomain.shifted": _DRIFT_REFERENCE,
    "repro.mlmd.sqlite_store.salvage_store":
        "fault recovery for a damaged store file; README documents it",
    **{f"repro.mlmd.store.MetadataReader.{read}": _MLMD_PARITY
       for read in ("get_artifact_by_name", "get_artifacts_by_id",
                    "get_executions_by_id", "get_input_artifacts",
                    "get_output_artifacts", "get_contexts_by_execution",
                    "get_contexts_by_artifact", "get_attributions",
                    "get_associations", "get_telemetry_by_execution")},
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _span(node: ast.AST) -> tuple[int, int]:
    first = min([node.lineno]
                + [d.lineno for d in getattr(node, "decorator_list", ())])
    return first, node.end_lineno


def definitions() -> list[tuple[str, str, Path, tuple[int, int]]]:
    """``(qualified name, bare name, file, line span)`` of each public name."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                found.extend(
                    (f"{module}.{target.id}", target.id, path, _span(node))
                    for target in targets
                    if isinstance(target, ast.Name)
                    and _CONSTANT.fullmatch(target.id))
                continue
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            found.append((f"{module}.{node.name}", node.name, path,
                          _span(node)))
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if (isinstance(member, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))
                        and not member.name.startswith("_")):
                    found.append((f"{module}.{node.name}.{member.name}",
                                  member.name, path, _span(member)))
    return found


def references() -> dict[str, list[tuple[Path, int]]]:
    """Every counted reference, as bare name -> ``[(file, line), ...]``."""
    refs: dict[str, list[tuple[Path, int]]] = {}

    def add(name: str, path: Path, line: int) -> None:
        refs.setdefault(name, []).append((path, line))

    for directory in SCANNED_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            reexport_only = path.name == "__init__.py"
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    add(node.id, path, node.lineno)
                elif isinstance(node, ast.Attribute):
                    add(node.attr, path, node.lineno)
                elif reexport_only:
                    continue
                elif isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        add(alias.name, path, node.lineno)
                elif (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                        and node.value.isidentifier()):
                    add(node.value, path, node.lineno)
    for line_no, line in enumerate(CI_FILE.read_text().splitlines(), 1):
        for word in _IDENTIFIER.findall(line):
            add(word, CI_FILE, line_no)
    return refs


def dead_names() -> list[str]:
    """Qualified names with no counted reference outside their own body."""
    refs = references()
    dead = []
    for qualified, name, path, (first, last) in definitions():
        if not any(ref_path != path or not first <= line <= last
                   for ref_path, line in refs.get(name, ())):
            dead.append(qualified)
    return dead


def main(argv: list[str]) -> int:
    dead = dead_names()
    defined = {qualified for qualified, *_ in definitions()}
    unlisted = [name for name in dead if name not in KEEP]
    stale = sorted(name for name in KEEP if name not in defined)
    if "--check" not in argv:
        for name in dead:
            print(f"{name}  # keep: {KEEP[name]}" if name in KEEP else name)
        return 0
    for name in unlisted:
        print(f"unreached public name: {name}")
    for name in stale:
        print(f"keep-list entry no longer defined: {name}")
    if unlisted or stale:
        print("\nDelete the unreached names (with their exports and "
              "tests), or add each to KEEP in tools/dead_names.py with "
              "one line of reason; drop stale KEEP entries.")
        return 1
    print(f"no unreached public names ({len(KEEP)} kept on purpose)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
