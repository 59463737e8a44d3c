"""Public-API surface snapshot for the query/metadata layer.

The MetadataClient facade is a versioned API (``API_VERSION``); the
parity suite pins its *behavior*, this tool pins its *surface*. The
snapshot records, for every ``__all__`` export of the guarded modules,

* functions — the exact ``inspect.signature`` string;
* classes — every public attribute, mapped to its method signature,
  ``<property>``, or a value repr for class constants and dataclass
  field defaults;
* plain values — their repr.

CI runs ``--check`` against the checked-in ``tools/api_snapshot.json``
(also enforced by ``tests/query/test_api_snapshot.py``); an unreviewed
surface change fails with a diff. After an intentional, reviewed change
run ``--update`` and commit the new snapshot — and bump
``MetadataClient.API_VERSION`` if the change is breaking.

Usage::

    PYTHONPATH=src python tools/api_snapshot.py            # print
    PYTHONPATH=src python tools/api_snapshot.py --check    # CI gate
    PYTHONPATH=src python tools/api_snapshot.py --update   # refresh
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import re
import sys
from pathlib import Path

#: Object reprs embed memory addresses; strip them for stability.
_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")


def _stable_repr(value) -> str:
    return _ADDRESS.sub("", repr(value))

#: Modules whose ``__all__`` constitutes the guarded public surface.
GUARDED_MODULES = ("repro.query", "repro.mlmd")

SNAPSHOT_PATH = Path(__file__).with_name("api_snapshot.json")


def _describe_value(value) -> str:
    if inspect.isfunction(value):
        return f"def{inspect.signature(value)}"
    if isinstance(value, (staticmethod, classmethod)):
        return f"{type(value).__name__} def{inspect.signature(value.__func__)}"
    if isinstance(value, property):
        return "<property>"
    return _stable_repr(value)


def _describe_class(cls) -> dict[str, str]:
    surface = {}
    # A dataclass field is described by its default, read from
    # ``dataclasses.fields``: a slotted dataclass holds a member
    # descriptor under the field's name, a plain one the default itself
    # (or nothing, for a field without a plain default).
    defaults = {f.name: f.default for f in dataclasses.fields(cls)} \
        if dataclasses.is_dataclass(cls) else {}
    for name, value in inspect.getmembers(cls):
        if name.startswith("_") and name != "__init__":
            continue
        if name in defaults:
            if defaults[name] is not dataclasses.MISSING:
                surface[name] = _stable_repr(defaults[name])
            continue
        try:
            if inspect.isfunction(value) or inspect.ismethod(value):
                surface[name] = f"def{inspect.signature(value)}"
            elif isinstance(inspect.getattr_static(cls, name), property):
                surface[name] = "<property>"
            elif inspect.isclass(value):
                surface[name] = f"class {value.__name__}"
            else:
                surface[name] = _stable_repr(value)
        except (TypeError, ValueError):  # pragma: no cover - C builtins
            surface[name] = "<unintrospectable>"
    return surface


def snapshot() -> dict:
    """The current public surface of every guarded module."""
    surface: dict[str, dict] = {}
    for module_name in GUARDED_MODULES:
        module = importlib.import_module(module_name)
        exports = {}
        for name in sorted(module.__all__):
            value = getattr(module, name)
            if inspect.isclass(value):
                exports[name] = _describe_class(value)
            else:
                exports[name] = _describe_value(value)
        surface[module_name] = exports
    return surface


def _render(surface: dict) -> str:
    return json.dumps(surface, indent=2, sort_keys=True) + "\n"


def _diff(expected: dict, actual: dict) -> list[str]:
    lines = []
    expected_flat = _flatten(expected)
    actual_flat = _flatten(actual)
    for key in sorted(expected_flat.keys() | actual_flat.keys()):
        before = expected_flat.get(key)
        after = actual_flat.get(key)
        if before == after:
            continue
        if before is None:
            lines.append(f"+ {key} = {after}")
        elif after is None:
            lines.append(f"- {key} (was {before})")
        else:
            lines.append(f"~ {key}: {before} -> {after}")
    return lines


def _flatten(surface: dict, prefix: str = "") -> dict[str, str]:
    flat = {}
    for key, value in surface.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{path}."))
        else:
            flat[path] = value
    return flat


def main(argv: list[str]) -> int:
    current = snapshot()
    if "--update" in argv:
        SNAPSHOT_PATH.write_text(_render(current))
        print(f"wrote {SNAPSHOT_PATH} "
              f"({sum(len(v) for v in current.values())} exports)")
        return 0
    if "--check" in argv:
        if not SNAPSHOT_PATH.exists():
            print(f"missing snapshot {SNAPSHOT_PATH}; "
                  "run with --update and commit it")
            return 1
        expected = json.loads(SNAPSHOT_PATH.read_text())
        changes = _diff(expected, current)
        if changes:
            print("public API surface changed without a snapshot "
                  "update:\n  " + "\n  ".join(changes))
            print("\nIf intentional and reviewed: "
                  "PYTHONPATH=src python tools/api_snapshot.py --update "
                  "(and bump MetadataClient.API_VERSION if breaking).")
            return 1
        print("public API surface matches the snapshot")
        return 0
    sys.stdout.write(_render(current))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
