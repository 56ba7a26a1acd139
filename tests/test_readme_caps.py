"""The README caps table names every cap in the package, with its value."""

import ast
import importlib
import re
from pathlib import Path

import lrckit

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(lrckit.__file__).resolve().parent

# A table row: | `module.NAME` | value | ... ; values are integers or 2^k.
ROW = re.compile(r"^\| `(\w+)\.(\w+)` \| ([0-9^]+) \|")


def _table() -> dict[tuple[str, str], int]:
    text = README.read_text()
    section = text.split("### Caps", 1)[1].split("\n### ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if match := ROW.match(line):
            module, name, value = match.groups()
            base, _, power = value.partition("^")
            rows[(module, name)] = int(base) ** int(power or 1)
    return rows


def _module_caps() -> set[tuple[str, str]]:
    """Module-level names ending in _CAP or starting with _BLOCK_ that a
    package module assigns."""
    caps = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            for target in node.targets if isinstance(node, ast.Assign) else ():
                if isinstance(target, ast.Name) and (
                    target.id.endswith("_CAP") or target.id.startswith("_BLOCK_")
                ):
                    caps.add((path.stem, target.id))
    return caps


def test_caps_table_rows_name_live_constants():
    rows = _table()
    assert rows
    for (module, name), value in rows.items():
        live = getattr(importlib.import_module(f"lrckit.{module}"), name, None)
        assert live == value, (module, name, live, value)


def test_every_cap_has_a_row():
    assert _module_caps() - set(_table()) == set()
