"""No cache in the package grows without a bound: every ``lru_cache`` has a
literal positive integer ``maxsize``, ``functools.cache`` is not used, and
the README's caches table names each cached function with its bound."""

import ast
import re
from pathlib import Path

import pytest

import lrckit

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(lrckit.__file__).resolve().parent

# A table row: | `module.function` | maxsize | ...
ROW = re.compile(r"^\| `(\w+)\.(\w+)` \| (\d+) \|")


def _name(node: ast.AST) -> str | None:
    """The last name of ``x`` or ``a.b.x``; None for any other node."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _lru_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and _name(node.func) == "lru_cache"


def _bound(call: ast.Call) -> int | None:
    """The call's maxsize if it is a literal positive integer, else None."""
    keywords = [k.value for k in call.keywords if k.arg == "maxsize"]
    size = (call.args or keywords or [None])[0]
    if isinstance(size, ast.Constant) and type(size.value) is int and size.value > 0:
        return size.value
    return None


def _scan(source: str) -> tuple[dict[str, int], list[int]]:
    """The bounded ``lru_cache`` functions of a module with their maxsize,
    and the lines that cache without a literal bound: an ``lru_cache`` call
    without one, a bare ``lru_cache`` or any ``functools.cache``."""
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if _lru_call(node)}
    caches, unbounded = {}, []
    for node in ast.walk(tree):
        if _lru_call(node):
            if _bound(node) is None:
                unbounded.append(node.lineno)
        elif _name(node) == "lru_cache" and id(node) not in called:
            unbounded.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            unbounded += [node.lineno for alias in node.names if alias.name == "cache"]
        elif _name(node) == "cache" and _name(getattr(node, "value", None)) == "functools":
            unbounded.append(node.lineno)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                if _lru_call(deco) and _bound(deco) is not None:
                    caches[node.name] = _bound(deco)
    return caches, unbounded


def _package() -> tuple[dict[tuple[str, str], int], dict[str, list[int]]]:
    caches, unbounded = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        found, lines = _scan(path.read_text())
        caches.update({(path.stem, name): size for name, size in found.items()})
        if lines:
            unbounded[path.stem] = lines
    return caches, unbounded


def _table() -> dict[tuple[str, str], int]:
    text = README.read_text()
    section = text.split("### Caches", 1)[1].split("\n### ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if match := ROW.match(line):
            module, name, value = match.groups()
            rows[(module, name)] = int(value)
    return rows


@pytest.mark.parametrize(
    "source",
    [
        "from functools import lru_cache\n@lru_cache\ndef f(): pass",
        "from functools import lru_cache\n@lru_cache()\ndef f(): pass",
        "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(): pass",
        "from functools import lru_cache\n@lru_cache(None)\ndef f(): pass",
        "from functools import lru_cache\n@lru_cache(maxsize=True)\ndef f(): pass",
        "from functools import lru_cache\nSIZE = 8\n@lru_cache(maxsize=SIZE)\ndef f(): pass",
        "import functools\n@functools.lru_cache\ndef f(): pass",
        "import functools\n@functools.cache\ndef f(): pass",
        "from functools import cache\n@cache\ndef f(): pass",
        "from functools import lru_cache\ndef f(): pass\ng = lru_cache(maxsize=None)(f)",
    ],
)
def test_scan_flags_unbounded_caches(source):
    caches, unbounded = _scan(source)
    assert caches == {} and unbounded


def test_scan_reads_a_literal_bound():
    source = "import functools\n@functools.lru_cache(maxsize=8)\ndef f(): pass"
    assert _scan(source) == ({"f": 8}, [])
    assert _scan(source.replace("maxsize=8", "8")) == ({"f": 8}, [])


def test_every_cache_has_a_literal_bound():
    caches, unbounded = _package()
    assert caches
    assert unbounded == {}


def test_caches_table_names_every_cache_with_its_bound():
    caches, _ = _package()
    assert _table() == caches
