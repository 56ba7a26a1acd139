"""The README's Python quick start runs, and prints what its comments say;
its `lrckit graph` example prints the output shown."""

import re
import sys
from pathlib import Path

from lrckit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# One line that prints and states the result: print(...)  # value
STATED = re.compile(r"^\s*print\(.*\)\s+# (.+)$")


def _quick_start() -> str:
    return README.read_text().split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_prints_what_it_states():
    source = _quick_start()
    printed: dict[int, str] = {}

    def record(*args):
        printed[sys._getframe(1).f_lineno] = " ".join(str(a) for a in args)

    exec(compile(source, "README.md", "exec"), {"print": record})
    stated = {
        number: match.group(1).strip()
        for number, line in enumerate(source.splitlines(), start=1)
        if (match := STATED.match(line))
    }
    assert stated
    for number, value in stated.items():
        assert value in (printed[number], repr(printed[number])), number


def test_graph_example_prints_what_the_readme_shows(tmp_path, capsys):
    block = README.read_text().split("```text\n$ lrckit graph ", 1)[1].split("```", 1)[0]
    command, *shown = block.splitlines()
    path = tmp_path / "example.txt"
    assert main(["construct", "xlrc", "2", "2", "1", "--convention", "complement", "--out", str(path)]) == 0
    capsys.readouterr()
    args = command.split()
    assert args[0] == "example.txt"
    assert main(["graph", str(path), *args[1:]]) == 0
    assert capsys.readouterr().out.splitlines() == shown
