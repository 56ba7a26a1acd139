"""The README's Python quick start runs, and prints what its comments say."""

import re
import sys
from pathlib import Path

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
