"""The README's library example, run as printed."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    """The first python block under the README's "## Library" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_example_runs_as_printed():
    code = library_block()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    # each print line's comment is its output, with "..." standing for any text
    expected = [
        line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")
    ]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected) == 3
    for got, want in zip(printed, expected):
        assert re.fullmatch(re.escape(want).replace(re.escape("..."), ".*"), got), (got, want)
