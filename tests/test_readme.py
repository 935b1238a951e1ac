"""The README's library example runs against this tree, so the documented
API cannot drift from the code."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"^```python\n(.*?)^```$", section, re.M | re.S).group(1)


def test_readme_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_block(), str(README), "exec"), {})
    assert out.getvalue() in ("pass\n", "fail\n", "hypothesis-violated\n")
