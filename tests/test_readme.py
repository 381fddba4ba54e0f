"""The README's library quickstart, run as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first python block under the README's "## Library" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"^```python\n(.*?)^```$", section, re.M | re.S)
    assert block is not None, "no python block under ## Library"
    return block.group(1)


def test_library_example_runs():
    code = compile(library_example(), f"{README}:## Library", "exec")
    exec(code, {"__name__": "readme_example"})
