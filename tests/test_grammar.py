"""Every Python file parses at the requires-python floor of pyproject.toml.

ast.parse(..., feature_version=...) refuses, on a newer interpreter, syntax
that the floor lacks: except* groups, PEP 695 type parameters and type
aliases, among others.  It checks grammar only, and only as far as the
parser tracks versions: a library API the floor lacks (tomllib, say) is
not caught here.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = tuple(map(int, re.search(
    r'requires-python = ">=(\d+)\.(\d+)"',
    (ROOT / "pyproject.toml").read_text()).groups()))
SOURCES = sorted(path for folder in ("src", "tests", "perfbench", "ci")
                 for path in (ROOT / folder).rglob("*.py"))


def test_every_folder_has_sources():
    # an empty glob would leave nothing to parse and pass silently
    assert {p.relative_to(ROOT).parts[0] for p in SOURCES} == {
        "src", "tests", "perfbench", "ci"}


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_parses_at_the_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
