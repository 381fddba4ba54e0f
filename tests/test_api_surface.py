"""`src/rbc` holds no API that only tests call.

Every public module-level function and class of a module in `src/rbc`
must be referenced, as a name, an attribute or an imported name, by code
outside `tests/`: a module of `src/rbc` (its own included), `perfbench/`
or `ci/`.  `__init__.py` is not a user, as re-exporting a name does not
call it, and a docstring mention is not code.  A reference the tests need
and shipped code does not belongs in `tests/`, as `conftest.replay_decisions`
does.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rbc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
USERS = MODULES + sorted(path for folder in ("perfbench", "ci")
                         for path in (ROOT / folder).rglob("*.py"))


def public_definitions(path: Path) -> list[str]:
    return [node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def referenced_names() -> set[str]:
    names = set()
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def test_every_user_folder_has_sources():
    # an empty glob would leave no reference to find and fail every module
    assert {p.relative_to(ROOT).parts[0] for p in USERS} == {
        "src", "perfbench", "ci"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_public_names_have_a_shipped_user(path):
    unused = sorted(set(public_definitions(path)) - referenced_names())
    assert unused == [], f"only tests reach {path.stem}: {unused}"
