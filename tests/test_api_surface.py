"""`src/rbc` holds no API that only tests call.

Every public name a module of `src/rbc` defines must be used by code
outside `tests/`: a module of `src/rbc` (its own included), `perfbench/`
or `ci/`.  The names are the module-level functions, classes and
constants, and the methods and properties of every class.  A use is a
reference as a name, an attribute or an imported name, or a string
constant equal to the name, as `simulate`'s `getattr(strategy, kind)`
dispatch reaches `respond` and `unveil`.  A method that overrides one of
a base class from outside `rbc`, such as `_Parser.error`, is used by that
base.  `__init__.py` is not a user, as re-exporting a name does not call
it, and a docstring mention is not code.  A reference the tests need and
shipped code does not belongs in `tests/`, as `conftest.replay_decisions`
does.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rbc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
USERS = MODULES + sorted(path for folder in ("perfbench", "ci")
                         for path in (ROOT / folder).rglob("*.py"))


def public_definitions(path: Path) -> list[tuple[str, str, str | None]]:
    """(name, label, class) of each public definition in the module: class
    is the defining class's name for a method or property, else None."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.name, None))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(n.id, n.id, None) for target in targets
                      for n in ast.walk(target) if isinstance(n, ast.Name)]
        if isinstance(node, ast.ClassDef):
            found += [(item.name, f"{node.name}.{item.name}", node.name)
                      for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [entry for entry in found if not entry[0].startswith("_")]


def referenced_names() -> set[str]:
    names = set()
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text())):
            # assigning a name defines it and does not use it
            if isinstance(getattr(node, "ctx", None), ast.Store):
                continue
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def overrides_foreign_base(path: Path, cls: str, name: str) -> bool:
    """Whether class cls of the module overrides a method `name` of a base
    class defined outside rbc, such as argparse.ArgumentParser.error."""
    bases = getattr(importlib.import_module(f"rbc.{path.stem}"), cls).__mro__[1:]
    return any(name in vars(base) for base in bases
               if not base.__module__.startswith("rbc"))


def test_every_user_folder_has_sources():
    # an empty glob would leave no reference to find and fail every module
    assert {p.relative_to(ROOT).parts[0] for p in USERS} == {
        "src", "perfbench", "ci"}


def test_methods_and_constants_are_collected():
    # the walk must reach methods, properties and constants, or the test
    # below would pass on any module
    labels = {label for _, label, _ in public_definitions(PACKAGE / "cli.py")}
    assert {"_Parser.error", "EXIT_OK", "main"} <= labels
    labels = {label for _, label, _ in public_definitions(PACKAGE / "spacetime.py")}
    assert {"ProtocolParams.period", "ProtocolParams.problems", "Scalar"} <= labels


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_public_names_have_a_shipped_user(path):
    used = referenced_names()
    unused = sorted(label for name, label, cls in public_definitions(path)
                    if name not in used
                    and not (cls and overrides_foreign_base(path, cls, name)))
    assert unused == [], f"only tests reach {path.stem}: {unused}"
