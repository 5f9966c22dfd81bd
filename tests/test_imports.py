"""Every name a library module imports is used in that module, and every
name the package exports is bound.

A stdlib ``ast`` scan in place of a linter: a name bound by ``import`` or
``from ... import`` (``__future__`` aside) must appear as a name somewhere
else in the module.  ``__init__.py`` imports in order to re-export, so it is
left out; instead each name in its ``__all__`` must be bound on the package.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "trunclog"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


def test_every_exported_name_is_bound():
    import trunclog

    assert len(trunclog.__all__) == len(set(trunclog.__all__))
    assert [n for n in trunclog.__all__ if not hasattr(trunclog, n)] == []
