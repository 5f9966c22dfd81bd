"""Every name a library module imports is used in that module, every
top-level definition is referenced, and every name the package exports is
bound.

A stdlib ``ast`` scan in place of a linter: a name bound by ``import`` or
``from ... import`` (``__future__`` aside) must appear as a name somewhere
else in the module.  ``__init__.py`` imports in order to re-export, so it is
left out; instead each name in its ``__all__`` must be bound on the package.
A top-level function or class must be named somewhere in the package, as a
name or an imported name, apart from its own definition.  A name bound by a
top-level assignment (dunders aside) must be read somewhere in the package,
as a name in load context, so a constant nothing reads any more fails.
Every cache goes under ``fields.per_prime``'s one-prime rule: ``lru_cache``
and ``cache`` appear only inside ``per_prime``.  ``import trunclog.cli``, which
every CLI process pays, loads neither ``dataclasses`` nor the ``inspect``
chain it pulls in.
"""

import ast
import importlib
import json
import subprocess
import sys
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


# quotient._compose_horner has no caller in the library: it is the test
# oracle for compose_mod, and perfbench/tracer.py still looks it up in
# trunclog.quotient by name until it moves into the tests (ROADMAP item 5)
UNREFERENCED = [("quotient", "_compose_horner")]


def referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.alias):
            yield node.asname or node.name


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


def test_every_exported_name_is_bound():
    import trunclog

    assert len(trunclog.__all__) == len(set(trunclog.__all__))
    assert [n for n in trunclog.__all__ if not hasattr(trunclog, n)] == []


def package_trees():
    return {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SRC.glob("*.py")}


def assigned_names(tree):
    """The names bound by assignment statements at the module's top level."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id


def test_every_definition_is_referenced():
    trees = package_trees()
    used = {name for tree in trees.values() for name in referenced_names(tree)}
    defined = [
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    assert sorted(d for d in defined if d[1] not in used) == UNREFERENCED


def test_every_top_level_assignment_is_read():
    trees = package_trees()
    read = {
        node.id
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    bound = [
        (module, name)
        for module, tree in trees.items()
        for name in assigned_names(tree)
        if not (name.startswith("__") and name.endswith("__"))
    ]
    assert sorted(b for b in bound if b[1] not in read) == []


CACHE_NAMES = {"lru_cache", "cache"}
# the lru_cache that per_prime wraps
UNRULED_CACHES = {("fields", "per_prime")}


def test_every_cache_holds_one_prime():
    found = []
    for module, tree in package_trees().items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):  # the name imported, whatever its alias
                    name = node.name
                else:
                    name = getattr(node, "id", None)
                if name in CACHE_NAMES:
                    found.append((module, getattr(top, "name", type(top).__name__)))
    assert sorted(set(found) - UNRULED_CACHES) == []


def test_trunclog_glog_is_the_constructor():
    # the package re-exports the function glog over its submodule's name
    import trunclog

    module = importlib.import_module("trunclog.glog")
    assert trunclog.glog is module.glog and callable(trunclog.glog)
    assert hasattr(module, "power_route")


def test_the_cli_imports_no_dataclasses():
    # -S: no site hooks, so every module listed is one the import loaded
    code = (
        "import sys, json, trunclog.cli; "
        "print(json.dumps(sorted({'dataclasses', 'inspect'} & set(sys.modules))))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env={"PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []
