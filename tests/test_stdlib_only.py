"""padelic depends on the standard library alone, and keeps only what it reads.

Every absolute import in ``src/padelic`` must name a standard-library module
at its top level; relative imports stay inside the package.  Every module
but ``__init__.py``, which re-exports, reads each name it imports, and every
function, class and method it defines is read by the package or traced by
the benchmark; code that only the tests call lives in ``tests/``.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

from test_traced_names import spans

SRC = Path(__file__).resolve().parent.parent / "src" / "padelic"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

#: Definitions that no module of the package reads, each with its reason.
UNREAD_ON_PURPOSE = {
    "cli._Parser.error": "argparse calls it when it refuses an argv",
    "mahler.expand_in_basis": "kept for the expansion in the global regular basis",
}


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_only(path):
    outside = {name for name in _absolute_imports(path)
               if name.partition(".")[0] not in sys.stdlib_module_names}
    assert not outside, f"{path.name} imports {sorted(outside)}"


def _imported_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = set(_imported_names(tree)) - read
    assert not unused, f"{path.name} imports {sorted(unused)} and never reads them"


def _definitions(tree: ast.Module):
    """(qualified name, leaf name) of each module-level function and class
    and of each method that is not a dunder."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item.name) for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"))


def _read_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


_TREES = {path: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
_READ = {name for tree in _TREES.values() for name in _read_names(tree)}
_KEPT = {f"{module}.{attr}" for module, attr in spans.SPANNED + spans.COUNTED}
_KEPT |= set(UNREAD_ON_PURPOSE)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_read(path):
    unread = {qual for qual, leaf in _definitions(_TREES[path])
              if leaf not in _READ and f"{path.stem}.{qual}" not in _KEPT}
    assert not unread, f"{path.name} defines {sorted(unread)} and no module reads them"


def test_every_exception_is_still_defined():
    defined = {f"{path.stem}.{qual}" for path, tree in _TREES.items()
               for qual, _ in _definitions(tree)}
    assert set(UNREAD_ON_PURPOSE) <= defined
