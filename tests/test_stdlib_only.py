"""padelic depends on the standard library alone.

Every absolute import in ``src/padelic`` must name a standard-library module
at its top level; relative imports stay inside the package.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "padelic"


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
