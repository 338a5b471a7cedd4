"""The package's own lint: every import in `src/` is used.

The project depends on no linter, so this walks each module's syntax tree
as pyflakes' F401 would. An import kept for its side effect carries
``# noqa: F401`` on its line.
"""

import ast
from pathlib import Path

import pytest

import soilspec

PACKAGE = Path(soilspec.__file__).parent
SOURCES = sorted(PACKAGE.rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """'line N: name' for each name an import binds that the module never loads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"line {node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda path: path.relative_to(PACKAGE).as_posix())
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found_and_noqa_keeps_one():
    source = ("import os\nimport sys  # noqa: F401\n"
              "from json import dumps, loads\n\nprint(loads)\n")
    assert unused_imports(source) == ["line 1: os", "line 3: dumps"]
