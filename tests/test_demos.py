"""Each narrative script in demos/ runs to completion against the package
and every self-check it prints holds, every README import line imports,
and each public name has one home: its defining module, never a package
``__init__``."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import soilspec

SRC = Path(soilspec.__file__).resolve().parents[1]
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))
README_IMPORT = re.compile(r"^from soilspec[\w.]* import (?:\([^)]*\)|.*)$", re.M)


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script, tmp_path):
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    # self-checks print "<claim>: True"; a claim that fails must fail here
    failed = [line for line in result.stdout.splitlines() if line.endswith(": False")]
    assert not failed, failed


def test_readme_import_lines_import():
    lines = README_IMPORT.findall((SRC.parent / "README.md").read_text())
    assert lines
    for line in lines:
        exec(line, {})


@pytest.mark.parametrize("init", ["__init__.py", "ml/__init__.py"])
def test_package_inits_define_no_public_name(init):
    tree = ast.parse((SRC / "soilspec" / init).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        else:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                    names.add(sub.id)
    assert names <= {"__version__"}
