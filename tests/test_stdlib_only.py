"""The runtime is pure stdlib: every absolute import in the package names
a standard-library module.  Relative imports stay inside the package.  The
sources also parse at the Python floor that pyproject.toml declares."""

import ast
import re
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "acmpts"


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 10
    outside = {
        f"{path.name}: {name}"
        for path in files
        for name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    }
    assert not outside


def declared_python_floor():
    """(major, minor) of ``requires-python = ">=X.Y"`` in pyproject.toml,
    read with a regex because ``tomllib`` needs Python 3.11."""
    text = (PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    assert match, "pyproject.toml declares no requires-python floor"
    return int(match[1]), int(match[2])


def test_package_parses_at_the_declared_python_floor():
    """Every module parses with the grammar of the oldest Python the
    package declares.  This checks syntax only, not that the standard
    library APIs it calls exist in that version."""
    floor = declared_python_floor()
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)
