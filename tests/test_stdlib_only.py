"""The runtime is pure stdlib: every absolute import in the package names
a standard-library module.  Relative imports stay inside the package.  The
sources also parse at the Python floor that pyproject.toml declares, and
the calls that follow ``import acmpts`` load no further module."""

import ast
import os
import re
import subprocess
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


CALLS_AFTER_IMPORT = """
import sys
import acmpts
loaded = set(sys.modules)
acmpts.delta_table(acmpts.canonicalize([(1, 1, 1), (2, 2, 1), (1, 2, 2), (2, 1, 2)]), (2, 2, 2))
acmpts.linalg.rank_int([[1, -2, 0], [3, 4, -(1 << 70)], [0, 1, 5]])
acmpts.first_cm_failure(acmpts.canonicalize([(1, 1, 1), (1, 2, 2), (2, 1, 2), (3, 2, 1)]))
acmpts.first_cm_failure(acmpts.canonicalize([
    (1, 1, 1, 1, 1, 2, 2, 2, 2, 1, 1, 2), (1, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 2),
    (2, 1, 2, 2, 1, 2, 1, 1, 1, 1, 1, 1), (2, 2, 1, 1, 2, 2, 1, 1, 2, 2, 2, 1),
    (2, 2, 1, 2, 1, 1, 1, 2, 1, 2, 2, 1), (2, 2, 2, 1, 1, 2, 1, 1, 2, 2, 1, 1),
]))
print(sorted(set(sys.modules) - loaded))
"""


def test_calls_after_import_load_no_module():
    """A module first loaded by a call, such as the ``array`` extension,
    adds its import time to that call.  A fresh interpreter runs one
    ``delta_table`` and one ``rank_int`` call, with entries both below and
    above 2^63, after ``import acmpts``, and one ``first_cm_failure`` call
    on a set whose element matchings leave critical cells of two sizes,
    so a Morse differential is flowed and ranked, and one on six points in
    twelve directions of two levels, 24 vertex positions, above
    ``MATCHING_BOUND``, so the matchings run on the set of faces.  The
    points are given as a literal list, so that ``random`` is not
    imported."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-c", CALLS_AFTER_IMPORT],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.strip() == "[]"
