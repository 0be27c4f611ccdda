"""Runtime dependencies: what the package imports is what pyproject.toml lists."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

import tunekit

PACKAGE_DIR = Path(tunekit.__file__).resolve().parent
PYPROJECT = PACKAGE_DIR.parent.parent / "pyproject.toml"


def third_party_imports() -> set[str]:
    """Top-level names of the modules imported anywhere under the package,
    standard library and the package itself left out."""
    names = set()
    for path in PACKAGE_DIR.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"tunekit"}


def test_imported_modules_equal_the_listed_dependencies():
    tomllib = pytest.importorskip("tomllib")
    listed = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["dependencies"]
    # a requirement's distribution name, which is its module name for every dependency listed
    names = {re.split(r"[<>=!~;\[ ]", spec, maxsplit=1)[0].lower().replace("-", "_") for spec in listed}
    assert third_party_imports() == names

