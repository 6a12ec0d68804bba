"""The package keeps to the oldest Python that pyproject.toml admits (3.10)."""

import ast
from pathlib import Path

import pytest

import sandalc

PACKAGE = Path(sandalc.__file__).parent


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_module_parses_as_python_3_10(path):
    """Syntax newer than 3.10, such as `except*`, fails at import there, yet a
    test run on a newer interpreter would not notice it."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
