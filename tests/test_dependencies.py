"""Every third-party module the package imports is declared in
pyproject.toml. The suite runs where those modules are installed, so an
undeclared one would otherwise only show on a fresh install."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "idealcrystal"


def imported_top_level_modules():
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_the_walk_finds_the_known_imports():
    names = imported_top_level_modules()
    assert {"numpy", "scipy", "orjson", "json"} <= names
    assert "errors" not in names  # relative imports are the package's own


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="tomllib is in the standard library from 3.11")
def test_every_imported_dependency_is_declared():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[A-Za-z0-9._-]+", req).group().lower().replace("-", "_")
        for req in project["dependencies"]
    }
    third_party = {
        name for name in imported_top_level_modules()
        if name not in sys.stdlib_module_names and name != "idealcrystal"
    }
    assert third_party - declared == set()
