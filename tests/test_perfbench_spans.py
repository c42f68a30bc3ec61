"""The benchmark tracer (perfbench/spans.py) finds every name it wraps.

The tracer patches package functions by name and raises on a missing one,
so a refactor that drops or renames a traced function fails here instead
of only in a traced benchmark run.
"""

import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from spans import TARGETS, Tracer  # noqa: E402


def _bound():
    return [getattr(importlib.import_module(f"idealcrystal.{mod}"), attr)
            for mod, attr, _, _ in TARGETS]


def test_tracer_targets_resolve():
    before = _bound()
    tracer = Tracer()
    try:
        tracer.install()
        assert all(a is not b for a, b in zip(_bound(), before))
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(_bound(), before))


def _tracer_only_imports(module: str) -> list[str]:
    """Names a module imports under `# noqa: F401`, i.e. without using them."""
    source = (ROOT / "src" / "idealcrystal" / f"{module}.py").read_text()
    lines = source.splitlines()
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and any(
            "# noqa: F401" in line
            for line in lines[node.lineno - 1:node.end_lineno]
        ):
            names += [alias.asname or alias.name for alias in node.names]
    return names


def test_tracer_only_imports_are_traced():
    # an import kept only so the tracer can wrap it must still be wrapped:
    # once a benchmark change drops its span, this lists the import to drop
    traced = {(mod, attr) for mod, attr, _, _ in TARGETS}
    for module in ("crystal", "almost_period"):
        names = _tracer_only_imports(module)
        assert names, module
        stale = [n for n in names if (module, n) not in traced]
        assert not stale, f"{module}.py imports {stale} for no traced span"
