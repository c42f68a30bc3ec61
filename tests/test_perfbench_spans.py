"""The benchmark tracer (perfbench/spans.py) finds every name it wraps.

The tracer patches package functions by name and raises on a missing one,
so a refactor that drops or renames a traced function fails here instead
of only in a traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

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
