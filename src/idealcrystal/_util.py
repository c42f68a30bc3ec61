"""Small shared helpers."""

from __future__ import annotations

import contextlib
import gc
import math

import numpy as np

from .errors import ConfigError


def finite_positive(name: str, value) -> float:
    """value as a float; ConfigError unless it is finite and positive."""
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be finite and positive, got {value:g}")
    return value


def check_array_size(rows: int, row_bytes: int, what: str) -> None:
    """ConfigError when an array of rows rows of row_bytes bytes each is
    past the largest size numpy can make, ``np.intp`` bytes. A smaller one
    can still exhaust memory, and a MemoryError tells the caller so."""
    if rows * row_bytes > np.iinfo(np.intp).max:
        raise ConfigError(
            f"{what} needs an array of {rows} rows of {row_bytes} bytes, "
            "past the largest array numpy can make"
        )


@contextlib.contextmanager
def gc_paused():
    """Run the block with Python's cyclic garbage collector disabled.

    For code that builds many small containers none of which can be part
    of a reference cycle (the per-row lists of a point file): each
    collection the allocations would set off scans every tracked object
    in the process and frees nothing. Reference counting still frees the
    containers as usual. On exit, normal or by an exception, the collector
    is enabled again only if it was enabled on entry. The collector's
    state is per process: a thread that disables it while another thread
    is inside this block finds it enabled again when that block ends.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
