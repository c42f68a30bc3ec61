"""Small shared helpers."""

from __future__ import annotations

import contextlib
import gc
import os

from .errors import ConfigError


def query_workers() -> int:
    """Worker count for parallel neighbor queries.

    Controlled by the CRYSTAL_THREADS environment variable; unset means
    one thread. Each query with more than one worker starts and joins its
    threads, which costs more than it saves on the windows measured so far
    and, on a busy machine, waits for the slowest thread. Results of the
    queries do not depend on this value.
    """
    raw = os.environ.get("CRYSTAL_THREADS")
    if raw is None or raw.strip() == "":
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"CRYSTAL_THREADS must be an integer, got {raw!r}")
    return max(1, n)


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
