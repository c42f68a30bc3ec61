"""Small shared helpers."""

from __future__ import annotations

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
