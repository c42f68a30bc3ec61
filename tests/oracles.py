"""Exhaustive oracles the test suites check the package against."""

import numpy as np

from idealcrystal.errors import ConfigError, WindowTooSmall
from idealcrystal.pointset import WindowedSet


class CoreTooLarge(Exception):
    """Exhaustive search refused: the core exceeds the factorial-cost bound."""


def brute_force_almost_period(S: WindowedSet, tau, epsilon: float) -> bool:
    """Exhaustive oracle for is_almost_period (cores of at most 8 points).

    Tries every injection of the core into the window by backtracking;
    true iff some injection keeps all displacements below epsilon.
    """
    tau = np.asarray(tau, dtype=np.float64).reshape(-1)
    epsilon = float(epsilon)
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    t = float(np.linalg.norm(tau))
    if t + epsilon >= S.radius:
        raise ConfigError("|tau| + epsilon must stay below R")
    core = np.flatnonzero(S.norms() <= S.radius - (t + epsilon))
    if len(core) == 0:
        raise WindowTooSmall("no core points survive the margin")
    if len(core) > 8:
        raise CoreTooLarge(f"core has {len(core)} points, oracle cap is 8")

    cand = []
    for i in core:
        shifted = S.points[i] + tau
        d = np.linalg.norm(S.points - shifted, axis=1)
        cand.append(list(np.flatnonzero(d < epsilon)))

    used = set()

    def assign(k: int) -> bool:
        if k == len(cand):
            return True
        for j in cand[k]:
            if j not in used:
                used.add(j)
                if assign(k + 1):
                    return True
                used.remove(j)
        return False

    return assign(0)
