"""Run configuration for the recovery pipeline and the CLI.

Three settings: the basis strategy, an optional top candidate radius and
the exact-period tolerance. The window decides the rest: recover_crystal
derives the candidate annulus floor r_min = max(min_sep/2, 4 tol_exact)
from it, and r_max (when unset) enables the escalation ladder that widens
the candidate annulus until it covers the covering radius of the recovered
lattice, or R/2. The paper-cone strategy uses the paper's own axis cones,
whose lower radius is 3p^2.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ._util import finite_positive
from .almost_period import TOL_EXACT
from .errors import ConfigError

STRATEGIES = ("greedy-det", "paper-cone")


@dataclass
class RunConfig:
    strategy: str = "greedy-det"
    r_max: float | None = None
    tol_exact: float = TOL_EXACT

    def validate(self) -> "RunConfig":
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        finite_positive("tol_exact", self.tol_exact)
        if self.r_max is not None:
            finite_positive("r_max", self.r_max)
        return self

    def echo(self) -> dict:
        """Plain dict of the configured values, for the report."""
        return {f.name: getattr(self, f.name) for f in fields(self)}
