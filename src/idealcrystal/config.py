"""Run configuration for the recovery pipeline and the CLI.

Fields left as None are resolved against the input window at run time:
r_min defaults to max(min_sep/2, 4 tol_exact), and r_max (when unset)
enables the escalation ladder that widens the candidate annulus until it
covers the covering radius of the recovered lattice, or R/2.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .almost_period import TOL_EXACT
from .errors import ConfigError

STRATEGIES = ("greedy-det", "paper-cone")


@dataclass
class RunConfig:
    strategy: str = "greedy-det"
    cone_scale: float = 1.0
    r_min: float | None = None
    r_max: float | None = None
    tol_exact: float = TOL_EXACT
    min_points: int = 50

    def validate(self) -> "RunConfig":
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        if not self.cone_scale > 0:
            raise ConfigError("cone_scale must be positive")
        if not self.tol_exact > 0:
            raise ConfigError("tol_exact must be positive")
        if self.r_min is not None and not self.r_min > 0:
            raise ConfigError("r_min must be positive")
        if self.r_max is not None and not self.r_max > 0:
            raise ConfigError("r_max must be positive")
        if self.r_min is not None and self.r_max is not None:
            if not self.r_min < self.r_max:
                raise ConfigError("need r_min < r_max")
        if self.min_points < 2:
            raise ConfigError("min_points must be at least 2")
        return self

    def echo(self) -> dict:
        """Plain dict of the configured values, for the report."""
        return {f.name: getattr(self, f.name) for f in fields(self)}
