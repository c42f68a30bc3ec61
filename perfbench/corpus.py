"""Seeded instances of the four workloads and their expected outcomes.

The crystal recipes are copies of the criterion-1 (p = 3 branch) and
criterion-6 recipes of the acceptance gate, so a benchmark seed picks
instances the release gate already vouches for. The seed never reaches
the program: a worker only receives the serialized window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import special_ortho_group

from idealcrystal.generators import (
    gen_cut_and_project,
    gen_ideal_crystal,
    gen_perturbed_lattice,
)
from idealcrystal.pointset import WindowedSet

GOLDEN = (1 + np.sqrt(5.0)) / 2

#: Criterion-1 instance seeds whose recipe gives a p = 3 crystal.
CRITERION1_P3 = tuple(range(4, 100, 5))
#: The slowest criterion-1 instance (~3e5 points); in every crystal-3d corpus.
SLOW_P3 = 79
#: Criterion-6 instance seeds the acceptance gate runs.
CRITERION6 = tuple(range(25))

#: The README's two-coset plane.
PLANE_BASIS = ((1.0, 0.0), (0.3, 1.1))
PLANE_RESIDUES = ((0.0, 0.0), (0.5, 0.55))
PLANE_RADIUS = 30.0

WHY = {
    "crystal-3d": "criterion-1 p=3 crystals of ~3e5 points, seed 79 in every "
                  "corpus: difference_vectors, load_points and "
                  "verify_decomposition do the work, the candidate screen "
                  "almost none",
    "cone-2d": "criterion-6 2-D crystals (R=62, ~1.2e4 points) under "
               "paper-cone: 3 ladder steps re-sweep the difference set on "
               "subwindows and every verified period is snapped and refined",
    "negatives": "Fibonacci chain, irrational perturbed lattice (20,000 "
                 "candidates) and a one-vacancy plane: the almost-period "
                 "screen and the candidate loop work in rejection mode",
    "hostile": "planes scaled by 1e-2 and 1e-8 and seed 79 under paper-cone: "
               "the difference-set pair blow-up, a unit-dependent false "
               "negative and an address-space cap hit",
}


@dataclass
class Instance:
    """One window to analyse and the rule its report must satisfy.

    expect is "crystal" (basis and residues give the generating
    decomposition), "no-crystal" (stage must match; witness, when set, must
    be the only witness), or "crystal-or-staged" (a verified crystal with
    the right |det|, or any staged NoCrystalEvidence).
    """

    name: str
    points: WindowedSet
    config: dict = field(default_factory=dict)
    expect: str = "crystal"
    basis: np.ndarray | None = None
    residues: np.ndarray | None = None
    stage: str | None = None
    witness: np.ndarray | None = None

    def record(self) -> dict:
        return {"name": self.name, "points": len(self.points),
                "dim": self.points.dim, "config": self.config,
                "expect": self.expect, "stage": self.stage}

    def check(self, report: dict) -> str | None:
        """None when the report satisfies the instance's rule, else why not."""
        verdict = report["verdict"]
        if self.expect == "no-crystal":
            if verdict != "no-crystal" or report["stage"] != self.stage:
                return f"expected no-crystal at {self.stage}, got {verdict} " \
                       f"at {report['stage']}"
            if self.witness is not None:
                wit = np.asarray(report["witnesses"], dtype=np.float64)
                if wit.shape != (1, self.points.dim) or not np.allclose(
                        wit[0], self.witness, rtol=0, atol=1e-9):
                    return f"expected the vacancy {self.witness.tolist()} " \
                           f"as the only witness, got {wit.tolist()}"
            return None
        if verdict == "no-crystal":
            if self.expect == "crystal-or-staged" and report["stage"]:
                return None
            return f"expected a crystal, got no-crystal at " \
                   f"{report['stage']}: {report['reason']}"
        # the rule of `idealcrystal roundtrip`: full coverage, an integer |det|
        # ratio against the generating basis and a consistent residue count
        if report["coverage_in"] != 1.0 or report["coverage_out"] != 1.0:
            return f"coverage {report['coverage_in']}/{report['coverage_out']}"
        ratio = abs(float(np.linalg.det(self.basis))) / abs(report["det"])
        k = max(1, round(ratio))
        if abs(ratio - k) > 1e-6 * k:
            return f"|det| ratio {ratio!r} is not an integer"
        if len(self.residues) != k * len(report["residues"]):
            return f"{len(report['residues'])} residues for |det| ratio {k} " \
                   f"and {len(self.residues)} generating residues"
        return None


def _criterion1_p3(seed: int):
    """Criterion-1 recipe, p = 3 branch: rotated near-cubic basis, |F| = 1,
    R = 40 * longest basis row."""
    if seed % 5 != 4:
        raise ValueError(f"criterion-1 seed {seed} is not a p = 3 instance")
    rng = np.random.default_rng(90_000 + seed)
    Q = special_ortho_group.rvs(3, random_state=seed)
    B = Q @ np.diag(rng.uniform(0.9, 1.1, 3))
    R = 40.0 * float(np.linalg.norm(B, axis=1).max())
    return B, np.zeros((1, 3)), R


def _criterion6(seed: int):
    """Criterion-6 recipe: rotated near-square 2-D basis, |F| = 1, R = 62."""
    rng = np.random.default_rng(74_000 + seed)
    theta = float(rng.uniform(0, 2 * np.pi))
    c, s = np.cos(theta), np.sin(theta)
    B = np.array([[c, -s], [s, c]]) @ np.diag(rng.uniform(0.9, 1.1, 2))
    return B, np.zeros((1, 2)), 62.0


def _crystal(name, B, F, R, config=None, expect="crystal") -> Instance:
    return Instance(name, gen_ideal_crystal(B, F, R), dict(config or {}),
                    expect, np.asarray(B), np.asarray(F))


def _plane(scale: float = 1.0) -> Instance:
    """The two-coset plane with every coordinate multiplied by scale.

    The unit plane is generated and then scaled: the generator pads its
    lattice enumeration by an absolute 1.0, which at scale 1e-8 would
    enumerate ~1e16 lattice points.
    """
    c = float(scale)
    B, F = np.array(PLANE_BASIS), np.array(PLANE_RESIDUES)
    S = gen_ideal_crystal(B, F, PLANE_RADIUS)
    if c != 1.0:
        S = WindowedSet(S.points * c, PLANE_RADIUS * c, f"plane-x{c:g}")
    return Instance(f"plane-x{c:g}", S, {}, "crystal", B * c, F * c)


def _vacancy_plane() -> Instance:
    """Two-coset plane minus the point nearest (0.85 R, 0). The subwindow
    screen still verifies periods away from the hole, so only the final
    decomposition check on the full window sees it."""
    S, R = _plane().points, PLANE_RADIUS
    k = int(np.argmin(np.linalg.norm(S.points - [0.85 * R, 0.0], axis=1)))
    hole = S.points[k].copy()
    S = WindowedSet(np.delete(S.points, k, axis=0), R, "plane-vacancy")
    return Instance("plane-vacancy", S, {}, "no-crystal",
                    stage="decomposition", witness=hole)


def pick(seed: int, pool, k: int, always=()) -> list[int]:
    """always plus k - len(always) members of pool chosen by seed."""
    rest = [s for s in pool if s not in always]
    chosen = np.random.default_rng(seed).choice(len(rest), k - len(always),
                                                replace=False)
    return list(always) + sorted(rest[i] for i in chosen)


def build(workload: str, seed: int) -> list[Instance]:
    """The instances of one workload for one benchmark seed."""
    if workload == "crystal-3d":
        return [_crystal(f"c1-seed{s}", *_criterion1_p3(s))
                for s in pick(seed, CRITERION1_P3, 2, always=(SLOW_P3,))]
    if workload == "cone-2d":
        return [_crystal(f"c6-seed{s}", *_criterion6(s),
                         config={"strategy": "paper-cone"})
                for s in pick(seed, CRITERION6, 5)]
    if workload == "negatives":
        return [
            Instance("fibonacci", gen_cut_and_project(GOLDEN, (0.0, 1.0),
                                                      1000.0),
                     {"r_max": 500.0}, "no-crystal",
                     stage="period-verification"),
            Instance("perturbed-sqrt2", gen_perturbed_lattice(
                [[1.0]], 0.1, [np.sqrt(2.0)], 400.0), {}, "no-crystal",
                stage="period-verification"),
            _vacancy_plane(),
        ]
    if workload == "hostile":
        return [
            _plane(1e-2),
            _plane(1e-8),
            _crystal(f"c1-seed{SLOW_P3}-cone", *_criterion1_p3(SLOW_P3),
                     config={"strategy": "paper-cone"},
                     expect="crystal-or-staged"),
        ]
    raise ValueError(f"unknown workload {workload!r}")

