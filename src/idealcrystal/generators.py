"""Seeded generators of positive and negative control point sets.

gen_ideal_crystal builds exactly the structures the recovery pipeline must
find. gen_perturbed_lattice at an irrational frequency is almost periodic
but not finite type (the difference set smears), at a rational frequency it
collapses back to a crystal. gen_cut_and_project produces the canonical
finite-type-but-aperiodic control, and gen_poisson is the structureless
null model.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from .crystal import COORD_TOL, _lattice_points, _ulp_widened
from .errors import (
    AmplitudeTooLarge,
    ConfigError,
    CosetCollision,
    EmptyAcceptanceWindow,
    SingularBasis,
)
from .pointset import TOL_EQ, WindowedSet


def _basis_and_inverse(basis) -> tuple[np.ndarray, np.ndarray]:
    B = np.array(basis, dtype=np.float64)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ConfigError(f"basis must be square, got shape {B.shape}")
    det = np.linalg.det(B)
    floor = 1e-9 * float(np.prod(np.linalg.norm(B, axis=1)))
    if not abs(det) > floor:
        raise SingularBasis(f"|det| = {abs(det):.3e} is numerically zero")
    return B, np.linalg.inv(B)


def _shortest_lattice_vector(B: np.ndarray) -> float:
    """Length of the shortest nonzero lattice vector (enumerated)."""
    p = B.shape[0]
    min_row = float(np.linalg.norm(B, axis=1).min())
    sigma_min = float(np.linalg.svd(B, compute_uv=False).min())
    m = max(2, int(np.ceil(min_row / sigma_min)) + 1)
    grids = np.meshgrid(*[np.arange(-m, m + 1)] * p, indexing="ij")
    n = np.stack([g.ravel() for g in grids], axis=1)
    n = n[np.any(n != 0, axis=1)]
    return float(np.linalg.norm(n @ B, axis=1).min())


def gen_ideal_crystal(basis, F, R: float, label: str = "") -> WindowedSet:
    """All points t + f with t in the lattice of basis, f in F, |t+f| <= R."""
    B, inv = _basis_and_inverse(basis)
    p = B.shape[0]
    F = np.asarray(F, dtype=np.float64)
    if F.ndim != 2 or F.shape[1] != p:
        raise ConfigError(f"residues need shape (k, {p}), got {F.shape}")
    if len(F) == 0:
        raise ConfigError("residue set F must not be empty")
    R = float(R)
    if R <= 0:
        raise ConfigError("radius must be positive")

    fracs = np.mod(F @ inv, 1.0)
    for i in range(len(F)):
        for k in range(i + 1, len(F)):
            d = np.abs(fracs[i] - fracs[k])
            if np.all(np.minimum(d, 1.0 - d) <= COORD_TOL):
                raise CosetCollision(
                    f"residues {F[i].tolist()} and {F[k].tolist()} "
                    "coincide modulo the lattice"
                )

    max_f = float(np.linalg.norm(F, axis=1).max())
    pieces = []
    for _, chunk in _lattice_points(B, inv, _ulp_widened(R + max_f)):
        for f in F:
            pts = chunk + f
            keep = np.linalg.norm(pts, axis=1) <= R + TOL_EQ
            if keep.any():
                pieces.append(pts[keep])
    if not pieces:
        points = np.zeros((0, p))
    else:
        points = np.concatenate(pieces)
    return WindowedSet(points, R, label or f"crystal(p={p}, |F|={len(F)})")


def gen_perturbed_lattice(basis, amplitude: float, freqs, R: float,
                          label: str = "") -> WindowedSet:
    """Lattice points displaced by amplitude * sin(2 pi <freqs, n>) along
    the first basis direction.

    Irrational frequency components make the displacement field almost
    periodic but never exactly repeating, so the difference set fills in
    and the output is not finite type; rational frequencies give an exact
    superlattice period instead.
    """
    B, inv = _basis_and_inverse(basis)
    p = B.shape[0]
    amplitude = float(amplitude)
    if amplitude < 0:
        raise ConfigError("amplitude must be non-negative")
    freqs = np.asarray(freqs, dtype=np.float64).reshape(-1)
    if len(freqs) != p:
        raise ConfigError(f"freqs has dim {len(freqs)}, expected {p}")
    R = float(R)
    if R <= 0:
        raise ConfigError("radius must be positive")
    if amplitude > 0:
        sep = _shortest_lattice_vector(B)
        if amplitude >= sep / 4:
            raise AmplitudeTooLarge(
                f"amplitude {amplitude:g} >= min_separation/4 = {sep / 4:g}"
            )
    u = B[0] / np.linalg.norm(B[0])

    pieces = []
    for n, chunk in _lattice_points(B, inv, _ulp_widened(R + amplitude)):
        shift = amplitude * np.sin(2 * np.pi * (n @ freqs))
        pts = chunk + shift[:, None] * u
        keep = np.linalg.norm(pts, axis=1) <= R + TOL_EQ
        if keep.any():
            pieces.append(pts[keep])
    points = np.concatenate(pieces) if pieces else np.zeros((0, p))
    return WindowedSet(points, R, label or f"perturbed(amp={amplitude:g})")


def gen_cut_and_project(slope: float, window, R: float,
                        label: str = "") -> WindowedSet:
    """1-D model set: x = m + n*slope for integer (m, n) with the internal
    coordinate m*slope - n inside the half-open acceptance interval.

    Golden-ratio slope with window [0, 1) gives the two-tile chain whose
    tile lengths have ratio equal to the slope.
    """
    slope = float(slope)
    lo, hi = (float(window[0]), float(window[1]))
    if not hi > lo:
        raise EmptyAcceptanceWindow(f"acceptance interval [{lo:g}, {hi:g}) is empty")
    R = float(R)
    if R <= 0:
        raise ConfigError("radius must be positive")

    span = max(abs(lo), abs(hi))
    M = int(np.ceil((R + abs(slope) * span) / (1 + slope * slope))) + 3
    m = np.arange(-M, M + 1)
    y = m * slope
    # integers n with lo <= y - n < hi, i.e. y - hi < n <= y - lo
    n_hi = np.floor(y - lo)
    n_lo = np.floor(y - hi) + 1
    pts = []
    width = int(np.max(n_hi - n_lo)) + 1
    for k in range(width):
        n = n_lo + k
        ok = n <= n_hi
        x = m[ok] + n[ok] * slope
        pts.append(x[np.abs(x) <= R + TOL_EQ])
    points = np.concatenate(pts) if pts else np.zeros(0)
    if len(points) == 0:
        raise EmptyAcceptanceWindow(
            "no integer pair lands in the acceptance interval within the window"
        )
    return WindowedSet(
        points.reshape(-1, 1), R,
        label or f"cut_project(slope={slope:.6g})",
    )


def gen_poisson(intensity: float, R: float, seed: int, dim: int = 1,
                label: str = "") -> WindowedSet:
    """Homogeneous Poisson sample in the ball |x| <= R, deduplicated.

    Seeded and bit-stable: the count is Poisson(intensity * volume) and
    points are uniform in the ball by rejection from the cube.
    """
    intensity = float(intensity)
    if intensity <= 0:
        raise ConfigError("intensity must be positive")
    R = float(R)
    if R <= 0:
        raise ConfigError("radius must be positive")
    if dim < 1:
        raise ConfigError("dim must be at least 1")
    rng = np.random.default_rng(seed)
    volume = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1) * R**dim
    count = int(rng.poisson(intensity * volume))
    pts = np.zeros((0, dim))
    while len(pts) < count:
        need = count - len(pts)
        cand = rng.uniform(-R, R, size=(max(need * 2, 16), dim))
        cand = cand[np.linalg.norm(cand, axis=1) <= R]
        pts = np.concatenate([pts, cand[:need]])
    if len(pts) >= 2:
        close = cKDTree(pts).query_pairs(TOL_EQ, output_type="ndarray")
        if len(close):
            drop = np.unique(close[:, 1])
            pts = np.delete(pts, drop, axis=0)
    return WindowedSet(
        pts, R, label or f"poisson(intensity={intensity:g}, seed={seed})"
    )
