"""Seeded generators of positive and negative control point sets.

gen_ideal_crystal builds exactly the structures the recovery pipeline must
find. gen_perturbed_lattice at an irrational frequency is almost periodic
but not finite type (the difference set smears), at a rational frequency it
collapses back to a crystal. gen_cut_and_project produces the canonical
finite-type-but-aperiodic control, and gen_poisson is the structureless
null model.

The lattice generators take their lattice points from the decomposition
check's ball enumeration (crystal._lattice_points), in one array, and check
their basis with crystal.build_lattice under their own determinant floor.
Every generator refuses with ConfigError what it cannot build from: a
radius or intensity that is not finite and positive, a non-finite basis,
slope, interval, frequency or residue, lattice coordinates past int64, a
Poisson seed that is not an integer >= 0 or dim that is not one >= 1 (a
bool is neither), a Poisson mean numpy cannot draw and an array past the
largest size numpy can make (``_check_array_size``), which numpy would
refuse with a ValueError of its own.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from ._util import finite_positive
from .crystal import (COORD_TOL, _lattice_points, _same_coset, _ulp_widened,
                      build_lattice)
from .errors import (
    AmplitudeTooLarge,
    ConfigError,
    CosetCollision,
    EmptyAcceptanceWindow,
)
from .pointset import TOL_EQ, WindowedSet, _row_norms

#: The generators refuse a basis with |det| <= _DET_FLOOR * prod |B_j|, a
#: looser floor than build_lattice's default.
_DET_FLOOR = 1e-9


def _check_array_size(rows: int, row_bytes: int, what: str) -> None:
    """ConfigError when an array of rows rows of row_bytes bytes each is
    past the largest size numpy can make, ``np.intp`` bytes. A smaller one
    can still exhaust memory, and a MemoryError tells the caller so."""
    if rows * row_bytes > np.iinfo(np.intp).max:
        raise ConfigError(
            f"{what} needs an array of {rows} rows of {row_bytes} bytes, "
            "past the largest array numpy can make"
        )


def _ball_points(B: np.ndarray, inv: np.ndarray, radius: float):
    """_lattice_points of the ball |t| <= radius; ConfigError when one of
    its coordinate bounds (crystal._coord_bounds) passes 2^62, short of the
    int64 range that the enumeration casts its rows to."""
    with np.errstate(over="ignore"):  # inf fails the bound
        bound = radius * float(np.linalg.norm(inv, axis=0).max())
    if not bound < 2.0**62:
        raise ConfigError(
            f"radius {radius:g} needs lattice coordinates past int64"
        )
    return _lattice_points(B, inv, radius)


def gen_ideal_crystal(basis, F, R: float, label: str = "") -> WindowedSet:
    """All points t + f with t in the lattice of basis, f in F, |t+f| <= R.

    The lattice points t are the ball |t| <= R + max |f| (_lattice_points),
    so t + f is formed from the same t = n B for every residue.
    """
    B = np.array(basis, dtype=np.float64)
    inv = build_lattice(B, det_floor=_DET_FLOOR).inv
    p = B.shape[0]
    F = np.asarray(F, dtype=np.float64)
    if F.ndim != 2 or F.shape[1] != p:
        raise ConfigError(f"residues need shape (k, {p}), got {F.shape}")
    if len(F) == 0:
        raise ConfigError("residue set F must not be empty")
    if not np.isfinite(F).all():
        raise ConfigError("residues must be finite")
    R = finite_positive("radius", R)

    fracs = np.mod(F @ inv, 1.0)
    for i in range(len(F) - 1):
        same = np.flatnonzero(_same_coset(fracs[i + 1:], fracs[i], COORD_TOL))
        if len(same):
            k = i + 1 + same[0]
            raise CosetCollision(
                f"residues {F[i].tolist()} and {F[k].tolist()} "
                "coincide modulo the lattice"
            )

    max_f = float(np.linalg.norm(F, axis=1).max())
    t = _ball_points(B, inv, _ulp_widened(R + max_f))[1]
    pieces = []
    for f in F:
        pts = t + f
        keep = _row_norms(pts) <= R + TOL_EQ
        pieces.append(pts.compress(keep, axis=0))
    del t, pts  # before WindowedSet copies and sorts the points
    return WindowedSet(np.concatenate(pieces), R,
                       label or f"crystal(p={p}, |F|={len(F)})")


def gen_perturbed_lattice(basis, amplitude: float, freqs, R: float,
                          label: str = "") -> WindowedSet:
    """Lattice points displaced by amplitude * sin(2 pi <freqs, n>) along
    the first basis direction.

    Irrational frequency components make the displacement field almost
    periodic but never exactly repeating, so the difference set fills in
    and the output is not finite type; rational frequencies give an exact
    superlattice period instead.
    """
    B = np.array(basis, dtype=np.float64)
    inv = build_lattice(B, det_floor=_DET_FLOOR).inv
    p = B.shape[0]
    amplitude = float(amplitude)
    if not amplitude >= 0:
        raise ConfigError("amplitude must be non-negative")
    freqs = np.asarray(freqs, dtype=np.float64).reshape(-1)
    if len(freqs) != p:
        raise ConfigError(f"freqs has dim {len(freqs)}, expected {p}")
    if not np.isfinite(freqs).all():
        raise ConfigError("freqs must be finite")
    R = finite_positive("radius", R)
    if amplitude > 0:
        # a basis row is a lattice vector, so the shortest nonzero one lies
        # in the ball of the shortest row's length
        n, t = _lattice_points(B, inv,
                               float(np.linalg.norm(B, axis=1).min()))
        sep = float(np.linalg.norm(t[np.any(n != 0, axis=1)], axis=1).min())
        if amplitude >= sep / 4:
            raise AmplitudeTooLarge(
                f"amplitude {amplitude:g} >= min_separation/4 = {sep / 4:g}"
            )
    u = B[0] / np.linalg.norm(B[0])

    n, t = _ball_points(B, inv, _ulp_widened(R + amplitude))
    pts = t + amplitude * np.sin(2 * np.pi * (n @ freqs))[:, None] * u
    points = pts.compress(np.linalg.norm(pts, axis=1) <= R + TOL_EQ, axis=0)
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
    if not all(map(math.isfinite, (slope, lo, hi))):
        raise ConfigError("slope and acceptance interval must be finite")
    if not hi > lo:
        raise EmptyAcceptanceWindow(f"acceptance interval [{lo:g}, {hi:g}) is empty")
    R = finite_positive("radius", R)

    span = max(abs(lo), abs(hi))
    M = int(np.ceil((R + abs(slope) * span) / (1 + slope * slope))) + 3
    _check_array_size(2 * M + 1, 8, f"radius {R:g}")
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
    intensity = finite_positive("intensity", intensity)
    R = finite_positive("radius", R)
    # bool is an int to Python, neither a dimension (as in a JSON point
    # file) nor a seed
    if isinstance(dim, bool) or not (isinstance(dim, (int, np.integer))
                                     and dim >= 1):
        raise ConfigError(f"dim must be an integer >= 1, got {dim!r}")
    if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer))
                                      and seed >= 0):
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    try:
        volume = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1) * R**dim
        count = int(rng.poisson(intensity * volume))
    except (OverflowError, ValueError) as e:
        raise ConfigError(
            f"cannot draw a Poisson count for intensity {intensity:g} in the "
            f"ball of radius {R:g} in dimension {dim}: {e}"
        ) from None
    # each round draws twice the points still missing
    _check_array_size(max(2 * count, 16), 8 * dim,
                      f"a Poisson count of {count} points")
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
