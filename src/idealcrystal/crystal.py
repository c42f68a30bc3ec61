"""Lattice arithmetic, residue extraction, and crystal recovery.

The pipeline mirrors the constructive argument: measure the denseness
radius and the difference-set gap near the origin, harvest candidate
translations as the differences c - a from one anchor a near the origin (a
period T with |T| <= r maps a onto a window point), reject most with one
batched probe pass per ladder step and keep the rest that pass exact
verification on a subwindow core. A candidate is in A - A already, so it is
verified as it stands. The verified periods are closed into one running
lattice by rational refinement, seeded by the shortest independent ones
once they span p directions. The strategy only gates the verdict:
paper-cone also needs a verified period inside every axis cone, whose
diagonal dominance certifies independence. Once the ladder stops, residues
are cut near the origin and both inclusions of A = L + F are verified on
the window, once per run.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np
from scipy.spatial import cKDTree

from ._util import query_workers
from .almost_period import (
    TOL_EXACT,
    FailureWitness,
    Period,
    _anchor_differences,
    _check_anchor_core,
    _frozen,
    verify_exact_period,
)
from .config import RunConfig
from .errors import ConfigError, DegenerateGap, SingularBasis, WindowTooSmall
from .geometry import _core_max, finite_type_gap
# candidate_almost_periods, is_almost_period, snap_to_period,
# denseness_radius and difference_vectors are not called here (each ladder
# step harvests its own annulus, the probe pass and verify_exact_period
# check periods, a candidate is an anchor difference, which snap_to_period
# would return unchanged, _local_scales measures D, finite_type_gap sweeps
# pairs); the benchmark tracer (perfbench/spans.py) wraps them under this
# module
from .almost_period import (candidate_almost_periods,  # noqa: F401
                            is_almost_period, snap_to_period)
from .geometry import denseness_radius, difference_vectors  # noqa: F401
from .pointset import TOL_EQ, WindowedSet, window_restrict

log = logging.getLogger(__name__)

#: Integrality tolerance for lattice coordinates.
COORD_TOL = 1e-6

#: Subwindow points nearest the origin that each ladder step's probe pass
#: translates by every candidate.
_PROBES = 32

#: Minimal sine of the angle between a new greedy basis vector and the
#: span of the ones already chosen.
_ANGLE_FLOOR = 0.02

#: Window points nearest the origin on which D and the minimum separation
#: are measured. Their neighbours come from them and from the shell of
#: window points just outside them.
_LOCAL_POINTS = 256


def cone_filter(vectors, j: int, p: int, scale: float = 1.0) -> np.ndarray:
    """Vectors x with scale*3p^2 < |x| < (1+(2p)^-2) |<x, e_j>|.

    vectors is one p-vector or rows of p columns; j is 1-based. scale
    shrinks only the lower radius bound; the angular part is scale-free.
    """
    if not 1 <= j <= p:
        raise ConfigError(f"axis j={j} out of range 1..{p}")
    if not scale > 0:
        raise ConfigError("scale must be positive")
    vecs = np.asarray(vectors, dtype=np.float64)
    if vecs.shape == (p,):
        vecs = vecs[None]
    elif vecs.ndim != 2 or vecs.shape[1] != p:
        raise ConfigError(
            f"need one {p}-vector or rows of {p} columns, got shape {vecs.shape}"
        )
    return vecs[_cone_mask(vecs, j, p, scale)]


def _cone_mask(vecs: np.ndarray, j: int, p: int, scale: float) -> np.ndarray:
    """Row mask of cone_filter for validated arguments."""
    norms = np.linalg.norm(vecs, axis=1)
    axis = np.abs(vecs[:, j - 1])
    return (norms > scale * 3 * p * p) & (norms < (1 + 0.25 / (p * p)) * axis)


def dominance_check(T, j: int, p: int) -> bool:
    """Both dominance inequalities for T in axis role j (1-based).

    |T| < (1 + 1/(2 p^2)) |T_j| and every off-axis component stays below
    |T_j| / (p - 1); rows satisfying this per axis give a strictly
    diagonally dominant matrix.
    """
    if p < 2:
        raise ConfigError("dominance_check needs dimension p >= 2")
    if not 1 <= j <= p:
        raise ConfigError(f"axis j={j} out of range 1..{p}")
    T = np.asarray(T, dtype=np.float64).reshape(-1)
    if len(T) != p:
        raise ConfigError(f"T has dim {len(T)}, expected {p}")
    axis = abs(T[j - 1])
    if not np.linalg.norm(T) < (1 + 0.5 / (p * p)) * axis:
        return False
    off = np.abs(np.delete(T, j - 1))
    return bool(off.max(initial=0.0) < axis / (p - 1))


def independence_det(vectors) -> float:
    """Determinant of the matrix whose rows are the given p vectors."""
    B = np.asarray(vectors, dtype=np.float64)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ConfigError(f"need p vectors of dimension p, got shape {B.shape}")
    return float(np.linalg.det(B))


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice {n1 T1 + ... + np Tp} with membership arithmetic.

    Rows of basis are the generators; coords(x) = x @ inv are the real
    coefficients, integral within coord_tol exactly for members.
    """

    basis: np.ndarray
    det: float
    inv: np.ndarray
    coord_tol: float

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def coords(self, x) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.inv

    def nearest(self, x) -> np.ndarray:
        """Lattice point with the rounded coordinates of x."""
        return np.round(self.coords(x)) @ self.basis

    def distance(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.linalg.norm(x - self.nearest(x), axis=-1)

    def contains(self, x):
        """Membership within coord_tol, elementwise over leading axes."""
        c = self.coords(x)
        return np.all(np.abs(c - np.round(c)) <= self.coord_tol, axis=-1)


def build_lattice(vectors, coord_tol: float = COORD_TOL,
                  det_floor: float | None = None) -> Lattice:
    """Lattice from p basis rows; SingularBasis below the det floor.

    det_floor defaults to 1e-6 * prod |T_j|, a scale-free threshold.
    """
    B = np.array(vectors, dtype=np.float64)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ConfigError(f"basis must be square, got shape {B.shape}")
    if not coord_tol > 0:
        raise ConfigError("coord_tol must be positive")
    det = float(np.linalg.det(B))
    if det_floor is None:
        det_floor = 1e-6 * float(np.prod(np.linalg.norm(B, axis=1)))
    if not abs(det) > det_floor:
        raise SingularBasis(
            f"|det| = {abs(det):.3e} at or below floor {det_floor:.3e}"
        )
    inv = np.linalg.inv(B)
    B.flags.writeable = False
    inv.flags.writeable = False
    return Lattice(basis=B, det=det, inv=inv, coord_tol=float(coord_tol))


def _hnf_rows(rows: list[list[int]], p: int) -> list[list[int]]:
    """Hermite-style basis of the integer row span (upper triangular,
    positive pivots, entries above each pivot reduced modulo it)."""
    work = [list(map(int, r)) for r in rows if any(r)]
    basis: list[list[int]] = []
    for col in range(p):
        while True:
            nz = [r for r in work if r[col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(r[col]))
            r0 = nz[0]
            for r in nz[1:]:
                q = r[col] // r0[col]
                if q:
                    for k in range(p):
                        r[k] -= q * r0[k]
            work = [r for r in work if any(r)]
        nz = [r for r in work if r[col] != 0]
        if not nz:
            raise SingularBasis(f"integer span is rank deficient at column {col}")
        pivot = nz[0]
        work.remove(pivot)
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        # clear this column from earlier basis rows so entries stay small
        for b in basis:
            q = b[col] // pivot[col]
            if q:
                for k in range(p):
                    b[k] -= q * pivot[k]
        basis.append(pivot)
    return basis


def refine_lattice(L: Lattice, periods, max_denominator: int = 64) -> Lattice:
    """Close L over the given verified periods.

    Periods outside the current lattice get rational lattice coordinates
    via continued fractions; the integer row span of everything (over the
    common denominator) is re-reduced to a basis. Merging repeats until no
    period moves: against a coarse basis a genuine period can need a
    denominator past the cap, yet fit easily once other periods have
    densified the lattice. Periods with no rational fit at the fixed point
    are dropped with a warning: at these window scales an incommensurate
    "period" is noise, not structure.
    """
    if max_denominator < 1:
        raise ConfigError("max_denominator must be at least 1")
    p = L.dim
    pending: list[np.ndarray] = []
    for item in periods:
        T = item.T if isinstance(item, Period) else item
        pending.append(np.asarray(T, dtype=np.float64))

    while True:
        extra: list[list[Fraction]] = []
        deferred: list[tuple[np.ndarray, float]] = []
        for T in pending:
            if bool(L.contains(T)):
                continue
            coords = L.coords(T)
            fracs = [Fraction(float(c)).limit_denominator(max_denominator)
                     for c in coords]
            err = max(abs(float(f) - float(c)) for f, c in zip(fracs, coords))
            if err > L.coord_tol:
                deferred.append((T, err))
                continue
            extra.append(fracs)
        if not extra:
            break

        denom = 1
        for fr in extra:
            for f in fr:
                denom = denom * f.denominator // math.gcd(denom, f.denominator)
        rows = [[denom if i == k else 0 for k in range(p)] for i in range(p)]
        for fr in extra:
            rows.append([int(f * denom) for f in fr])
        H = _hnf_rows(rows, p)
        new_basis = (np.array(H, dtype=np.float64) / denom) @ L.basis
        newL = build_lattice(new_basis, L.coord_tol)
        if not deferred:
            return newL
        if abs(newL.det) > abs(L.det) / 1.5:
            # merges changed nothing the deferred periods could use
            L = newL
            break
        L = newL
        pending = [T for T, _ in deferred]

    for T, err in deferred:
        log.warning(
            "dropping period %s: no rational coordinates with "
            "denominator <= %d (residual %.3e)",
            T.tolist(), max_denominator, err,
        )
    return L


def _coord_bounds(inv: np.ndarray, radius: float) -> list[int]:
    """Per-axis bound b_i with |n_i| < b_i for every n B inside the ball."""
    return [int(np.floor(radius * np.linalg.norm(inv[:, i]))) + 1
            for i in range(inv.shape[1])]


def _ulp_widened(radius: float) -> float:
    """radius widened by a few ulps: a point t + f that a caller keeps by
    its own norm test then has |t| inside the enumeration radius
    |t + f| + max |f|, whatever the rounding of either norm."""
    return radius * (1.0 + 8 * np.finfo(np.float64).eps)


def _lattice_points(basis: np.ndarray, inv: np.ndarray, radius: float):
    """Yield (n, t = n B) for the lattice points with |t| <= radius + TOL_EQ
    in lexicographic order of n, the integer coordinates, in blocks.

    The first p - 1 coordinates run over the _coord_bounds box. For each
    such column u = n_1 b_1 + ... + n_{p-1} b_{p-1}, the last coordinate k
    runs over the solutions of |u + k b_p|^2 <= (radius + TOL_EQ)^2, widened
    by one on each side against rounding and clipped to the box. The norm
    test on t = n B then keeps exactly the rows, and the bits, of a scan of
    the whole box. A block holds the columns that share their first p - 2
    coordinates, one 2-D section of the ball: the whole ball for p = 2, one
    n_1 slab for p = 3.
    """
    p = basis.shape[0]
    bounds = _coord_bounds(inv, radius)
    rho = radius + TOL_EQ
    if p == 1:
        n = np.arange(-bounds[0], bounds[0] + 1)[:, None]
        t = n * basis[0]
        keep = np.linalg.norm(t, axis=1) <= rho
        if keep.any():
            yield n[keep], t[keep]
        return
    grids = np.meshgrid(*[np.arange(-b, b + 1) for b in bounds[:-1]],
                        indexing="ij")
    cols = np.stack([g.ravel() for g in grids], axis=1)
    u = cols @ basis[:-1]
    last = basis[-1]
    sq = float(last @ last)
    # u + k0 b_p is the point of the column's line nearest the origin; its
    # norm is taken from the vector, so no |u|^2 - (u.b_p)^2/|b_p|^2 cancels
    k0 = -(u @ last) / sq
    perp = u + k0[:, None] * last
    half = np.sqrt(np.maximum(rho * rho - np.einsum("ij,ij->i", perp, perp),
                              0.0) / sq)
    lo = np.maximum(np.ceil(k0 - half) - 1, -bounds[-1]).astype(np.int64)
    hi = np.minimum(np.floor(k0 + half) + 1, bounds[-1]).astype(np.int64)
    count = np.maximum(hi - lo + 1, 0)
    width = 2 * bounds[-2] + 1
    for s in range(0, len(cols), width):
        c = count[s:s + width]
        m = int(c.sum())
        if not m:
            continue
        n = np.empty((m, p), dtype=np.int64)
        n[:, :-1] = np.repeat(cols[s:s + width], c, axis=0)
        start = np.cumsum(c) - c
        n[:, -1] = np.arange(m) - np.repeat(start - lo[s:s + width], c)
        t = n @ basis
        keep = np.linalg.norm(t, axis=1) <= rho
        if keep.any():
            yield n[keep], t[keep]


def residues(S: WindowedSet, L: Lattice) -> np.ndarray:
    """One representative per lattice coset among points with |a| < sum |T_j|.

    Representatives are chosen smallest |a| first (canonical order on
    ties), reduced to the fundamental cell as B . frac(coords), deduplicated
    with the wrap-around metric, and returned in lexicographic order.
    """
    sigma = float(np.linalg.norm(L.basis, axis=1).sum())
    if S.radius < sigma:
        raise WindowTooSmall(
            f"window radius {S.radius:g} below residue ball {sigma:g}"
        )
    cand = np.flatnonzero(S.norms() < sigma)
    if len(cand) == 0:
        return np.zeros((0, S.dim))
    pts = S.points[cand]
    fracs = np.mod(pts @ L.inv, 1.0)
    order = np.argsort(S.norms()[cand], kind="stable")

    kept: list[np.ndarray] = []
    for i in order:
        f = fracs[i]
        dup = False
        for g in kept:
            d = np.abs(f - g)
            if np.all(np.minimum(d, 1.0 - d) <= L.coord_tol):
                dup = True
                break
        if not dup:
            kept.append(f)
    out = np.array(kept) @ L.basis
    keys = tuple(out[:, k] for k in range(out.shape[1] - 1, -1, -1))
    out = np.ascontiguousarray(out[np.lexsort(keys)])
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class CrystalDecomposition:
    """Verified (or failed) decomposition A = L + F on the window."""

    lattice: Lattice
    residues: np.ndarray
    coverage_in: float
    coverage_out: float
    max_residual: float
    witnesses_in: np.ndarray
    witnesses_out: np.ndarray
    checked_in: int = 0
    checked_out: int = 0
    epsilon: float | None = None
    D: float | None = None
    periods: tuple = ()
    diagnostics: dict = field(default_factory=dict)

    @property
    def verified(self) -> bool:
        return self.coverage_in == 1.0 and self.coverage_out == 1.0


@dataclass
class NoCrystalEvidence:
    """Structured negative verdict with the pipeline stage that failed."""

    stage: str
    reason: str
    diagnostics: dict = field(default_factory=dict)
    witnesses: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 1))
    )


def _row_norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm(v, axis=1) bit for bit, with one temporary of one
    column: the same left-to-right sum of squares, which numpy's row
    reduction uses for fewer than 8 columns (it sums pairwise from 8)."""
    if v.shape[1] >= 8:
        return np.linalg.norm(v, axis=1)
    s = v[:, 0] * v[:, 0]
    for k in range(1, v.shape[1]):
        s += v[:, k] * v[:, k]
    return np.sqrt(s, out=s)


def _count_targets(basis: np.ndarray, inv: np.ndarray, radius: float,
                   f: np.ndarray, lim: float) -> int:
    """Number of rows (n, t) of _lattice_points(basis, inv, radius) with
    |t + f| <= lim, for lim + |f| within radius, none of them enumerated.

    Each column u = n_1 b_1 + ... + n_{p-1} b_{p-1} of the _coord_bounds box
    meets the ball |t + f| <= lim in an interval of the last coordinate k,
    solved as in _lattice_points and widened by two on each side. Rounding
    moves each end of the solved interval by less than one row, so the
    first and last three rows of the widened one hold every row whose
    membership is in doubt: only they get the norm test on t + f, with t =
    n B as the enumeration forms it, and the rows between them count
    untested.
    """
    if lim < 0:
        return 0
    p = basis.shape[0]
    bounds = _coord_bounds(inv, radius)
    widths = [2 * b + 1 for b in bounds[:-1]]
    cols = np.indices(widths).reshape(p - 1, math.prod(widths)).T - bounds[:-1]
    u = cols @ basis[:-1] + f
    last = basis[-1]
    sq = float(last @ last)
    k0 = -(u @ last) / sq
    perp = u + k0[:, None] * last
    half = np.sqrt(np.maximum(lim * lim - np.einsum("ij,ij->i", perp, perp),
                              0.0) / sq)
    lo = np.maximum(np.ceil(k0 - half) - 2, -bounds[-1]).astype(np.int64)
    hi = np.minimum(np.floor(k0 + half) + 2, bounds[-1]).astype(np.int64)
    count = np.maximum(hi - lo + 1, 0)
    inside = np.maximum(count - 6, 0)
    # rows lo, lo+1, lo+2 and hi-2, hi-1, hi; all rows of a shorter interval
    j = np.arange(6)
    k = lo[:, None] + j + (j >= 3) * inside[:, None]
    tested = j < count[:, None]
    n = np.empty((int(tested.sum()), p), dtype=np.int64)
    n[:, :-1] = np.repeat(cols, 6, axis=0)[tested.ravel()]
    n[:, -1] = k[tested]
    q = n @ basis + f
    return int(inside.sum()) + int((_row_norms(q) <= lim).sum())


def verify_decomposition(S: WindowedSet, L: Lattice, F,
                         tol_exact: float = TOL_EXACT) -> CrystalDecomposition:
    """Check both inclusions of A = L + F against the window.

    Inclusion in: every target t + f inside the window (radius R -
    tol_exact) must hit a point of S within tol_exact. Inclusion out: every
    core point (|a| <= R - sum |T_j|) must sit within tol_exact of L + F.
    Failures lower the coverages and are sampled into the witness lists
    (the first ten in the order of (n_1, f, n_2, ..., n_p), n the lattice
    coordinates of t, then in core order).

    Both run in integer lattice coordinates, with no neighbour queries.
    Per residue f every window point a is mapped once to n = round((a-f)
    B^-1) and t = n B; inclusion out reads |a - f - t| on the core. A point
    within tol_exact of a target has n equal to the target's coordinates
    while tol_exact * max_i |B^-1[:, i]| < 1/2, and n B is the product the
    target enumeration (_lattice_points) forms, bit for bit. So a point with
    |t + f| <= R - tol_exact and |a - (t + f)| <= tol_exact hits the target
    keyed by (n_1, f, n_2, ..., n_p) in one int64. Inclusion in compares the
    distinct keys hit, each with its nearest point's residual, with the
    number of targets, which _count_targets counts. Only when a target is
    missed are the targets enumerated, in key order, to list the first ten
    whose key no point hit. A larger tolerance, or a key range past int64,
    raises ConfigError.
    """
    F = np.asarray(F, dtype=np.float64).reshape(-1, S.dim)
    tol_exact = float(tol_exact)
    if tol_exact <= 0:
        raise ConfigError("tol_exact must be positive")
    reach = tol_exact * float(np.linalg.norm(L.inv, axis=0).max())
    if not reach < 0.5:
        raise ConfigError(
            f"tol_exact {tol_exact:g} spans {reach:g} lattice cells; the "
            "integer-coordinate check needs less than 1/2"
        )
    R = S.radius
    lim = R - tol_exact
    max_f = float(np.linalg.norm(F, axis=1).max()) if len(F) else 0.0
    enum_r = _ulp_widened(R + max_f)
    bounds = np.array(_coord_bounds(L.inv, enum_r), dtype=np.int64)
    widths = [2 * int(b) + 1 for b in bounds]
    if len(F) * math.prod(widths) > np.iinfo(np.int64).max:
        raise ConfigError(
            f"lattice key range {len(F)} x {' x '.join(map(str, widths))} "
            "exceeds int64"
        )

    def pack(fi: int, n: np.ndarray) -> np.ndarray:
        # (n_1, residue, n_2, ..., n_p): the order witnesses are reported in
        key = (n[:, 0] + bounds[0]) * len(F) + fi
        for i in range(1, len(widths)):
            key = key * widths[i] + (n[:, i] + bounds[i])
        return key

    pts = S.points
    best = np.full(len(pts), np.inf)
    hit_keys, hit_d = [], []
    checked_in = 0
    for fi, f in enumerate(F):
        x = pts - f
        c = np.round(x @ L.inv)
        q = c @ L.basis
        x -= q
        np.minimum(best, _row_norms(x), out=best)
        q += f
        d = _row_norms(np.subtract(pts, q, out=x))
        hit = np.flatnonzero((d <= tol_exact) & (_row_norms(q) <= lim))
        # a target t + f has its n inside the bounds; clipping only keeps
        # the key of a point that hits none in range
        keys = pack(fi, np.clip(c, -bounds, bounds).astype(np.int64))
        hit_keys.append(keys[hit])
        hit_d.append(d[hit])
        checked_in += _count_targets(L.basis, L.inv, enum_r, f, lim)

    found_in = 0
    max_residual = 0.0
    wit_in = np.zeros((0, S.dim))
    if hit_keys:
        keys = np.concatenate(hit_keys)
        d = np.concatenate(hit_d)
        seen = np.sort(keys)
        shared = seen[1:] == seen[:-1]
        found_in = len(seen) - int(shared.sum())
        if shared.any():
            # points hitting one target share its residual, the nearest's
            many = np.isin(keys, seen[1:][shared])
            _, group = np.unique(keys[many], return_inverse=True)
            nearest = np.full(group.max() + 1, np.inf)
            np.minimum.at(nearest, group, d[many])
            d = np.concatenate([d[~many], nearest])
        if len(d):
            max_residual = float(d.max())
    if found_in < checked_in:
        targets, tkeys = [], []
        for n, t in _lattice_points(L.basis, L.inv, enum_r):
            for fi, f in enumerate(F):
                q = t + f
                keep = np.linalg.norm(q, axis=1) <= lim
                if keep.any():
                    targets.append(q[keep])
                    tkeys.append(pack(fi, n[keep]))
        q = np.concatenate(targets)
        qkey = np.concatenate(tkeys)
        if len(F) > 1:
            # each residue's targets are in key order, but a block spans
            # several n_1 (p = 2) or shares its n_1 with others (p >= 4);
            # the stable sort merges the residues' runs
            order = np.argsort(qkey, kind="stable")
            q, qkey = q[order], qkey[order]
        wit_in = q[np.isin(qkey, seen, invert=True)][:10]

    sigma = float(np.linalg.norm(L.basis, axis=1).sum())
    core = np.flatnonzero(S.norms() <= R - sigma)
    checked_out = len(core)
    found_out = 0
    wit_out = np.zeros((0, S.dim))
    if checked_out:
        best = best[core]
        ok = best <= tol_exact
        found_out = int(ok.sum())
        if ok.any():
            max_residual = max(max_residual, float(best[ok].max()))
        wit_out = pts[core[~ok][:10]]

    coverage_in = found_in / checked_in if checked_in else 1.0
    coverage_out = found_out / checked_out if checked_out else 1.0
    return CrystalDecomposition(
        lattice=L,
        residues=F,
        coverage_in=float(coverage_in),
        coverage_out=float(coverage_out),
        max_residual=max_residual,
        witnesses_in=np.array(wit_in).reshape(-1, S.dim),
        witnesses_out=np.array(wit_out).reshape(-1, S.dim),
        checked_in=int(checked_in),
        checked_out=int(checked_out),
    )


def _greedy_basis(vectors: list[np.ndarray], p: int) -> np.ndarray | None:
    """Shortest-first independent selection of p rows.

    A vector joins the basis only if its direction keeps a sine of at
    least _ANGLE_FLOOR against the span chosen so far, which maximizes the
    normalized determinant among shortest choices.
    """
    chosen: list[np.ndarray] = []
    for v in vectors:
        nv = float(np.linalg.norm(v))
        if not chosen:
            chosen.append(v)
        else:
            A = np.array(chosen).T
            resid = v - A @ np.linalg.lstsq(A, v, rcond=None)[0]
            if np.linalg.norm(resid) >= _ANGLE_FLOOR * nv:
                chosen.append(v)
        if len(chosen) == p:
            return np.array(chosen)
    return None


def _sorted_period_vectors(periods: list[Period]) -> list[np.ndarray]:
    """Period vectors ordered by (|T|, lexicographic), sign-normalized in
    one dimension so "shortest positive" is well defined."""
    vecs = []
    for P in periods:
        T = np.array(P.T, dtype=np.float64)
        if len(T) == 1 and T[0] < 0:
            T = -T
        vecs.append(T)
    vecs.sort(key=lambda v: (float(np.linalg.norm(v)), tuple(v)))
    return vecs


def _local_scales(S: WindowedSet, core_margin: float) -> tuple[float, float]:
    """D and the minimum separation, measured near the origin.

    The measured points are the _LOCAL_POINTS window points of smallest
    norm and every point tied with the last of them, so the set does not
    depend on how a sort breaks ties; the whole window when it holds no
    more points. A tree on them gives each its nearest measured neighbour,
    at distance d. A point y outside is nearer than that only if |y| <=
    |x| + d, so only the measured points with |x| + d past the largest
    measured norm query a second tree, on the points outside up to the
    largest such |x| + d. The distances are those of a query over the whole
    window. D is the largest nearest-neighbour distance over the measured
    core points, as in denseness_radius, and the minimum separation the
    smallest over all measured points; a window of at most _LOCAL_POINTS
    points gets exactly denseness_radius and min_separation.

    Relative denseness and a discrete A - A hold the same way everywhere in
    a crystal. A window broken away from the origin is refused by the
    decomposition check on the full window.
    """
    norms = S.norms()
    cut = np.inf
    if len(S) > _LOCAL_POINTS:
        cut = np.partition(norms, _LOCAL_POINTS - 1)[_LOCAL_POINTS - 1]
        cut *= 1 + 1e-12
    near = np.flatnonzero(norms <= cut)
    pts = S.points[near]
    d, _ = cKDTree(pts).query(pts, k=2)
    nn = d[:, 1]
    # the relative slack covers the rounding of norms and distances
    reach = (norms[near] + nn) * (1 + 1e-12)
    rim = reach > norms[near].max()
    if rim.any():
        shell = np.flatnonzero(norms <= reach.max())
        shell = shell[norms[shell] > cut]
        if len(shell):
            d, _ = cKDTree(S.points[shell]).query(pts[rim], k=1)
            nn[rim] = np.minimum(nn[rim], d)
    # the measured points and the core are both balls about the origin, so
    # the measured core is empty or a single point just when the core is
    return _core_max(nn, norms[near], S.radius, core_margin), float(nn.min())


def _gap_source(S: WindowedSet, D: float) -> WindowedSet:
    """Ball about the origin the finite-type gap's pair sweep runs on, of
    radius r = |a| + 0.6 (D + 1) + max(4D, 2), a the window point nearest
    the origin (the harvest's anchor); the whole window once r reaches R.

    Finite type is local. A period v with |v| <= D + 1, the sweep's cutoff,
    maps a to a + v and a - v, points of A of norm at most |a| + D + 1 < r
    (0.6 (D + 1) + max(4D, 2) > D + 1 for D > 0). So (a, a + v) and
    (a - v, a) realize v inside the ball, and shrinking the window to it
    loses only differences tied to one location. The ball holds the
    anchor, so an empty centre never empties it.
    """
    r = float(S.norms().min()) + 0.6 * (D + 1.0) + max(4.0 * D, 2.0)
    if r >= S.radius * 0.999:
        return S
    return window_restrict(S, r)


def _screen_source(S: WindowedSet, r_cur: float) -> WindowedSet:
    """Ball about the origin candidates are verified against, of radius
    |a| + 2.2 r_cur + 2, a the window point nearest the origin (the
    harvest's anchor); the whole window once that reaches R.

    No pair sweep runs here: each ladder step makes one batched probe query
    (_probe_rejections) and exact checks on the candidates it leaves, so
    the only constraint is a core wide enough for |tau| up to r_cur around
    the anchor. The ball holds the anchor, so an empty centre never empties
    it.
    """
    r = float(S.norms().min()) + 2.2 * r_cur + 2.0
    if r >= S.radius * 0.999:
        return S
    return window_restrict(S, r)


def _probe_rejections(S: WindowedSet, cands: np.ndarray,
                      tol_exact: float) -> np.ndarray:
    """Mask of the candidates that some probe, in one query, proves are no
    period of S.

    The probes are the _PROBES points of S nearest the origin. A probe x
    counts for v only in the core of the exact check, |x| <= R - |v| -
    tol_exact; if x + v has no point of S within tol_exact there,
    verify_exact_period(S, v) fails too. A probe can only reject.
    """
    out = np.zeros(len(cands), dtype=bool)
    probes = (np.argpartition(S.norms(), _PROBES)[:_PROBES]
              if len(S) > _PROBES else np.arange(len(S)))
    reach = S.radius - (np.linalg.norm(cands, axis=1) + tol_exact)
    # the relative slack keeps out a probe that rounding could place on the
    # other side of the exact check's own core bound
    rows, cols = np.nonzero(
        S.norms()[probes] <= reach[:, None] - 1e-12 * S.radius
    )
    if len(rows):  # else build no subwindow tree the step may not need
        d, _ = S.tree().query(
            S.points[probes[cols]] + cands[rows], k=1,
            distance_upper_bound=tol_exact * (1 + 1e-9),
            workers=query_workers(),
        )
        out[rows[d > tol_exact]] = True
    return out


def _near_lattice(L: Lattice | None, cands: np.ndarray,
                  eps: float) -> np.ndarray:
    """Mask of the candidates within eps/2 of L; none while there is no L."""
    if L is None:
        return np.zeros(len(cands), dtype=bool)
    return L.distance(cands) < eps / 2


def recover_crystal(S: WindowedSet, config: RunConfig | None = None):
    """Full recovery pipeline; CrystalDecomposition or NoCrystalEvidence.

    D and the minimum separation, which caps epsilon and sets the default
    r_min, are measured on the window points nearest the origin
    (_local_scales), the finite-type gap on a ball about it (_gap_source).
    The hypotheses they test hold uniformly in a crystal; a window broken
    away from the origin is refused by the decomposition check, which
    reads the whole window.

    Candidates are the anchor differences c - a, a the window point nearest
    the origin: a period T with |T| <= r maps a onto a window point. Each
    ladder step harvests its own annulus when it starts, and each candidate
    is checked exactly once, by verify_exact_period alone (an
    anchor difference is the vector an almost period would snap to, so it is
    its own Period). The run keeps one lattice, the closure of the verified
    periods: seeded by the shortest independent ones once they span p
    directions, refined by each new one, and checked as it stands. A
    candidate within epsilon/2 of it is skipped unless it lies in the cone
    of a paper-cone axis that still has no period; both masks cover the
    whole step and are redone after each verified period. Each step first
    probes the other candidates in one batched query (_probe_rejections);
    only those no probe rejects get the full scan. Candidate radii escalate
    (doubling from 4D up to R/2) until the lattice exists, every paper-cone
    axis cone holds a period, and the swept annulus covers the covering
    radius of the lattice (any period missing from the group would have a
    coset representative that short), so a skewed or composite period group
    is closed before the verdict. An explicit r_max disables escalation.

    The ladder only grows the lattice. The verdict is decided once, after
    it: the strategy's gate (paper-cone also needs a period in every axis
    cone), then residues and one decomposition check on the full window.
    """
    cfg = (config or RunConfig()).validate()
    diag: dict = {"strategy": cfg.strategy, "n_points": len(S)}
    if len(S) < cfg.min_points:
        return NoCrystalEvidence(
            stage="input",
            reason=f"{len(S)} points, need at least min_points={cfg.min_points}",
            diagnostics=diag,
        )
    p = S.dim
    R = S.radius
    margin = cfg.core_margin if cfg.core_margin is not None else R / 10
    D, min_sep = _local_scales(S, margin)
    diag.update(D=D, core_margin=margin)

    gap_src = _gap_source(S, D)
    try:
        gapinfo = finite_type_gap(gap_src, D)
    except DegenerateGap as e:
        return NoCrystalEvidence(
            stage="finite-type-gap", reason=str(e), diagnostics=diag
        )
    eps = min(gapinfo.epsilon, min_sep / 2)
    diag.update(epsilon=eps, gap=gapinfo.gap, pair_count=gapinfo.pair_count)

    r_min = cfg.r_min if cfg.r_min is not None else max(min_sep / 2,
                                                        4 * cfg.tol_exact)
    diag["r_min"] = r_min
    if cfg.r_max is not None:
        if not r_min < cfg.r_max <= R / 2 + TOL_EQ:
            raise ConfigError(
                f"explicit r_max {cfg.r_max:g} outside ({r_min:g}, {R / 2:g}]"
            )
    if r_min >= R / 2:
        return NoCrystalEvidence(
            stage="candidate-generation",
            reason=f"candidate annulus empty: r_min {r_min:g} >= R/2 {R / 2:g}",
            diagnostics=diag,
        )
    if cfg.r_max is not None:
        ladder = [float(cfg.r_max)]
    else:
        r0 = min(R / 2, max(4 * D, 3 * r_min))
        ladder = [r0]
        while ladder[-1] < R / 2 * (1 - 1e-12):
            ladder.append(min(2 * ladder[-1], R / 2))

    # paper-cone needs a verified period inside every axis cone, and cone
    # members are longer than 3p^2*scale; a candidate is no longer than the
    # top ladder radius (plus the merge tolerance), so a ladder that stops
    # short of the cones can never succeed
    cone_lo = cfg.cone_scale * 3.0 * p * p
    if cfg.strategy == "paper-cone" and p >= 2 and ladder[-1] + TOL_EQ <= cone_lo:
        diag.update(n_candidates=0, n_periods=0)
        return NoCrystalEvidence(
            stage="basis-selection",
            reason=(
                f"every axis cone is empty: cone members are longer than "
                f"3p^2*cone_scale = {cone_lo:g}, candidates at most "
                f"{ladder[-1]:g}"
            ),
            diagnostics=diag,
        )
    try:
        _check_anchor_core(S, eps, r_min, ladder[-1])
    except WindowTooSmall as e:
        return NoCrystalEvidence(
            stage="candidate-generation", reason=str(e), diagnostics=diag
        )
    # the candidates' anchor, which every screen ball holds
    anchor = _frozen(S.points[np.argmin(S.norms())])

    periods: list[Period] = []
    # seeded by the shortest independent periods, not a cone basis: against
    # a long cone basis the short periods would need denominators the size
    # of the sublattice index, which the rational cap rightly refuses
    lattice: Lattice | None = None
    singular: str | None = None  # why the last seeding failed, if it did
    n_candidates = 0
    # paper-cone needs a verified period inside every axis cone; missing[j-1]
    # marks the axes j whose cone has none yet
    missing = np.full(p, cfg.strategy == "paper-cone" and p >= 2)

    for step, r_cur in enumerate(ladder):
        diag["r_max_reached"] = r_cur
        diag["ladder_steps"] = step + 1
        # the step's annulus: a candidate belongs to the first step whose
        # radius covers it
        cands = _anchor_differences(S, r_min,
                                    ladder[step - 1] if step else -np.inf,
                                    r_cur)
        n_candidates += len(cands)
        scr = _screen_source(S, r_cur)
        # cone[j-1] marks the candidates inside the cone of axis j
        cone = np.array([_cone_mask(cands, j, p, cfg.cone_scale)
                         for j in range(1, p + 1)])
        # a candidate already inside the recovered period group cannot
        # refine it; it can only fill a still-empty axis cone. The probe
        # pass leaves those to the skip below, which is redone whenever the
        # lattice or the empty cones change
        near = _near_lattice(lattice, cands, eps)
        rejected = np.zeros(len(cands), dtype=bool)
        rejected[~near] = _probe_rejections(scr, cands[~near], cfg.tol_exact)
        skip = near & ~cone[missing].any(axis=0)
        for i in np.flatnonzero(~rejected):
            if skip[i]:
                continue
            # verify against a subwindow: translation symmetry of the full
            # window restricts to any concentric subwindow, so a rejection
            # here is final, and the decomposition check after the ladder
            # still runs on the full window.
            try:
                outcome = verify_exact_period(scr, cands[i], cfg.tol_exact)
            except WindowTooSmall:
                continue
            if isinstance(outcome, FailureWitness):
                continue
            T = _frozen(cands[i])
            periods.append(Period(T=T, verified_radius=outcome,
                                  anchor=anchor, source_tau=T))
            missing &= ~cone[:, i]
            if lattice is not None:
                lattice = refine_lattice(lattice, periods[-1:],
                                         cfg.max_denominator)
            else:
                singular = None
                basis = _greedy_basis(_sorted_period_vectors(periods), p)
                if basis is not None:
                    try:
                        lattice = refine_lattice(
                            build_lattice(basis), periods, cfg.max_denominator
                        )
                    except SingularBasis as e:
                        singular = str(e)
            skip = (_near_lattice(lattice, cands, eps)
                    & ~cone[missing].any(axis=0))

        # covering radius of L is at most half the generator length sum; a
        # period outside the recovered group would leave a coset
        # representative no longer than that, so sweeping this far closes
        # the group (the ladder itself stops at R/2, or at an explicit r_max)
        if (lattice is not None and not missing.any()
                and r_cur >= float(np.linalg.norm(lattice.basis,
                                                  axis=1).sum()) / 2):
            break

    diag.update(n_candidates=n_candidates, n_periods=len(periods))
    if not periods:
        why = "no verified periods"
    elif missing.any():
        why = f"empty cone for axis {int(np.argmax(missing)) + 1}"
    elif lattice is None:
        why = singular or "verified periods do not span p directions"
    else:
        why = None
    if why is not None:
        return NoCrystalEvidence(
            stage="period-verification" if not periods else "basis-selection",
            reason=why,
            diagnostics=diag,
        )
    try:
        F = residues(S, lattice)
    except WindowTooSmall as e:
        return NoCrystalEvidence(
            stage="residues", reason=str(e), diagnostics=diag
        )
    dec = verify_decomposition(S, lattice, F, cfg.tol_exact)
    if not dec.verified:
        return NoCrystalEvidence(
            stage="decomposition",
            reason=(
                f"coverage_in={dec.coverage_in:.6f}, "
                f"coverage_out={dec.coverage_out:.6f}"
            ),
            diagnostics=diag,
            witnesses=np.concatenate(
                [dec.witnesses_in, dec.witnesses_out]
            ).reshape(-1, S.dim),
        )
    return replace(dec, epsilon=eps, D=D, periods=tuple(periods),
                   diagnostics=diag)
