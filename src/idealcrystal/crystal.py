"""Lattice arithmetic, residue extraction, and crystal recovery.

recover_crystal follows the constructive argument as a pipeline of stage
functions, each of which returns its result or refuses with its stage:
_input_scales, _type_gap, _ladder_radii and _run_ladder, then residues and
verify_decomposition on the lattice that the ladder closes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np
from scipy.spatial import cKDTree

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
from .errors import (ConfigError, DegenerateGap, MarginTooLarge,
                     SingularBasis, TooFewPoints, WindowTooSmall)
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
from .pointset import (TOL_EQ, WindowedSet, _canonical_order, _row_norms,
                       window_restrict)

log = logging.getLogger(__name__)

#: Integrality tolerance for lattice coordinates: Lattice.contains,
#: refine_lattice's rational fit and the coset test of residues.
COORD_TOL = 1e-6

#: Subwindow points nearest the origin that each ladder step's probe pass
#: translates by every candidate.
_PROBES = 32

#: Largest denominator of the rational lattice coordinates refine_lattice
#: gives a period outside the current lattice.
_MAX_DENOMINATOR = 64

#: Minimal sine of the angle between a new greedy basis vector and the
#: span of the ones already chosen.
_ANGLE_FLOOR = 0.02

#: Window points nearest the origin on which D and the minimum separation
#: are measured. Their neighbours come from one ball about the origin that
#: holds them.
_LOCAL_POINTS = 256

#: Window rows that verify_decomposition maps to lattice coordinates at
#: once, per residue. It bounds the check's working set past its O(n)
#: `best` and hit arrays to a few block-sized temporaries (about 0.4 MB
#: each in p = 3), which stay in cache. On the 296k-point p = 3 seed-79
#: crystal (2-core x86 machine, 2 MiB L2 per core, numpy 2.4; best of 7,
#: three runs), 2^13 to 2^15 timed fastest at 27-31 ms per check; 2^12
#: and 2^16 took 29-34 ms and one block of the whole window 50-60 ms.
_ROW_BLOCK = 1 << 14


def cone_filter(vectors, j: int, p: int) -> np.ndarray:
    """Vectors x with 3p^2 < |x| < (1+(2p)^-2) |<x, e_j>|, the paper's
    axis cone.

    vectors is one p-vector or rows of p columns; j is 1-based.
    """
    if not 1 <= j <= p:
        raise ConfigError(f"axis j={j} out of range 1..{p}")
    vecs = np.asarray(vectors, dtype=np.float64)
    if vecs.shape == (p,):
        vecs = vecs[None]
    elif vecs.ndim != 2 or vecs.shape[1] != p:
        raise ConfigError(
            f"need one {p}-vector or rows of {p} columns, got shape {vecs.shape}"
        )
    return vecs[_cone_mask(vecs, j, p)]


def _cone_mask(vecs: np.ndarray, j: int, p: int) -> np.ndarray:
    """Row mask of cone_filter for validated arguments."""
    norms = np.linalg.norm(vecs, axis=1)
    axis = np.abs(vecs[:, j - 1])
    return (norms > 3 * p * p) & (norms < (1 + 0.25 / (p * p)) * axis)


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
    coefficients, integral within COORD_TOL exactly for members.
    """

    basis: np.ndarray
    det: float
    inv: np.ndarray

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
        """Membership within COORD_TOL, elementwise over leading axes."""
        c = self.coords(x)
        return np.all(np.abs(c - np.round(c)) <= COORD_TOL, axis=-1)


def build_lattice(vectors, det_floor: float = 1e-6) -> Lattice:
    """Lattice from p basis rows; SingularBasis unless |det| exceeds
    det_floor * prod |T_j|, a floor relative to the row lengths.
    ConfigError for a non-finite entry, or a determinant or floor that
    overflows float64."""
    B = np.array(vectors, dtype=np.float64)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ConfigError(f"basis must be square, got shape {B.shape}")
    if not np.isfinite(B).all():
        raise ConfigError(f"basis entries must be finite, got {B.tolist()}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        det = float(np.linalg.det(B))
        floor = det_floor * float(np.prod(np.linalg.norm(B, axis=1)))
    if not (math.isfinite(det) and math.isfinite(floor)):
        raise ConfigError(
            f"|det| = {abs(det):.3e} or floor {floor:.3e} overflows float64 "
            f"for basis {B.tolist()}"
        )
    if not abs(det) > floor:
        raise SingularBasis(
            f"|det| = {abs(det):.3e} at or below floor {floor:.3e}"
        )
    inv = np.linalg.inv(B)
    B.flags.writeable = False
    inv.flags.writeable = False
    return Lattice(basis=B, det=det, inv=inv)


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


def refine_lattice(L: Lattice, periods) -> Lattice:
    """Close L over the given verified periods.

    Periods outside the current lattice get rational lattice coordinates
    via continued fractions, with denominators at most _MAX_DENOMINATOR;
    the integer row span of everything (over the common denominator) is
    re-reduced to a basis. Against a coarse basis a genuine period can need
    a denominator past the cap, yet fit once other periods have densified
    the lattice: such periods are retried against each merged lattice until
    a round merges none. Those left are dropped, with one warning per call
    that names the first of them, counts the rest and gives the largest
    residual: at these window scales an incommensurate "period" is noise,
    not structure.
    """
    p = L.dim
    pending: list[np.ndarray] = []
    for item in periods:
        T = item.T if isinstance(item, Period) else item
        T = np.asarray(T, dtype=np.float64).reshape(-1)
        if len(T) != p:
            raise ConfigError(f"period has dim {len(T)}, lattice has dim {p}")
        pending.append(T)

    while True:
        extra: list[list[Fraction]] = []
        deferred: list[tuple[np.ndarray, float]] = []
        for T in pending:
            if bool(L.contains(T)):
                continue
            coords = L.coords(T)
            fracs = [Fraction(float(c)).limit_denominator(_MAX_DENOMINATOR)
                     for c in coords]
            err = max(abs(float(f) - float(c)) for f, c in zip(fracs, coords))
            if err > COORD_TOL:
                deferred.append((T, err))
                continue
            extra.append(fracs)
        if not extra:
            break

        denom = math.lcm(*(f.denominator for fr in extra for f in fr))
        rows = [[denom if i == k else 0 for k in range(p)] for i in range(p)]
        for fr in extra:
            rows.append([int(f * denom) for f in fr])
        H = _hnf_rows(rows, p)
        new_basis = (np.array(H, dtype=np.float64) / denom) @ L.basis
        L = build_lattice(new_basis)
        if not deferred:
            break
        pending = [T for T, _ in deferred]

    if deferred:
        log.warning(
            "dropping periods with no rational coordinates of denominator "
            "<= %d: %d refused (first %s, largest residual %.3e)",
            _MAX_DENOMINATOR, len(deferred), deferred[0][0].tolist(),
            max(err for _, err in deferred),
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


def _column_intervals(basis: np.ndarray, inv: np.ndarray, radius: float,
                      f, lim: float, pad: int):
    """The columns of the _coord_bounds box of radius and, per column, the
    interval of the last coordinate that meets the ball |t + f| <= lim.

    A column is a choice of the first p - 1 coordinates, in lexicographic
    order, u = n_1 b_1 + ... + n_{p-1} b_{p-1}; for p = 1 there is one, the
    empty choice. The last coordinate k runs over the solutions of
    |u + f + k b_p| <= lim, widened by pad on each side against rounding and
    clipped to the box: the rows lo, ..., lo + count - 1.
    """
    p = basis.shape[0]
    bounds = _coord_bounds(inv, radius)
    widths = [2 * b + 1 for b in bounds[:-1]]
    cols = np.indices(widths).reshape(p - 1, math.prod(widths)).T - bounds[:-1]
    u = cols @ basis[:-1] + f
    last = basis[-1]
    sq = float(last @ last)
    # u + k0 b_p is the point of the column's line nearest the origin; its
    # norm is taken from the vector, so no |u|^2 - (u.b_p)^2/|b_p|^2 cancels
    k0 = -(u @ last) / sq
    perp = u + k0[:, None] * last
    half = np.sqrt(np.maximum(lim * lim - np.einsum("ij,ij->i", perp, perp),
                              0.0) / sq)
    lo = np.maximum(np.ceil(k0 - half) - pad, -bounds[-1]).astype(np.int64)
    hi = np.minimum(np.floor(k0 + half) + pad, bounds[-1]).astype(np.int64)
    return cols, lo, np.maximum(hi - lo + 1, 0)


def _lattice_points(basis: np.ndarray, inv: np.ndarray, radius: float):
    """(n, t = n B) for the lattice points with |t| <= radius + TOL_EQ, in
    lexicographic order of n, the integer coordinates.

    Each column's interval (_column_intervals, widened by one) holds every
    such point, so the norm test on t then keeps exactly the rows of a scan
    of the whole _coord_bounds box. t is one product over all rows, so its
    bits do not depend on how the rows are grouped.
    """
    p = basis.shape[0]
    rho = radius + TOL_EQ
    cols, lo, count = _column_intervals(basis, inv, radius, 0.0, rho, 1)
    m = int(count.sum())
    n = np.empty((m, p), dtype=np.int64)
    n[:, :-1] = np.repeat(cols, count, axis=0)
    start = np.cumsum(count) - count
    n[:, -1] = np.arange(m) - np.repeat(start - lo, count)
    t = n @ basis
    keep = _row_norms(t) <= rho
    return n.compress(keep, axis=0), t.compress(keep, axis=0)


def _same_dim(S: WindowedSet, L: Lattice) -> None:
    """ConfigError unless L has the dimension of the window S."""
    if L.dim != S.dim:
        raise ConfigError(f"lattice has dim {L.dim}, window has dim {S.dim}")


def _same_coset(f: np.ndarray, g: np.ndarray, tol: float):
    """Whether the cell coordinates f and g, each in [0, 1), are equal
    modulo 1 within tol on every axis; one answer per row of f when f is
    a stack of rows."""
    d = np.abs(f - g)
    return np.all(np.minimum(d, 1.0 - d) <= tol, axis=-1)


def residues(S: WindowedSet, L: Lattice) -> np.ndarray:
    """One representative per lattice coset among points with |a| < sum |T_j|.

    Representatives are chosen smallest |a| first (canonical order on
    ties), reduced to the fundamental cell as B . frac(coords), deduplicated
    with the wrap-around metric, and returned in lexicographic order. Each
    kept candidate clears its whole coset from the rest in one pass.
    """
    _same_dim(S, L)
    sigma = float(np.linalg.norm(L.basis, axis=1).sum())
    if S.radius < sigma:
        raise WindowTooSmall(
            f"window radius {S.radius:g} below residue ball {sigma:g}"
        )
    cand = np.flatnonzero(S.norms() < sigma)
    pts = S.points[cand]
    fracs = np.mod(pts @ L.inv, 1.0)
    order = np.argsort(S.norms()[cand], kind="stable")

    alive = np.ones(len(cand), dtype=bool)
    kept = []
    for i in order:
        if alive[i]:
            kept.append(i)
            alive &= ~_same_coset(fracs, fracs[i], COORD_TOL)
    out = fracs[kept] @ L.basis
    out = np.ascontiguousarray(out[_canonical_order(out)])
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class CrystalDecomposition:
    """Verified (or failed) decomposition A = L + F on the window.

    max_residual is the largest residual |a - (t + f)| over the window
    points a covered by L + F, with t = round((a - f) B^-1) B and f the
    residue nearest a; a point that hits a target is covered.
    """

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


def _count_targets(basis: np.ndarray, inv: np.ndarray, radius: float,
                   f: np.ndarray, lim: float) -> int:
    """Number of rows (n, t) of _lattice_points(basis, inv, radius) with
    |t + f| <= lim, for lim + |f| within radius, none of them enumerated.

    Each column's interval of the ball |t + f| <= lim (_column_intervals,
    widened by two) holds them all. Rounding moves each end of the solved
    interval by less than one row, so the first and last three rows of the
    widened one hold every row whose membership is in doubt: only they get
    the norm test on t + f, with t = n B as the enumeration forms it, and
    the rows between them count untested.
    """
    if lim < 0:
        return 0
    cols, lo, count = _column_intervals(basis, inv, radius, f, lim, 2)
    inside = np.maximum(count - 6, 0)
    # rows lo, lo+1, lo+2 and hi-2, hi-1, hi; all rows of a shorter interval
    j = np.arange(6)
    k = lo[:, None] + j + (j >= 3) * inside[:, None]
    tested = j < count[:, None]
    n = np.empty((int(tested.sum()), basis.shape[0]), dtype=np.int64)
    n[:, :-1] = np.repeat(cols, 6, axis=0)[tested.ravel()]
    n[:, -1] = k[tested]
    q = n @ basis + f
    return int(inside.sum()) + int((_row_norms(q) <= lim).sum())


def verify_decomposition(S: WindowedSet, L: Lattice, F,
                         tol_exact: float = TOL_EXACT) -> CrystalDecomposition:
    """Check both inclusions of A = L + F against the window.

    Inclusion in: every target t + f inside the window (radius R -
    tol_exact) must hit a point of S within tol_exact. Inclusion out: every
    window point must sit within tol_exact of L + F. Failures lower the
    coverages and are sampled into the witness lists (the first ten in the
    order of (n_1, f, n_2, ..., n_p), n the lattice coordinates of t, then
    in canonical order).

    Both run in integer lattice coordinates, with no neighbour queries.
    Per residue f every window point a is mapped once to n = round((a-f)
    B^-1) and t = n B, and its one residual d = |a - (t + f)| serves both
    inclusions. A point is covered when its smallest d over the residues is
    at most tol_exact; max_residual is the largest such d. The mapping runs
    over blocks of _ROW_BLOCK rows, so past the O(n) `best` array the
    working set is one block's temporaries, and keys are packed for the hit
    rows only; each row's arithmetic does not depend on the block it is in.
    A point within tol_exact of a target has n equal to the target's
    coordinates while tol_exact * max_i |B^-1[:, i]| < 1/2, and n B is the
    product the target enumeration (_lattice_points) forms, bit for bit.
    So a point with |t + f| <= R - tol_exact and d <= tol_exact hits the
    target keyed by (n_1, f, n_2, ..., n_p), packed into one int64 by
    np.ravel_multi_index, and is covered.
    Inclusion in compares the distinct keys hit with the number of targets,
    which _count_targets counts from the interval solve _lattice_points
    shares. Only when a target is missed is the ball enumerated
    (_lattice_points), and the missed targets sorted by key once, to list
    the first ten. A larger tolerance, a key range past int64, or a lattice
    or residues of another dimension than the window's raises ConfigError.
    """
    _same_dim(S, L)
    F = np.atleast_2d(np.asarray(F, dtype=np.float64))
    if F.ndim != 2 or F.shape[1] != S.dim:
        raise ConfigError(f"residues must be rows of the window's dim "
                          f"{S.dim}, got shape {F.shape}")
    tol_exact = float(tol_exact)
    if not tol_exact > 0:
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
    dims = (widths[0], len(F), *widths[1:])

    def pack(fi: int, n: np.ndarray) -> np.ndarray:
        # (n_1, residue, n_2, ..., n_p): the order witnesses are reported in.
        # A hit's target t + f has its n inside the bounds; the clip keeps
        # every key in the packed range whatever the rounding. The cast is
        # exact: |a - f| <= enum_r gives |n_i| <= bounds_i. One contiguous
        # row per axis: a p-vector broadcast over rows is looped per row
        idx = n.T.astype(np.int64, order="C")
        idx += bounds[:, None]
        return np.ravel_multi_index((idx[0], fi, *idx[1:]), dims, mode="clip")

    pts = S.points
    best = np.full(len(pts), np.inf)
    hit_keys = [np.zeros(0, dtype=np.int64)]
    checked_in = 0
    for fi, f in enumerate(F):
        # f on every row of a block: numpy loops over a same-shape operand
        # flat, but over a broadcast p-vector once per row
        fs = np.tile(f, (min(len(pts), _ROW_BLOCK), 1))
        for lo in range(0, len(pts), _ROW_BLOCK):
            blk = pts[lo:lo + _ROW_BLOCK]
            fb = fs[:len(blk)]
            x = blk - fb
            c = np.round(x @ L.inv)
            q = c @ L.basis
            q += fb
            d = _row_norms(np.subtract(blk, q, out=x))
            near = best[lo:lo + _ROW_BLOCK]
            np.minimum(near, d, out=near)
            hit = np.flatnonzero((d <= tol_exact) & (_row_norms(q) <= lim))
            hit_keys.append(pack(fi, c.take(hit, axis=0)))
        checked_in += _count_targets(L.basis, L.inv, enum_r, f, lim)

    seen = np.sort(np.concatenate(hit_keys))
    found_in = len(seen) - int((seen[1:] == seen[:-1]).sum())
    wit_in = np.zeros((0, S.dim))
    if found_in < checked_in:
        n, t = _lattice_points(L.basis, L.inv, enum_r)
        targets, tkeys = [], []
        for fi, f in enumerate(F):
            q = t + f
            keep = np.linalg.norm(q, axis=1) <= lim
            targets.append(q[keep])
            tkeys.append(pack(fi, n[keep]))
        q = np.concatenate(targets)
        qkey = np.concatenate(tkeys)
        miss = np.flatnonzero(np.isin(qkey, seen, invert=True))
        wit_in = q[miss[np.argsort(qkey[miss], kind="stable")[:10]]]

    ok = best <= tol_exact
    checked_out, found_out = len(pts), int(ok.sum())
    max_residual = float(np.max(best, where=ok, initial=0.0))
    wit_out = pts[np.flatnonzero(~ok)[:10]]

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


def _greedy_basis(periods: list[Period], p: int) -> np.ndarray | None:
    """The first p independent periods in the caller's order, which
    _run_ladder keeps shortest first; in one dimension made positive.

    A period joins the basis only if its direction keeps a sine of at
    least _ANGLE_FLOOR against the span chosen so far.
    """
    chosen: list[np.ndarray] = []
    for P in periods:
        v = np.abs(P.T) if p == 1 else P.T
        if not chosen:
            chosen.append(v)
        else:
            A = np.array(chosen).T
            resid = v - A @ np.linalg.lstsq(A, v, rcond=None)[0]
            if np.linalg.norm(resid) >= _ANGLE_FLOOR * np.linalg.norm(v):
                chosen.append(v)
        if len(chosen) == p:
            return np.array(chosen)
    return None


def _local_scales(S: WindowedSet, core_margin: float) -> tuple[float, float]:
    """D and the minimum separation, measured near the origin.

    The measured points are the _LOCAL_POINTS window points of smallest
    norm and every point tied with the last of them, so the set does not
    depend on how a sort breaks ties; the whole window when it holds no
    more points. A tree on them gives each its nearest measured neighbour,
    at distance d(x). A point y is nearer to x only if |y| <= |x| + d(x),
    so one query of a second tree, on the ball of window points up to the
    largest |x| + d(x), which holds every measured x, gives the distances
    of a query over the whole window. D is the largest nearest-neighbour
    distance over the measured core points, as in denseness_radius, and
    the minimum separation the smallest over all measured points; a window
    of at most _LOCAL_POINTS points gets exactly denseness_radius and
    min_separation.

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
    # the relative slack covers the rounding of norms and distances
    reach = float((norms[near] + d[:, 1]).max()) * (1 + 1e-12)
    ball = S.points.compress(norms <= reach, axis=0)
    d, _ = cKDTree(ball).query(pts, k=2)
    nn = d[:, 1]
    # the measured points and the core are both balls about the origin, so
    # the measured core is empty or a single point just when the core is
    return _core_max(nn, norms[near], S.radius, core_margin), float(nn.min())


def _anchor_ball(S: WindowedSet, reach: float, pad: float) -> WindowedSet:
    """Ball about the origin of radius |a| + reach + pad, a the window point
    nearest the origin (the harvest's anchor); the whole window once that
    reaches 0.999 R. The ball holds the anchor, so an empty centre never
    empties it. The sum runs left to right: a screen's radius reaches the
    report through each period's verified_radius."""
    r = float(S.norms().min()) + reach + pad
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
        )
        out[rows[d > tol_exact]] = True
    return out


class _Refused(Exception):
    """A stage's refusal, which recover_crystal returns as evidence."""

    def __init__(self, stage: str, reason: str, witnesses=()):
        super().__init__(reason)
        self.stage, self.reason, self.witnesses = stage, reason, witnesses


def _input_scales(S: WindowedSet, diag: dict) -> tuple[float, float]:
    """D and the minimum separation near the origin (_local_scales, core
    margin R/10); refused at input for fewer than 2 points, fewer than 2
    measured points in the core, or distances that overflow float64."""
    if len(S) < 2:
        raise _Refused("input", f"{len(S)} points: D and the minimum "
                       "separation need 2")
    margin = S.radius / 10
    try:
        D, min_sep = _local_scales(S, margin)
    except (MarginTooLarge, TooFewPoints):
        raise _Refused("input", "fewer than 2 of the window points nearest "
                       f"the origin lie within 0.9 R = {S.radius - margin:g} "
                       "of it: D cannot be measured")
    if not (math.isfinite(D) and math.isfinite(min_sep)):
        # the neighbour distances square coordinate differences
        raise _Refused("input", "nearest-neighbour distances overflow "
                       "float64: coordinates reach "
                       f"{float(np.abs(S.points).max()):g}, and lengths past "
                       "about 1e154 cannot be squared")
    diag.update(D=D, core_margin=margin)
    return D, min_sep


def _type_gap(S: WindowedSet, D: float, min_sep: float, diag: dict) -> float:
    """epsilon: the working tolerance of finite_type_gap on a ball about the
    origin, capped at half the minimum separation; refused at
    finite-type-gap when the gap sweep raises DegenerateGap."""
    # finite type is local: a period v with |v| <= D + 1, the gap sweep's
    # cutoff, maps the anchor a to a + v and a - v, points of norm at most
    # |a| + D + 1, inside this ball (0.6 (D + 1) + max(4D, 2) > D + 1 for
    # D > 0). So (a, a + v) and (a - v, a) realize v in the ball, and
    # shrinking the window to it loses only differences tied to one location
    gap_src = _anchor_ball(S, 0.6 * (D + 1.0), max(4.0 * D, 2.0))
    try:
        gapinfo = finite_type_gap(gap_src, D)
    except DegenerateGap as e:
        raise _Refused("finite-type-gap", str(e))
    eps = min(gapinfo.epsilon, min_sep / 2)
    diag.update(epsilon=eps, gap=gapinfo.gap, pair_count=gapinfo.pair_count)
    return eps


def _ladder_radii(S: WindowedSet, cfg: RunConfig, D: float, min_sep: float,
                  eps: float, diag: dict) -> tuple[float, list[float]]:
    """r_min = max(min_sep/2, 4 tol_exact) and the ladder radii: doubling
    from max(4D, 3 r_min) up to R/2, or an explicit r_max alone.

    ConfigError for an explicit r_max outside (r_min, R/2]. Refused at
    candidate-generation when r_min >= R/2 or the anchor cannot reach the
    top radius (_check_anchor_core); before the latter, at basis-selection
    when paper-cone's axis cones all lie past the top radius.
    """
    R = S.radius
    r_min = max(min_sep / 2, 4 * cfg.tol_exact)
    diag["r_min"] = r_min
    top = R / 2
    r0 = min(top, max(4 * D, 3 * r_min))
    if cfg.r_max is not None:
        if not r_min < cfg.r_max <= R / 2 + TOL_EQ:
            raise ConfigError(
                f"explicit r_max {cfg.r_max:g} outside ({r_min:g}, {R / 2:g}]"
            )
        r0 = top = float(cfg.r_max)
    if r_min >= R / 2:
        raise _Refused("candidate-generation", "candidate annulus empty: "
                       f"r_min {r_min:g} >= R/2 {R / 2:g}")
    ladder = [r0]
    while ladder[-1] < top * (1 - 1e-12):
        ladder.append(min(2 * ladder[-1], top))

    # paper-cone needs a verified period inside every axis cone, and cone
    # members are longer than 3p^2; a candidate is no longer than the top
    # ladder radius (plus the merge tolerance), so a ladder that stops short
    # of the cones can never succeed
    p = S.dim
    cone_lo = 3.0 * p * p
    if cfg.strategy == "paper-cone" and p >= 2 and ladder[-1] + TOL_EQ <= cone_lo:
        diag.update(n_candidates=0, n_periods=0)
        raise _Refused("basis-selection", "every axis cone is empty: cone "
                       f"members are longer than 3p^2 = {cone_lo:g}, "
                       f"candidates at most {ladder[-1]:g}")
    try:
        _check_anchor_core(S, eps, r_min, ladder[-1])
    except WindowTooSmall as e:
        raise _Refused("candidate-generation", str(e))
    return r_min, ladder


def _run_ladder(S: WindowedSet, cfg: RunConfig, eps: float, r_min: float,
                ladder: list[float], diag: dict):
    """The verified periods and their lattice, one step per ladder radius.

    Each step harvests the anchor differences c - a in its own annulus, a
    the window point nearest the origin: a period T with |T| <= r maps a
    onto a window point. An anchor difference is the vector an almost
    period would snap to, so it is its own Period, checked once by
    verify_exact_period unless a probe of the step's one batched query
    rejects it first (_probe_rejections). The run keeps one lattice, the
    closure of the verified periods: seeded by the shortest independent
    ones once they span p directions, refined by each new one. A candidate
    within epsilon/2 of it is skipped unless it lies in a paper-cone axis
    cone with no period yet; both masks are redone after each verified
    period. The ladder stops once the lattice exists, every paper-cone axis
    cone holds a period and the swept annulus covers the lattice's covering
    radius, so a skewed or composite period group is closed before the
    verdict, which the strategy only gates.

    Refused at period-verification when no candidate is a period, and at
    basis-selection when a paper-cone axis cone (whose diagonal dominance
    certifies independence) holds no period, or the periods span fewer
    than p directions or give a singular basis.
    """
    p = S.dim
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
        # no pair sweep runs on the screen: the probe pass and the exact
        # checks only need a core wide enough for |tau| up to r_cur around
        # the anchor
        scr = _anchor_ball(S, 2.2 * r_cur, 2.0)
        # cone[j-1] marks the candidates inside the cone of axis j
        cone = np.array([_cone_mask(cands, j, p) for j in range(1, p + 1)])
        # a candidate already inside the recovered period group cannot
        # refine it; it can only fill a still-empty axis cone. The probe
        # pass leaves those to the skip below, which is redone whenever the
        # lattice or the empty cones change
        near = (lattice.distance(cands) < eps / 2 if lattice is not None
                else np.zeros(len(cands), dtype=bool))
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
                lattice = refine_lattice(lattice, periods[-1:])
            else:
                singular = None
                basis = _greedy_basis(periods, p)
                if basis is not None:
                    try:
                        lattice = refine_lattice(build_lattice(basis), periods)
                    except SingularBasis as e:
                        singular = str(e)
            if lattice is not None:
                skip = ((lattice.distance(cands) < eps / 2)
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
        raise _Refused("period-verification", "no verified periods")
    if missing.any():
        raise _Refused("basis-selection",
                       f"empty cone for axis {int(np.argmax(missing)) + 1}")
    if lattice is None:
        raise _Refused("basis-selection",
                       singular or "verified periods do not span p directions")
    return lattice, periods


def recover_crystal(S: WindowedSet, config: RunConfig | None = None):
    """Full recovery pipeline; CrystalDecomposition or NoCrystalEvidence.

    The stages run in order, and the first that refuses names the
    NoCrystalEvidence, with the diagnostics gathered so far: input
    (_input_scales), finite-type-gap (_type_gap), candidate-generation
    (_ladder_radii), period-verification and basis-selection (_run_ladder),
    residues (residues) and decomposition (verify_decomposition, once, on
    the full window). The first stages measure near the origin, as a
    crystal looks the same everywhere; a window broken away from the origin
    is refused by the last.
    """
    cfg = (config or RunConfig()).validate()
    diag: dict = {"strategy": cfg.strategy, "n_points": len(S)}
    try:
        D, min_sep = _input_scales(S, diag)
        eps = _type_gap(S, D, min_sep, diag)
        r_min, ladder = _ladder_radii(S, cfg, D, min_sep, eps, diag)
        lattice, periods = _run_ladder(S, cfg, eps, r_min, ladder, diag)
        try:
            F = residues(S, lattice)
        except WindowTooSmall as e:
            raise _Refused("residues", str(e))
        dec = verify_decomposition(S, lattice, F, cfg.tol_exact)
        if not dec.verified:
            raise _Refused("decomposition",
                           f"coverage_in={dec.coverage_in:.6f}, "
                           f"coverage_out={dec.coverage_out:.6f}",
                           np.concatenate([dec.witnesses_in,
                                           dec.witnesses_out]))
    except _Refused as e:
        return NoCrystalEvidence(e.stage, e.reason, diag,
                                 np.reshape(e.witnesses, (-1, S.dim)))
    return replace(dec, epsilon=eps, D=D, periods=tuple(periods),
                   diagnostics=diag)
