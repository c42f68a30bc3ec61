"""Lattice arithmetic, residue extraction, and crystal recovery.

The pipeline mirrors the constructive argument: measure the denseness
radius and the difference-set gap, harvest candidate translations as the
differences c - a from one anchor a near the origin (a period T with
|T| <= r maps a onto a window point), keep the ones that survive exact
verification, select p independent periods (cone condition or
shortest-independent greedy), close the period collection into a lattice
by rational refinement, cut residues near the origin, and verify both
inclusions of A = L + F on the window.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from ._util import query_workers
from .almost_period import (
    TOL_EXACT,
    Period,
    Rejection,
    candidate_almost_periods,
    is_almost_period,
    snap_to_period,
)
from .config import RunConfig
from .errors import (
    AmbiguousSnap,
    ConfigError,
    DegenerateGap,
    EmptyWindow,
    NoSnapTarget,
    NotExactPeriod,
    SingularBasis,
    WindowTooSmall,
)
# difference_vectors is not called here (finite_type_gap runs the only pair
# sweep); the benchmark tracer (perfbench/spans.py) wraps it under this module
from .geometry import (  # noqa: F401
    denseness_radius,
    difference_vectors,
    finite_type_gap,
)
from .pointset import TOL_EQ, WindowedSet, min_separation, window_restrict

log = logging.getLogger(__name__)

#: Integrality tolerance for lattice coordinates.
COORD_TOL = 1e-6

#: Windows larger than this run the finite-type gap's pair sweep on a
#: concentric subwindow.
_SUBWINDOW_CAP = 60000

#: Hard cap on candidate translations tested per run. Every anchor
#: difference is a candidate and each screen queries a core that grows
#: with the window, so a set with no periods costs time quadratic in it;
#: past this many shortest candidates with no verified period the verdict
#: cannot change, and the cap is recorded in the diagnostics.
_MAX_CANDIDATES = 20000

#: Target for points-times-neighbours in the finite-type gap's pair sweep.
_PAIR_BUDGET = 4_000_000

#: Minimal sine of the angle between a new greedy basis vector and the
#: span of the ones already chosen.
_ANGLE_FLOOR = 0.02


def cone_filter(vectors, j: int, p: int, scale: float = 1.0) -> np.ndarray:
    """Vectors x with scale*3p^2 < |x| < (1+(2p)^-2) |<x, e_j>|.

    j is 1-based. scale shrinks only the lower radius bound; the angular
    part is scale-free.
    """
    if not 1 <= j <= p:
        raise ConfigError(f"axis j={j} out of range 1..{p}")
    if not scale > 0:
        raise ConfigError("scale must be positive")
    vecs = np.asarray(vectors, dtype=np.float64).reshape(-1, p)
    if len(vecs) == 0:
        return vecs
    norms = np.linalg.norm(vecs, axis=1)
    axis = np.abs(vecs[:, j - 1])
    keep = (norms > scale * 3 * p * p) & (norms < (1 + 0.25 / (p * p)) * axis)
    return vecs[keep]


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


def _lattice_points(basis: np.ndarray, inv: np.ndarray, radius: float):
    """Yield lattice points with |t| <= radius in deterministic chunks."""
    p = basis.shape[0]
    bounds = [int(np.floor(radius * np.linalg.norm(inv[:, i]))) + 1
              for i in range(p)]
    first = np.arange(-bounds[0], bounds[0] + 1)
    if p == 1:
        t = first[:, None] * basis[0]
        keep = np.linalg.norm(t, axis=1) <= radius + TOL_EQ
        if keep.any():
            yield t[keep]
        return
    grids = np.meshgrid(*[np.arange(-b, b + 1) for b in bounds[1:]],
                        indexing="ij")
    rest = np.stack([g.ravel() for g in grids], axis=1)
    for n1 in first:
        n = np.column_stack([np.full(len(rest), n1), rest])
        t = n @ basis
        keep = np.linalg.norm(t, axis=1) <= radius + TOL_EQ
        if keep.any():
            yield t[keep]


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


def verify_decomposition(S: WindowedSet, L: Lattice, F,
                         tol_exact: float = TOL_EXACT) -> CrystalDecomposition:
    """Check both inclusions of A = L + F against the window.

    Inclusion in: every t + f inside the window (radius R - tol_exact) must
    hit a point of S within tol_exact. Inclusion out: every core point
    (|a| <= R - sum |T_j|) must sit within tol_exact of L + F. Failures
    lower the coverages and are sampled into the witness lists.
    """
    F = np.asarray(F, dtype=np.float64).reshape(-1, S.dim)
    tol_exact = float(tol_exact)
    if tol_exact <= 0:
        raise ConfigError("tol_exact must be positive")
    R = S.radius
    max_f = float(np.linalg.norm(F, axis=1).max()) if len(F) else 0.0
    tree = S.tree()

    checked_in = found_in = 0
    max_residual = 0.0
    wit_in: list[np.ndarray] = []
    if len(F):
        for chunk in _lattice_points(L.basis, L.inv, R + max_f + 1.0):
            for f in F:
                pts = chunk + f
                keep = np.linalg.norm(pts, axis=1) <= R - tol_exact
                if not keep.any():
                    continue
                pts = pts[keep]
                d, _ = tree.query(
                    pts, k=1, distance_upper_bound=tol_exact * (1 + 1e-9),
                    workers=query_workers(),
                )
                ok = d <= tol_exact
                checked_in += len(pts)
                found_in += int(ok.sum())
                if ok.any():
                    max_residual = max(max_residual, float(d[ok].max()))
                for bad in pts[~ok][: max(0, 10 - len(wit_in))]:
                    wit_in.append(bad)

    sigma = float(np.linalg.norm(L.basis, axis=1).sum())
    core = np.flatnonzero(S.norms() <= R - sigma)
    checked_out = len(core)
    found_out = 0
    wit_out: list[np.ndarray] = []
    if checked_out:
        core_pts = S.points[core]
        best = np.full(len(core_pts), np.inf)
        for f in F:
            best = np.minimum(best, L.distance(core_pts - f))
        ok = best <= tol_exact
        found_out = int(ok.sum())
        if ok.any():
            max_residual = max(max_residual, float(best[ok].max()))
        for bad in core_pts[~ok][:10]:
            wit_out.append(bad)

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
        if nv <= 2 * TOL_EQ:
            continue
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


def _select_basis(periods: list[Period], p: int, cfg: RunConfig):
    """Pick p period vectors per the configured strategy.

    Returns (basis, None) on success or (None, reason) when the
    collection cannot support a full-rank choice yet.
    """
    vecs = _sorted_period_vectors(periods)
    if not vecs:
        return None, "no verified periods"
    if p == 1:
        return np.array([vecs[0]]), None
    if cfg.strategy == "paper-cone":
        rows = []
        for j in range(1, p + 1):
            members = cone_filter(np.array(vecs), j, p, cfg.cone_scale)
            if len(members) == 0:
                return None, f"empty cone for axis {j}"
            norms = np.linalg.norm(members, axis=1)
            keys = tuple(members[:, k] for k in range(p - 1, -1, -1)) + (norms,)
            rows.append(members[np.lexsort(keys)][0])
        basis = np.array(rows)
    else:
        basis = _greedy_basis(vecs, p)
        if basis is None:
            return None, "verified periods do not span p directions"
    det = independence_det(basis)
    floor = 1e-6 * float(np.prod(np.linalg.norm(basis, axis=1)))
    if not abs(det) > floor:
        return None, f"selected basis is numerically singular (det {det:.3e})"
    return basis, None


def _harvest_source(S: WindowedSet, D: float, r_cur: float) -> WindowedSet:
    """Concentric subwindow the finite-type gap's pair sweep for differences
    up to r_cur runs on, sized so points-times-neighbours stays near
    _PAIR_BUDGET. Candidate periods come from the anchor harvest instead, so
    this serves only the gap.

    A window of radius 0.6 r_cur + 4D still realizes every translation
    symmetry of length up to r_cur near its centre (place the pair
    astride the origin; relative denseness supplies the endpoints), so
    shrinking below r_cur loses only location-specific differences.
    """
    n = len(S)
    nbrs = max(1.0, n * min(r_cur / S.radius, 1.0) ** S.dim)
    if n <= _SUBWINDOW_CAP and n * nbrs / 2 <= _PAIR_BUDGET:
        return S
    floor_r = 0.6 * r_cur + max(4.0 * D, 2.0)
    n_budget = min(float(_SUBWINDOW_CAP), max(4000.0, 2.0 * _PAIR_BUDGET / nbrs))
    r_density = S.radius * (n_budget / n) ** (1.0 / S.dim)
    r = min(S.radius, max(floor_r, r_density))
    if r >= S.radius * 0.999:
        return S
    try:
        return window_restrict(S, r)
    except EmptyWindow:
        return S


def _screen_source(S: WindowedSet, r_cur: float) -> WindowedSet:
    """Concentric subwindow candidates are screened and snapped against.

    No pair sweep runs here, only per-candidate neighbour queries, so the
    only constraint is a core wide enough for |tau| up to r_cur.
    """
    r = 2.2 * r_cur + 2.0
    if r >= S.radius * 0.999:
        return S
    try:
        return window_restrict(S, r)
    except EmptyWindow:
        return S


def recover_crystal(S: WindowedSet, config: RunConfig | None = None):
    """Full recovery pipeline; CrystalDecomposition or NoCrystalEvidence.

    Candidates are the anchor differences c - a, a the window point nearest
    the origin: a period T with |T| <= r maps a onto a window point. They
    are harvested once up to the largest ladder radius and screened one
    annulus per step, each exactly once. Candidate radii escalate (doubling
    from 4D up to R/2) until the swept annulus covers the covering radius
    of the refined basis (any period missing from the group would have a
    coset representative that short), so a skewed or composite period group
    is closed before the verdict. An explicit r_max disables escalation.
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
    D = denseness_radius(S, margin)
    diag.update(D=D, core_margin=margin)

    gap_src = _harvest_source(S, D, D + 1.0)
    try:
        gapinfo = finite_type_gap(gap_src, D)
    except DegenerateGap as e:
        return NoCrystalEvidence(
            stage="finite-type-gap", reason=str(e), diagnostics=diag
        )
    min_sep = min_separation(S)
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
        harvest = candidate_almost_periods(S, eps, r_min, ladder[-1])
    except WindowTooSmall as e:
        return NoCrystalEvidence(
            stage="candidate-generation", reason=str(e), diagnostics=diag
        )
    # each candidate belongs to the first ladder step whose radius covers it
    step_of = np.searchsorted(np.asarray(ladder) + TOL_EQ,
                              np.linalg.norm(harvest, axis=1))

    periods: list[Period] = []
    periods_mat = np.zeros((0, p))
    lat_prov: Lattice | None = None
    n_candidates = 0
    best_failure: NoCrystalEvidence | None = None
    success: CrystalDecomposition | None = None
    capped = False
    # paper-cone needs a verified period inside every axis cone; those sit
    # beyond 3p^2*scale, so long candidates are exempt from the membership
    # skip until each cone has one
    axes_missing: set = (
        set(range(1, p + 1)) if cfg.strategy == "paper-cone" and p >= 2
        else set()
    )

    for step, r_cur in enumerate(ladder):
        if capped:
            break
        diag["r_max_reached"] = r_cur
        diag["ladder_steps"] = step + 1
        cands = harvest[step_of == step]
        scr = _screen_source(S, r_cur)
        grew = False
        for v in cands:
            if n_candidates >= _MAX_CANDIDATES:
                capped = True
                diag["candidates_capped"] = True
                break
            n_candidates += 1
            if len(periods_mat) and float(
                np.min(np.linalg.norm(periods_mat - v, axis=1))
            ) < eps / 2:
                continue
            # candidates already inside the recovered period group would
            # snap onto a known group element (their snapped vector sits
            # within the gap of one), so they cannot refine anything
            hold = (
                axes_missing
                and len(periods) < 512
                and float(np.linalg.norm(v)) > cone_lo
            )
            if lat_prov is not None and not hold:
                if float(lat_prov.distance(v)) < eps / 2:
                    continue
            # screen and snap against a subwindow: translation symmetry of
            # the full window restricts to any concentric subwindow, so a
            # rejection here is final, and the decomposition check at the
            # end still runs on the full window
            try:
                res = is_almost_period(scr, v, eps / 2)
            except WindowTooSmall:
                continue
            if isinstance(res, Rejection):
                continue
            try:
                P = snap_to_period(scr, v, eps, cfg.tol_exact)
            except (NoSnapTarget, AmbiguousSnap, NotExactPeriod):
                continue
            if float(np.linalg.norm(P.T)) <= 2 * TOL_EQ:
                continue
            periods.append(P)
            periods_mat = np.vstack([periods_mat, np.asarray(P.T)[None]])
            for j in tuple(axes_missing):
                if len(cone_filter(np.asarray(P.T)[None], j, p,
                                   cfg.cone_scale)):
                    axes_missing.discard(j)
            grew = True
            if lat_prov is None:
                basis = _greedy_basis(_sorted_period_vectors(periods), p)
                if basis is not None:
                    try:
                        lat_prov = refine_lattice(
                            build_lattice(basis), periods, cfg.max_denominator
                        )
                    except SingularBasis:
                        lat_prov = None
            else:
                lat_prov = refine_lattice(lat_prov, [P], cfg.max_denominator)

        diag["n_candidates"] = n_candidates
        diag["n_periods"] = len(periods)

        if success is not None and not grew:
            # escalation found nothing new; the remembered verdict stands
            return success

        basis, why = _select_basis(periods, p, cfg)
        if basis is None:
            if capped:
                why += f" among the {_MAX_CANDIDATES} shortest candidates"
            best_failure = NoCrystalEvidence(
                stage="period-verification" if not periods else "basis-selection",
                reason=why,
                diagnostics=dict(diag),
            )
            continue
        # the strategy basis settles the verdict (cone emptiness fails a
        # paper-cone run) but closure over all verified periods is seeded
        # from the shortest independent rows: against a long cone basis the
        # short periods would need coordinate denominators the size of the
        # sublattice index, which the rational cap rightly refuses
        seed = basis if cfg.strategy == "greedy-det" else (
            _greedy_basis(_sorted_period_vectors(periods), p))
        if seed is None:
            seed = basis
        try:
            L = refine_lattice(
                build_lattice(seed), periods, cfg.max_denominator
            )
        except SingularBasis as e:
            best_failure = NoCrystalEvidence(
                stage="basis-selection", reason=str(e), diagnostics=dict(diag)
            )
            continue
        try:
            F = residues(S, L)
        except WindowTooSmall as e:
            best_failure = NoCrystalEvidence(
                stage="residues", reason=str(e), diagnostics=dict(diag)
            )
            continue
        dec = verify_decomposition(S, L, F, cfg.tol_exact)
        if dec.verified:
            dec = replace(
                dec,
                epsilon=eps,
                D=D,
                periods=tuple(periods),
                diagnostics=dict(diag),
            )
            # covering radius of L is at most half the generator length
            # sum; a period outside the recovered group would leave a coset
            # representative no longer than that, so sweeping this far
            # closes the group
            cover = float(np.linalg.norm(L.basis, axis=1).sum()) / 2
            if r_cur >= min(cover, R / 2) or cfg.r_max is not None:
                return dec
            success = dec
            continue
        best_failure = NoCrystalEvidence(
            stage="decomposition",
            reason=(
                f"coverage_in={dec.coverage_in:.6f}, "
                f"coverage_out={dec.coverage_out:.6f}"
            ),
            diagnostics=dict(diag),
            witnesses=np.concatenate(
                [dec.witnesses_in, dec.witnesses_out]
            ).reshape(-1, S.dim),
        )

    if success is not None:
        return success
    if best_failure is None:
        best_failure = NoCrystalEvidence(
            stage="candidate-generation",
            reason="no candidates in the annulus",
            diagnostics=dict(diag),
        )
    return best_failure
