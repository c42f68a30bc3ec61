"""Almost-period testing, candidate generation, and exact-period extraction.

The almost-period test is the bijection criterion: tau is an epsilon-almost
period of the window when the core (points that cannot be pushed past the
window edge by tau) injects into the window with every displacement
|a + tau - b| < epsilon; one bipartite matching on the pairs closer than
epsilon decides it at every epsilon. Candidates are the differences c - a
from one anchor a, the window point nearest the origin (a period T with
|T| <= r maps a onto a window point). snap_to_period replaces an
epsilon-almost period by the unique nearby anchor difference and accepts
it only if it translates the whole core exactly.

Recovery (crystal.recover_crystal) calls neither is_almost_period nor
snap_to_period: its candidates are anchor differences already, so it
verifies each one directly with verify_exact_period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import maximum_bipartite_matching
from scipy.spatial import cKDTree

from ._util import finite_positive
from .errors import (
    AmbiguousSnap,
    ConfigError,
    NoSnapTarget,
    NotExactPeriod,
    WindowTooSmall,
)
# unused here since candidates come from the anchor; kept importable under
# this module, where the benchmark tracer (perfbench/spans.py) wraps it
from .geometry import difference_vectors  # noqa: F401
from .pointset import TOL_EQ, WindowedSet

#: Exact-period residual budget: one float addition of rounding on top of
#: the point-equality tolerance.
TOL_EXACT = 10 * TOL_EQ


@dataclass(frozen=True)
class AlmostPeriodCertificate:
    """Witness that tau moves the core onto the window within epsilon.

    matched holds (core index, target index) pairs into S.points; the map
    is injective and covers every core point.
    """

    tau: np.ndarray
    epsilon: float
    matched: np.ndarray
    core_radius: float
    max_displacement: float


@dataclass(frozen=True)
class Rejection:
    """Failure record: how many core points could not be matched."""

    tau: np.ndarray
    epsilon: float
    core_size: int
    unmatched: int


@dataclass(frozen=True)
class Period:
    """Exact translation symmetry of the window, with its verified reach."""

    T: np.ndarray
    verified_radius: float
    anchor: np.ndarray


@dataclass(frozen=True)
class FailureWitness:
    """First core point (canonical order) that T fails to translate into S."""

    point: np.ndarray
    T: np.ndarray
    distance: float


def _frozen(a, dtype=np.float64) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def _vector(name: str, v, S: WindowedSet) -> np.ndarray:
    """v as a flat float64 vector; ConfigError unless finite, of S.dim."""
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if len(v) != S.dim:
        raise ConfigError(f"{name} has dim {len(v)}, window has dim {S.dim}")
    if not np.isfinite(v).all():
        raise ConfigError(f"{name} must be finite")
    return v


def is_almost_period(S: WindowedSet, tau, epsilon: float):
    """Bijection test for tau at tolerance epsilon on the window core.

    One maximum bipartite matching serves every epsilon. Its edges, the
    (core point, window point) pairs with |a + tau - b| < epsilon (strict),
    come from one query of a tree over the shifted core against the
    window's tree; no nearest-neighbour table of the window is built.
    Below min_sep/2 the matching is the nearest-neighbour map. Returns an
    AlmostPeriodCertificate when it saturates the core, else a Rejection
    counting the unmatched core points.
    """
    tau = _vector("tau", tau, S)
    epsilon = finite_positive("epsilon", epsilon)
    t = float(np.linalg.norm(tau))
    if t + epsilon >= S.radius:
        raise ConfigError(
            f"|tau| + epsilon = {t + epsilon:g} must stay below R = {S.radius:g}"
        )
    core = np.flatnonzero(S.norms() <= S.radius - (t + epsilon))
    if len(core) == 0:
        raise WindowTooSmall("no core points survive the |tau| + epsilon margin")
    shifted = S.points[core] + tau
    pairs = cKDTree(shifted).sparse_distance_matrix(
        S.tree(), epsilon * (1 + 1e-12), output_type="ndarray"
    )
    pairs = pairs[pairs["v"] < epsilon]
    graph = sp.csr_matrix((np.ones(len(pairs)), (pairs["i"], pairs["j"])),
                          shape=(len(core), len(S)))
    match = maximum_bipartite_matching(graph, perm_type="column")
    unmatched = int((match < 0).sum())
    if unmatched:
        return Rejection(_frozen(tau), epsilon, len(core), unmatched)
    disp = np.linalg.norm(shifted - S.points[match], axis=1)
    matched = _frozen(np.column_stack([core, match]), np.intp)
    return AlmostPeriodCertificate(_frozen(tau), epsilon, matched,
                                   float(S.radius - t - epsilon),
                                   float(disp.max()))


def candidate_almost_periods(
    S: WindowedSet, epsilon: float, r_min: float, r_max: float
) -> np.ndarray:
    """Anchor differences c - a, c != a, with r_min <= |c - a| <= r_max,
    shortest first.

    The anchor a is the window point nearest the origin (the one
    snap_to_period uses). A period T with |T| <= r_max maps a onto a window
    point, so every exact period is in the list; an epsilon/2-almost period
    moves a to within epsilon/2 of a window point c, so it lies within
    epsilon/2 of the entry c - a. Both need a inside the core for r_max:
    WindowTooSmall when |a| + r_max + epsilon >= R. Ties in |v| break
    lexicographically.

    The differences are taken from the points with |c| <= |a| + r_max (and
    a rounding slack), read off the cached norms; the annulus test on
    |c - a| then keeps exactly the rows a scan of the whole window would.
    No tree is built.
    """
    _check_anchor_core(S, epsilon, r_min, r_max)
    return _anchor_differences(S, float(r_min), -np.inf, float(r_max))


def _check_anchor_core(S: WindowedSet, epsilon: float, r_min: float,
                       r_max: float) -> None:
    """The argument checks of candidate_almost_periods: ConfigError for bad
    radii, WindowTooSmall unless the anchor is inside the core for r_max."""
    epsilon = finite_positive("epsilon", epsilon)
    r_min, r_max = float(r_min), float(r_max)
    if not 0 < r_min < r_max:
        raise ConfigError("need 0 < r_min < r_max")
    if r_max > S.radius / 2 + TOL_EQ:
        raise ConfigError(f"r_max {r_max:g} exceeds R/2 = {S.radius / 2:g}")
    if len(S) == 0:
        raise WindowTooSmall("no anchor in an empty window")
    a_norm = float(S.norms().min())
    if a_norm + r_max + epsilon >= S.radius:
        raise WindowTooSmall(
            f"anchor at |a| = {a_norm:g} is outside the core for "
            f"r_max {r_max:g} (R = {S.radius:g})"
        )


def _anchor_differences(S: WindowedSet, r_min: float, r_after: float,
                        r_max: float) -> np.ndarray:
    """The rows of candidate_almost_periods(S, ., r_min, top >= r_max) with
    r_after + TOL_EQ < |v| <= r_max + TOL_EQ, in their order there: the
    part of a chain of lengths within TOL_EQ of the next that falls in this
    range is still one chain. (Where r_after cuts a chain, the one harvest
    interleaves its two parts, so concatenated ranges differ from it.)
    """
    anchor_idx = int(np.argmin(S.norms()))
    a = S.points[anchor_idx]
    # |c| <= |a| + |c - a|; the relative slack covers the rounding of both
    # norms, and _annulus_sorted applies the exact test to what is left
    ball = (S.norms() <= S.norms()[anchor_idx] + r_max + 2 * TOL_EQ
            + 1e-12 * S.radius)
    ball[anchor_idx] = False
    return _annulus_sorted(S.points.compress(ball, axis=0) - a, r_min, r_max,
                           r_after)


def _annulus_sorted(vectors: np.ndarray, r_min: float, r_max: float,
                    r_after: float) -> np.ndarray:
    """Rows with r_min <= |v| <= r_max and |v| > r_after, each bound
    widened by TOL_EQ, ordered by (|v|, lexicographic).

    Lengths within TOL_EQ of the next shorter one tie: c - a and the
    mirror c' - a of the same shell differ in their last bits, and the
    order must not depend on rounding.
    """
    norms = np.linalg.norm(vectors, axis=1)
    keep = ((norms >= r_min - TOL_EQ) & (norms <= r_max + TOL_EQ)
            & (norms > r_after + TOL_EQ))
    vecs = vectors[keep]
    norms = norms[keep]
    by_norm = np.argsort(norms, kind="stable")
    steps = np.diff(norms[by_norm], prepend=norms[by_norm[:1]]) > TOL_EQ
    shell = np.empty(len(norms), dtype=np.intp)
    shell[by_norm] = np.cumsum(steps)
    keys = tuple(vecs[:, k] for k in range(vecs.shape[1] - 1, -1, -1)) + (shell,)
    return np.ascontiguousarray(vecs[np.lexsort(keys)])


def snap_to_period(
    S: WindowedSet, tau, epsilon: float, tol_exact: float = TOL_EXACT
) -> Period:
    """Replace an almost period by the exact difference vector it shadows.

    The anchor a is the window point nearest the origin; the unique c with
    |a + tau - c| < epsilon/2 defines T = c - a, which must then pass
    verify_exact_period on S, the window it is given. An anchor difference
    c - a snaps to itself bit for bit, so recover_crystal, whose candidates
    are all anchor differences, calls verify_exact_period on them directly.
    """
    tau = _vector("tau", tau, S)
    epsilon = finite_positive("epsilon", epsilon)
    if len(S) == 0:
        raise WindowTooSmall("cannot snap against an empty window")

    anchor_idx = int(np.argmin(S.norms()))
    a = S.points[anchor_idx]
    target = a + tau
    hits = S.tree().query_ball_point(target, epsilon / 2 * (1 + 1e-12))
    hits = [j for j in sorted(hits)
            if np.linalg.norm(S.points[j] - target) < epsilon / 2]
    if not hits:
        raise NoSnapTarget(
            f"no window point within epsilon/2 = {epsilon / 2:g} of anchor+tau"
        )
    if len(hits) > 1:
        raise AmbiguousSnap(
            f"{len(hits)} window points within epsilon/2 of anchor+tau; "
            "epsilon exceeds the separation scale"
        )
    T = S.points[hits[0]] - a
    outcome = verify_exact_period(S, T, tol_exact)
    if isinstance(outcome, FailureWitness):
        raise NotExactPeriod(
            f"snapped vector fails exact verification at point "
            f"{outcome.point.tolist()} (residual {outcome.distance:.3e})"
        )
    return Period(_frozen(T), float(outcome), _frozen(a))


def verify_exact_period(S: WindowedSet, T, tol_exact: float = TOL_EXACT):
    """Check that T translates every core point back into the window.

    Core = {a : |a| <= R - |T| - tol_exact}. Success returns the verified
    radius R - |T| - tol_exact; failure returns a FailureWitness carrying
    the first offending point in canonical order, from one query over the
    whole core (recover_crystal's batched probe pass rejects most
    non-periods before they get here).
    """
    T = _vector("T", T, S)
    tol_exact = finite_positive("tol_exact", tol_exact)
    t = float(np.linalg.norm(T))
    if t >= S.radius:
        raise ConfigError(f"|T| = {t:g} must stay below R = {S.radius:g}")

    margin = t + tol_exact
    core = np.flatnonzero(S.norms() <= S.radius - margin)
    if len(core) == 0:
        raise WindowTooSmall("no core points survive the |T| margin")
    d, _ = S.tree().query(
        S.points[core] + T, k=1, distance_upper_bound=tol_exact * (1 + 1e-9)
    )
    bad = d > tol_exact
    if not bad.any():
        return float(S.radius - margin)
    point = S.points[core[int(np.argmax(bad))]]
    d, _ = S.tree().query(point + T, k=1)
    return FailureWitness(point=_frozen(point), T=_frozen(T), distance=float(d))
