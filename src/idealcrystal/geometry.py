"""Difference-set analysis: the separation gap and the denseness radius.

Two scalars drive everything downstream. D is the empirical relative
denseness radius (every core point has a neighbour within D). g is the
minimal distance between distinct difference vectors of length at most
D+1; when g stays bounded away from zero the window looks finite-type,
and the working tolerance is set to epsilon = min(1, g)/2. Both are local
in a crystal, and recover_crystal measures them near the origin: D over
the few hundred window points nearest it (crystal._local_scales), g on a
ball about it of radius |a| + 0.6 (D+1) + max(4D, 2), a the window point
nearest the origin, so the sweep's pair array is bounded by that ball, not
by the window. denseness_radius here is D over the whole window's core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from ._util import finite_positive
from .errors import ConfigError, DegenerateGap, MarginTooLarge, TooFewPoints
from .pointset import TOL_EQ, WindowedSet, _canonical_order

#: Pairs whose difference rows are formed, sign-normalized and grouped at
#: once in difference_vectors. It bounds the sweep's working set past the
#: pair index array to O(_PAIR_BLOCK) (about 10 MB in p = 3). Of 2^14 to
#: 2^20, 2^16 timed fastest on a 60k-point p = 3 gap subwindow (2-core x86
#: machine, numpy 2.4).
_PAIR_BLOCK = 1 << 16


@dataclass(frozen=True)
class DifferenceSet:
    """Distinct vectors a-b with |a-b| <= cutoff, plus realization counts.

    vectors rows are in canonical lexicographic order, closed under
    negation exactly (the mirror of each stored row is stored bit-for-bit),
    and always include the zero vector with multiplicity len(S).
    """

    vectors: np.ndarray
    counts: np.ndarray
    cutoff: float

    def __len__(self) -> int:
        return len(self.vectors)

    def multiplicity(self, v) -> int:
        """Count of ordered pairs (a, b) realizing v, 0 if v not stored."""
        v = np.asarray(v, dtype=np.float64).reshape(-1)
        hit = np.all(np.abs(self.vectors - v) <= TOL_EQ, axis=1)
        idx = np.flatnonzero(hit)
        return int(self.counts[idx[0]]) if len(idx) else 0


def _normalize_signs(vecs: np.ndarray) -> np.ndarray:
    """Flip each row so its first coordinate exceeding tol_eq is positive."""
    out = vecs.copy()
    big = np.abs(out) > TOL_EQ
    # rows with every |coord| <= tol_eq: fall back to plain sign of the
    # first nonzero coordinate so v and -v still collapse together
    col = np.where(big.any(axis=1), np.argmax(big, axis=1),
                   np.argmax(out != 0, axis=1))
    flip = out[np.arange(len(out)), col] < 0
    out[flip] = -out[flip]
    return out


def _group_cells(cells: np.ndarray):
    """Runs of identical integer rows: (order, starts) with cells[order]
    lexsorted and starts the first position of each run.

    lexsort is stable, so order[starts] is each run's first row.
    np.unique(axis=0) sorts a byte view of the rows and is several times
    slower than lexsort plus a run-length pass at the sizes seen here.
    """
    order = np.lexsort(cells.T)
    sc = cells[order]
    new = np.empty(len(sc), dtype=bool)
    new[0] = True
    np.any(sc[1:] != sc[:-1], axis=1, out=new[1:])
    return order, np.flatnonzero(new)


def difference_vectors(S: WindowedSet, cutoff: float) -> DifferenceSet:
    """All difference vectors of S up to |a-b| <= cutoff, merged at tol_eq.

    Merging is the transitive closure of the tol_eq adjacency relation on
    sign-normalized vectors; each merged class is represented by the first
    enumerated member of its canonically first grid cell (class members
    agree to tol_eq, so the choice only moves the representative within the
    merge tolerance) and counted once per unordered pair.

    Memory: the pair index array of the neighbour query (two indices per
    pair within the cutoff) plus a working set of _PAIR_BLOCK pairs. The
    difference rows are formed, sign-normalized and grouped onto the tol_eq
    grid one block at a time; only each block's distinct cells survive it.
    Grid cells are int64, so a cutoff with cutoff + tol_eq of 2^63 tol_eq
    or more raises DegenerateGap.
    """
    cutoff = finite_positive("cutoff", cutoff)
    if (cutoff + TOL_EQ) / TOL_EQ >= 2.0 ** 63:
        raise DegenerateGap(
            f"cutoff {cutoff:.3e} spans 2^63 or more cells of tol_eq = "
            f"{TOL_EQ:g}; difference vectors this long cannot be merged at "
            "tol_eq"
        )

    n = len(S)
    pairs = S.tree().query_pairs(cutoff + TOL_EQ, output_type="ndarray")
    zero = np.zeros((1, S.dim))
    if len(pairs) == 0:
        vecs = zero.copy()
        vecs.flags.writeable = False
        return DifferenceSet(vecs, np.array([n]), cutoff)

    # collapse onto a tol_eq grid first: in structured sets one difference
    # vector is realized by thousands of pairs, and a pair query on the raw
    # rows would be quadratic in that multiplicity
    pts = S.points
    blocks = []
    for lo in range(0, len(pairs), _PAIR_BLOCK):
        blk = pairs[lo:lo + _PAIR_BLOCK]
        norm = pts[blk[:, 0]] - pts[blk[:, 1]]
        # i < j on canonically ordered rows gives a first coordinate <= 0;
        # below -tol_eq it leads and is negative, so the row is negated here
        # and only the other rows need the general sign pass. Negation, not
        # a_j - a_i: a zero coordinate of a flipped row must become -0.0
        lead = norm[:, 0] < -TOL_EQ
        np.negative(norm, out=norm, where=lead[:, None])
        rest = np.flatnonzero(~lead)
        if len(rest):
            norm[rest] = _normalize_signs(norm[rest])
        cells = np.round(norm / TOL_EQ).astype(np.int64)
        order, starts = _group_cells(cells)
        blocks.append((cells[order[starts]], norm[order[starts]],
                       np.diff(starts, append=len(norm))))

    # merge the blocks' cells; the stable sort keeps blocks in enumeration
    # order within a cell, so each cell keeps its first enumerated member
    cells, reps, counts = (np.concatenate(c) for c in zip(*blocks))
    order, starts = _group_cells(cells)
    cell_reps = reps[order[starts]]
    cell_count = np.add.reduceat(counts[order], starts)
    k = len(cell_count)

    # vectors within tol_eq may straddle a cell boundary; merge neighbouring
    # cell representatives (grid diagonal widens the radius slightly)
    merge_r = (1.0 + float(np.sqrt(S.dim))) * TOL_EQ
    close = cKDTree(cell_reps).query_pairs(merge_r, output_type="ndarray")
    graph = sp.coo_matrix(
        (np.ones(len(close)), (close[:, 0], close[:, 1])), shape=(k, k)
    )
    ncomp, labels = connected_components(graph, directed=False)

    comp_count = np.zeros(ncomp, dtype=np.int64)
    np.add.at(comp_count, labels, cell_count)
    # each component's representative is its canonically first cell
    rep_order = _canonical_order(cell_reps)
    _, first = np.unique(labels[rep_order], return_index=True)
    reps = cell_reps[rep_order[first]]

    vecs = np.concatenate([reps, -reps, zero])
    cnts = np.concatenate([comp_count, comp_count, [n]])
    order = _canonical_order(vecs)
    vecs = np.ascontiguousarray(vecs[order])
    vecs.flags.writeable = False
    return DifferenceSet(vecs, cnts[order], cutoff)


def denseness_radius(S: WindowedSet, core_margin: float) -> float:
    """Max nearest-neighbour distance over the core {|a| <= R - margin}.

    Neighbours are drawn from the full window, so trimming by core_margin
    removes only the points whose true nearest neighbour might lie outside
    the window; it never inflates the estimate. This reads the whole
    window's nearest-neighbour table (WindowedSet.nn_distances);
    recover_crystal takes the same maximum over the points nearest the
    origin only, which on a window of at most a few hundred points is this
    value exactly.
    """
    core_margin = float(core_margin)
    if not 0 <= core_margin < np.inf:
        raise ConfigError("core_margin must be finite and non-negative")
    if len(S) < 2:
        raise TooFewPoints("denseness radius needs at least 2 points")
    return _core_max(S.nn_distances(), S.norms(), S.radius, core_margin)


def _core_max(nn: np.ndarray, norms: np.ndarray, radius: float,
              core_margin: float) -> float:
    """Largest of the nearest-neighbour distances nn over the points whose
    norms lie in the core {|a| <= radius - core_margin}, which must keep at
    least 2 points."""
    core = norms <= radius - core_margin + TOL_EQ
    k = int(core.sum())
    if k == 0:
        raise MarginTooLarge(
            f"core_margin {core_margin:g} empties the window of radius {radius:g}"
        )
    if k < 2:
        raise TooFewPoints("core must keep at least 2 points")
    return float(nn[core].max())


@dataclass(frozen=True)
class TypeGapReport:
    """The proof-stage scalars: working tolerance, gap, D, and |A-A| size."""

    epsilon: float
    gap: float
    D: float
    pair_count: int


def finite_type_gap(S: WindowedSet, D: float) -> TypeGapReport:
    """Separation gap of the difference set at cutoff D+1.

    gap = min |u-v| over distinct stored difference vectors; epsilon is
    min(1, gap)/2. recover_crystal caps it at half the minimum separation
    and uses it as the anchor's core margin, and epsilon/2 as the distance
    within which a candidate counts as already in the running lattice. It
    verifies anchor differences directly and does not call
    is_almost_period or snap_to_period. A gap at the merge tolerance means
    the difference set is not resolvably discrete and is reported as
    DegenerateGap rather than a number.

    Memory: the sweep holds the O(pairs) index array of every pair of S
    within D+1 and an O(_PAIR_BLOCK) working set (see difference_vectors).
    recover_crystal passes the ball of radius |a| + 0.6 (D+1) + max(4D, 2)
    about the origin, which bounds that array. The cutoff is an absolute
    length, so where the ball covers the whole window, as in small units,
    the pair count, and with it that array, still grows as O(n^2).
    """
    D = finite_positive("D", D)
    V = difference_vectors(S, D + 1.0)
    if len(V) < 2:
        # only the zero vector: no distinct pair to separate; treat the
        # cutoff itself as the gap floor (no pair closer than the cutoff)
        gap = V.cutoff
    else:
        d, _ = cKDTree(V.vectors).query(V.vectors, k=2)
        gap = float(d[:, 1].min())
    if gap <= 2 * TOL_EQ:
        raise DegenerateGap(
            f"difference vectors collide at gap {gap:.3e} <= 2*tol_eq; "
            "window is not finite type at this resolution"
        )
    eps = min(1.0, gap) / 2.0
    return TypeGapReport(epsilon=eps, gap=gap, D=D, pair_count=len(V))
