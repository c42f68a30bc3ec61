"""Difference-set, denseness-radius, and gap tests.

Frozen values come from hand enumeration; every random case runs an O(n^2)
difference enumeration as the oracle.
"""

import numpy as np
import pytest

from idealcrystal import (
    ConfigError,
    DegenerateGap,
    MarginTooLarge,
    TooFewPoints,
    WindowedSet,
    denseness_radius,
    difference_vectors,
    finite_type_gap,
    gen_perturbed_lattice,
    min_separation,
    window_restrict,
)
from idealcrystal.pointset import TOL_EQ


def integer_line(lo, hi, radius=None):
    pts = np.arange(lo, hi + 1, dtype=np.float64)
    return WindowedSet(pts, radius if radius is not None else max(abs(lo), hi))


def two_coset_line(shift=0.3, R=10.0):
    base = np.arange(-10.0, 11.0)
    pts = np.concatenate([base, base + shift])
    return WindowedSet(pts, R + shift)


def disc_lattice(R=10.0):
    g = np.arange(-np.ceil(R), np.ceil(R) + 1)
    xx, yy = np.meshgrid(g, g)
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    return WindowedSet(pts[np.linalg.norm(pts, axis=1) <= R], R)


def brute_differences(pts, cutoff):
    """All ordered-pair differences with |a-b| <= cutoff, keyed at 1e-9."""
    out = {}
    for a in pts:
        for b in pts:
            d = a - b
            if np.linalg.norm(d) <= cutoff + TOL_EQ:
                key = tuple(np.round(d / TOL_EQ).astype(np.int64).tolist())
                out[key] = out.get(key, 0) + 1
    return out


# -- difference_vectors -------------------------------------------------------


def test_integer_line_differences():
    V = difference_vectors(integer_line(-10, 10), 2.5)
    assert sorted(V.vectors.ravel().tolist()) == [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert V.multiplicity([0.0]) == 21
    assert V.multiplicity([1.0]) == 20
    assert V.multiplicity([-1.0]) == 20
    assert V.multiplicity([2.0]) == 19
    assert V.multiplicity([7.0]) == 0


def test_cutoff_below_min_separation_gives_zero_only():
    S = integer_line(-5, 5)
    V = difference_vectors(S, 0.4)
    assert V.vectors.tolist() == [[0.0]]
    assert V.counts.tolist() == [len(S)]


def test_two_coset_line_differences():
    V = difference_vectors(two_coset_line(), 1.4)
    got = sorted(round(float(v), 9) for v in V.vectors.ravel())
    assert got == [-1.3, -1.0, -0.7, -0.3, 0.0, 0.3, 0.7, 1.0, 1.3]


def test_negation_symmetry_and_zero_exact():
    for seed in range(12):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        S = WindowedSet(rng.uniform(-6, 6, size=(25, dim)))
        V = difference_vectors(S, 4.0)
        rows = {tuple(r) for r in V.vectors.tolist()}
        assert tuple([0.0] * dim) in rows, seed
        for r in rows:
            assert tuple(-c for c in r) in rows, (seed, r)


def test_multiplicities_match_bruteforce():
    cases = [
        (integer_line(-6, 6), 3.2),
        (two_coset_line(), 2.0),
    ]
    for seed in range(6):
        rng = np.random.default_rng(40 + seed)
        cases.append((WindowedSet(rng.uniform(-5, 5, size=(18, 2))), 3.0))
    for S, cutoff in cases:
        oracle = brute_differences(S.points, cutoff)
        V = difference_vectors(S, cutoff)
        assert len(V) == len(oracle)
        total = sum(oracle.values())
        assert int(V.counts.sum()) == total
        for v, c in zip(V.vectors, V.counts):
            key = tuple(np.round(v / TOL_EQ).astype(np.int64).tolist())
            assert oracle.get(key) == int(c), (key, int(c))


def test_counts_are_window_size_for_zero():
    S = disc_lattice(5.0)
    V = difference_vectors(S, 1.5)
    assert V.multiplicity([0.0, 0.0]) == len(S)


def test_cutoff_respected():
    for seed in range(8):
        rng = np.random.default_rng(70 + seed)
        S = WindowedSet(rng.uniform(-8, 8, size=(40, 2)))
        V = difference_vectors(S, 2.5)
        assert np.all(np.linalg.norm(V.vectors, axis=1) <= 2.5 + 2 * TOL_EQ), seed


def test_bad_cutoff():
    with pytest.raises(ConfigError):
        difference_vectors(integer_line(-2, 2), 0.0)


def test_cutoff_past_int64_cells_raises():
    # cells are integer multiples of tol_eq held in int64: a cutoff past
    # 2^63 of them is refused before any cast
    S = integer_line(-2, 2)
    limit = 2.0 ** 63 * TOL_EQ
    with pytest.raises(DegenerateGap, match="cutoff"):
        difference_vectors(S, limit)
    assert len(difference_vectors(S, limit / 2)) == 9


# reference: the one-pass form of difference_vectors, with a sign pass over
# every pair, one lexsort of all cells and first members by minimum.at


def _reference_normalize_signs(vecs):
    out = vecs.copy()
    big = np.abs(out) > TOL_EQ
    has = big.any(axis=1)
    lead = out[np.arange(len(out)), np.argmax(big, axis=1)]
    flip = has & (lead < 0)
    for i in np.flatnonzero(~has):
        nz = np.flatnonzero(out[i])
        if len(nz) and out[i, nz[0]] < 0:
            flip[i] = True
    out[flip] = -out[flip]
    return out


def _reference_difference_vectors(S, cutoff):
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    from idealcrystal.geometry import DifferenceSet
    from idealcrystal.pointset import _canonical_order

    n = len(S)
    pairs = S.tree().query_pairs(cutoff + TOL_EQ, output_type="ndarray")
    zero = np.zeros((1, S.dim))
    if len(pairs) == 0:
        return DifferenceSet(zero, np.array([n]), cutoff)
    raw = S.points[pairs[:, 0]] - S.points[pairs[:, 1]]
    norm = _reference_normalize_signs(raw)
    m = len(norm)
    cells = np.round(norm / TOL_EQ).astype(np.int64)
    order = np.lexsort(cells.T)
    sc = cells[order]
    new = np.empty(m, dtype=bool)
    new[0] = True
    np.any(sc[1:] != sc[:-1], axis=1, out=new[1:])
    gid_sorted = np.cumsum(new) - 1
    inverse = np.empty(m, dtype=np.intp)
    inverse[order] = gid_sorted
    cell_count = np.bincount(gid_sorted)
    k = len(cell_count)
    first_idx = np.full(k, m, dtype=np.intp)
    np.minimum.at(first_idx, inverse, np.arange(m, dtype=np.intp))
    cell_reps = norm[first_idx]
    merge_r = (1.0 + float(np.sqrt(S.dim))) * TOL_EQ
    close = cKDTree(cell_reps).query_pairs(merge_r, output_type="ndarray")
    if len(close):
        graph = sp.coo_matrix(
            (np.ones(len(close)), (close[:, 0], close[:, 1])), shape=(k, k)
        )
        ncomp, labels = connected_components(graph, directed=False)
    else:
        ncomp, labels = k, np.arange(k)
    comp_count = np.zeros(ncomp, dtype=np.int64)
    np.add.at(comp_count, labels, cell_count)
    rep_order = _canonical_order(cell_reps)
    rep_rank = np.empty(k, dtype=np.intp)
    rep_rank[rep_order] = np.arange(k)
    comp_best = np.full(ncomp, k, dtype=np.intp)
    np.minimum.at(comp_best, labels, rep_rank)
    reps = cell_reps[rep_order[comp_best]]
    vecs = np.concatenate([reps, -reps, zero])
    cnts = np.concatenate([comp_count, comp_count, [n]])
    order = _canonical_order(vecs)
    return DifferenceSet(np.ascontiguousarray(vecs[order]), cnts[order], cutoff)


def _parity_cases():
    from idealcrystal import gen_ideal_crystal

    rng = np.random.default_rng(5)
    return [
        # axis-aligned: rows led by a zero first coordinate take the
        # general sign pass
        ("square", disc_lattice(6.0), 2.5),
        ("line", integer_line(-12, 12), 3.5),
        ("two-coset-line", two_coset_line(), 2.0),
        ("plane", gen_ideal_crystal([[1.0, 0.0], [0.3, 1.1]],
                                    [[0.0, 0.0], [0.5, 0.55]], 9.0), 3.0),
        ("cubic", gen_ideal_crystal(np.eye(3), [[0.0, 0.0, 0.0]], 4.5), 2.2),
        ("skew-3d", gen_ideal_crystal([[1.0, 0.1, 0.0], [0.2, 1.3, 0.0],
                                       [0.1, 0.4, 0.9]],
                                      [[0.0, 0.0, 0.0]], 4.0), 2.0),
        ("random", WindowedSet(rng.uniform(-5, 5, size=(60, 2))), 3.0),
    ]


def _same_difference_set(V, W):
    return (V.vectors.tobytes() == W.vectors.tobytes()
            and V.vectors.shape == W.vectors.shape
            and V.counts.tolist() == W.counts.tolist()
            and V.cutoff == W.cutoff)


@pytest.mark.parametrize("block", [None, 1, 3, 64])
def test_difference_vectors_match_reference(block, monkeypatch):
    from idealcrystal import geometry

    if block is not None:
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
    for name, S, cutoff in _parity_cases():
        V = difference_vectors(S, cutoff)
        W = _reference_difference_vectors(S, cutoff)
        assert _same_difference_set(V, W), (name, block)


def test_difference_vectors_keep_signed_zeros():
    # (0, -1) differences flip to (-0.0, 1.0) in the reference; a_j - a_i
    # would give (+0.0, 1.0), equal as numbers but not as bytes
    V = difference_vectors(disc_lattice(3.0), 1.5)
    W = _reference_difference_vectors(disc_lattice(3.0), 1.5)
    assert np.signbit(W.vectors[:, 0]).any()
    assert V.vectors.tobytes() == W.vectors.tobytes()


def test_difference_vectors_sign_a_row_within_tol_eq_by_its_first_nonzero():
    # the points are 1.118e-9 apart, past the duplicate floor, yet every
    # coordinate of their difference lies within tol_eq: no coordinate
    # leads, so the first nonzero one sets the sign and v, -v still merge
    V = difference_vectors(WindowedSet([[0, 0], [-1e-9, -0.5e-9]], 1.0), 1.0)
    v = [1e-9, 5e-10]
    assert V.vectors.tolist() == [[-1e-9, -5e-10], [0.0, 0.0], v]
    assert V.vectors[0].tobytes() == (-V.vectors[2]).tobytes()
    assert V.counts.tolist() == [1, 2, 1]


# -- denseness_radius ---------------------------------------------------------


def test_denseness_examples():
    assert denseness_radius(disc_lattice(10.0), 2.0) == 1.0
    even = WindowedSet(np.arange(-20.0, 21.0, 2.0), 20.0)
    assert denseness_radius(even, 3.0) == 2.0
    assert abs(denseness_radius(two_coset_line(), 2.0) - 0.3) < 1e-12


def test_denseness_boundary_trim():
    # one straggler near the rim: with a generous margin it stops driving D
    pts = np.concatenate([np.arange(-10.0, 11.0), [14.9]])
    S = WindowedSet(pts, 15.0)
    assert denseness_radius(S, 0.0) > 3.0
    assert denseness_radius(S, 6.0) == 1.0


def test_denseness_errors():
    S = integer_line(-5, 5)
    with pytest.raises(ConfigError):
        denseness_radius(S, -1.0)
    with pytest.raises(MarginTooLarge):
        denseness_radius(S, 20.0)
    with pytest.raises(TooFewPoints):
        denseness_radius(WindowedSet([[1.0]], 2.0), 0.0)


# -- finite_type_gap ----------------------------------------------------------


def test_gap_square_lattice():
    rep = finite_type_gap(disc_lattice(10.0), 1.0)
    assert rep.gap == 1.0
    assert rep.epsilon == 0.5
    assert rep.D == 1.0
    assert rep.pair_count == 13


def test_gap_two_coset_line():
    rep = finite_type_gap(two_coset_line(), 0.3)
    assert abs(rep.gap - 0.3) < 1e-9
    assert abs(rep.epsilon - 0.15) < 1e-9


def test_gap_epsilon_capped_at_half():
    # differences 0 and +-5: gap 5, epsilon capped by min(1, gap)/2
    S = WindowedSet(np.arange(-20.0, 21.0, 5.0), 20.0)
    rep = finite_type_gap(S, 5.0)
    assert rep.gap == 5.0
    assert rep.epsilon == 0.5


def test_gap_epsilon_below_min_separation():
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        S = WindowedSet(np.cumsum(rng.uniform(0.5, 1.5, size=30)) - 20.0)
        D = denseness_radius(S, 2.0)
        rep = finite_type_gap(S, D)
        assert rep.epsilon < min_separation(S), seed


def test_gap_window_monotonicity():
    # enlarging the window can only shrink or preserve the gap
    for seed in range(8):
        rng = np.random.default_rng(300 + seed)
        S = WindowedSet(np.cumsum(rng.uniform(0.8, 2.0, size=60)) - 40.0)
        D = denseness_radius(S, 3.0)
        full = finite_type_gap(S, D).gap
        sub = finite_type_gap(window_restrict(S, S.radius / 2), D).gap
        assert sub >= full - 1e-12, seed


def test_gap_scale_equivariance():
    S = two_coset_line()
    D = denseness_radius(S, 2.0)
    base = finite_type_gap(S, D)
    for s in (0.25, 2.0, 7.5):
        T = WindowedSet(S.points * s, S.radius * s)
        rep = finite_type_gap(T, D * s)
        assert abs(rep.gap - s * base.gap) < 1e-9 * max(1, s)
        assert abs(rep.epsilon - min(1.0, s * base.gap) / 2) < 1e-9


def test_degenerate_gap_raises():
    # separation 1.5e-9 sits between tol_eq and 2*tol_eq: not a duplicate,
    # but the difference set cannot be resolved as discrete
    pts = np.array([0.0, 1.5e-9, 1.0, 2.0, 3.0, 4.0])
    S = WindowedSet(pts, 4.0)
    with pytest.raises(DegenerateGap):
        finite_type_gap(S, 1.0)


def test_perturbed_lattice_gap_collapses():
    S = gen_perturbed_lattice([[1.0]], 0.1, [np.sqrt(2.0)], 200.0)
    D = denseness_radius(S, 20.0)
    try:
        rep = finite_type_gap(S, D)
    except DegenerateGap:
        return
    assert rep.epsilon < 0.01
