"""Cone and dominance predicates, lattice arithmetic, residues, recovery.

Fuzz loops construct inputs whose expected outcome is known analytically;
end-to-end cases round-trip through the generators.
"""

import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.stats import special_ortho_group

import idealcrystal.crystal as crystal_mod
from idealcrystal import (
    AmbiguousSnap,
    AmplitudeTooLarge,
    ConfigError,
    CrystalDecomposition,
    FailureWitness,
    NoCrystalEvidence,
    SingularBasis,
    WindowTooSmall,
    WindowedSet,
    build_lattice,
    build_report,
    canonical_json,
    cone_filter,
    denseness_radius,
    dominance_check,
    finite_type_gap,
    gen_cut_and_project,
    gen_ideal_crystal,
    gen_perturbed_lattice,
    gen_poisson,
    independence_det,
    load_points,
    min_separation,
    recover_crystal,
    refine_lattice,
    residues,
    serialize,
    snap_to_period,
    verify_decomposition,
    verify_exact_period,
)
from idealcrystal.almost_period import TOL_EXACT, candidate_almost_periods
from idealcrystal.config import RunConfig
from idealcrystal.crystal import (
    COORD_TOL,
    _coord_bounds,
    _count_targets,
    _lattice_points,
    _row_norms,
    _ulp_widened,
)
from idealcrystal.geometry import difference_vectors
from idealcrystal.pointset import TOL_EQ
from oracles import residues_by_coset_loop


def disc_lattice(R=20.0):
    g = np.arange(-np.ceil(R), np.ceil(R) + 1)
    xx, yy = np.meshgrid(g, g)
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    return WindowedSet(pts[np.linalg.norm(pts, axis=1) <= R], R)


def sample_dominant(rng, p):
    """Random row tuple where row j is axis-dominant for axis j."""
    B = np.zeros((p, p))
    for j in range(p):
        d = rng.uniform(10.0, 30.0) * rng.choice([-1.0, 1.0])
        off = rng.uniform(-1, 1, size=p) * (abs(d) / (p - 1)) * 0.9
        off[j] = 0.0
        row = off.copy()
        row[j] = d
        # keep the norm condition |T| < (1 + 1/(2p^2)) |T_j|
        while not np.linalg.norm(row) < (1 + 0.5 / (p * p)) * abs(d):
            off *= 0.5
            row = off.copy()
            row[j] = d
        B[j] = row
    return B


# -- cone_filter / dominance_check / independence_det -------------------------


def test_cone_filter_p2_examples():
    assert len(cone_filter([[13.0, 0.0]], 1, 2)) == 1
    assert len(cone_filter([[13.0, 5.0]], 1, 2)) == 0
    assert len(cone_filter([[5.0, 0.0]], 1, 2)) == 0
    # the lower radius is the paper's 3p^2 = 12, strict
    assert len(cone_filter([[12.0, 0.0]], 1, 2)) == 0
    assert len(cone_filter([[12.5, 0.0]], 1, 2)) == 1


def test_cone_filter_axis_roles():
    v = [[0.0, 14.0]]
    assert len(cone_filter(v, 2, 2)) == 1
    assert len(cone_filter(v, 1, 2)) == 0


def test_cone_filter_validation():
    with pytest.raises(ConfigError):
        cone_filter([[1.0, 0.0]], 3, 2)
    # input of the wrong width is refused, not reshaped into rows that are
    # not in the input
    with pytest.raises(ConfigError):
        cone_filter([[30.0, 1.0, 2.0], [4.0, 5.0, 6.0]], 1, 2)
    with pytest.raises(ConfigError):
        cone_filter([30.0, 1.0, 2.0, 4.0], 1, 2)
    with pytest.raises(ConfigError):
        cone_filter(np.zeros((1, 2, 2)), 1, 2)
    assert cone_filter([13.0, 0.0], 1, 2).tolist() == [[13.0, 0.0]]


def test_dominance_examples():
    assert dominance_check([13.0, 0.0], 1, 2)
    assert not dominance_check([10.0, 10.0], 1, 2)
    assert dominance_check([20.0, 3.0, 3.0], 1, 3)
    with pytest.raises(ConfigError):
        dominance_check([1.0], 1, 1)


def test_independence_det_examples():
    assert independence_det(np.eye(3)) == 1.0
    assert independence_det([[1.0, 0.0], [2.0, 0.0]]) == 0.0
    with pytest.raises(ConfigError):
        independence_det([[1.0, 0.0]])


def test_dominance_implies_nonzero_det():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 5))
        B = sample_dominant(rng, p)
        for j in range(p):
            assert dominance_check(B[j], j + 1, p), (seed, j)
        assert abs(independence_det(B)) > 0.0, seed


def test_cone_plus_snap_gives_dominance():
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        p = int(rng.integers(2, 5))
        j = int(rng.integers(1, p + 1))
        # draw a vector in the cone: long axis component, small off-axis
        axis = rng.uniform(3 * p * p + 1.0, 9 * p * p)
        tau = rng.uniform(-1, 1, size=p)
        tau[j - 1] = 0.0
        tau = tau / max(np.linalg.norm(tau), 1e-12) * rng.uniform(
            0.0, 0.3 * axis / (2 * p)
        )
        tau[j - 1] = axis * rng.choice([-1.0, 1.0])
        kept = cone_filter([tau], j, p)
        if len(kept) == 0:
            continue
        drift = rng.uniform(-1, 1, size=p)
        drift = drift / np.linalg.norm(drift) * rng.uniform(0.0, 0.5)
        assert dominance_check(tau + drift, j, p), seed


# -- Lattice / build_lattice ----------------------------------------------------


def test_build_lattice_membership():
    L = build_lattice(np.eye(2))
    assert bool(L.contains([3.0, -7.0]))
    assert not bool(L.contains([0.5, 0.0]))
    assert bool(L.contains([0.0, 0.0]))
    L2 = build_lattice([[2.0, 0.0], [1.0, 1.0]])
    assert bool(L2.contains([3.0, 1.0]))
    assert not bool(L2.contains([1.0, 0.0]))


def test_build_lattice_membership_sampled():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 4))
        B = rng.normal(size=(p, p)) + 3 * np.eye(p)
        L = build_lattice(B)
        n = rng.integers(-10, 11, size=(40, p))
        assert bool(np.all(L.contains(n @ B))), seed
        assert np.allclose(L.nearest(n @ B), n @ B, atol=1e-8), seed


def test_build_lattice_singular():
    with pytest.raises(SingularBasis):
        build_lattice([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(SingularBasis):
        build_lattice([[1.0, 0.0], [1.0, 1e-9]])


@pytest.mark.parametrize("B", [
    [[1e200, 0.0], [0.0, 1e200]],  # |det| overflows
    [[1e200, 0.0], [0.0, 1e-200]],  # |det| = 1, the first row's norm does
], ids=["det", "row-length"])
def test_build_lattice_refuses_an_overflowing_determinant_or_floor(B):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="overflows float64"):
            build_lattice(B)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_build_lattice_det_floor_is_relative_to_the_row_lengths(scale):
    # |det| / (|B_1| |B_2|) = 1 / sqrt(2), whatever the unit of length
    B = scale * np.array([[1.0, 0.0], [1.0, 1.0]])
    assert abs(build_lattice(B, det_floor=0.7).det) == pytest.approx(scale**2)
    with pytest.raises(SingularBasis):
        build_lattice(B, det_floor=0.71)


def test_lattice_distance():
    L = build_lattice([[2.0, 0.0], [0.0, 2.0]])
    d = L.distance(np.array([[2.0, 0.1], [1.0, 1.0]]))
    assert abs(d[0] - 0.1) < 1e-12
    assert abs(d[1] - np.sqrt(2.0)) < 1e-12


# -- refine_lattice -------------------------------------------------------------


def test_refine_one_dimensional():
    L = build_lattice([[2.0]])
    R = refine_lattice(L, [np.array([1.0])])
    assert abs(abs(R.det) - 1.0) < 1e-12


def test_refine_checkerboard():
    L = build_lattice([[2.0, 0.0], [0.0, 2.0]])
    R = refine_lattice(L, [np.array([1.0, 1.0])])
    assert abs(abs(R.det) - 2.0) < 1e-12
    assert bool(R.contains([1.0, 1.0]))
    assert bool(R.contains([2.0, 0.0]))
    assert not bool(R.contains([1.0, 0.0]))


def test_refine_noop_when_contained():
    L = build_lattice([[2.0, 0.0], [0.0, 2.0]])
    assert refine_lattice(L, [np.array([4.0, 2.0])]) is L


def test_refine_det_divides(caplog):
    # group generated by the old basis plus rational periods: determinant
    # ratio must be a positive integer and never grow
    for seed in range(40):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 4))
        B = rng.normal(size=(p, p)) + 4 * np.eye(p)
        L = build_lattice(B)
        k = int(rng.integers(1, 5))
        coeff = rng.integers(-3, 4, size=p) / k
        if not np.any(coeff):
            continue
        R = refine_lattice(L, [coeff @ B])
        ratio = L.det / R.det
        assert ratio >= 1.0 - 1e-9, seed
        assert abs(ratio - round(ratio)) < 1e-6, seed
        assert bool(R.contains(coeff @ B)), seed


def test_refine_drops_incommensurate(caplog):
    L = build_lattice([[1.0]])
    with caplog.at_level("WARNING"):
        R = refine_lattice(L, [np.array([np.sqrt(2.0)])])
    assert R is L
    assert any("dropping period" in m for m in caplog.messages)


def test_refine_warns_once_per_call(caplog):
    L = build_lattice([[1.0]])
    periods = [np.array([np.sqrt(2.0)]), np.array([np.sqrt(3.0)]),
               np.array([np.pi])]
    with caplog.at_level("WARNING", logger="idealcrystal.crystal"):
        R = refine_lattice(L, periods)
    assert R is L
    records = [r for r in caplog.records if r.name == "idealcrystal.crystal"]
    assert len(records) == 1
    msg = records[0].getMessage()
    worst = max(abs(float(Fraction(float(x)).limit_denominator(64)) - float(x))
                for x in (np.sqrt(2.0), np.sqrt(3.0), np.pi))
    assert msg == (
        "dropping periods with no rational coordinates of denominator <= 64: "
        f"3 refused (first [1.4142135623730951], largest residual {worst:.3e})"
    )


def test_refine_retries_deferred_periods_against_the_merged_lattice(caplog):
    # 1.0 has no coordinate of denominator <= 64 against 1000; 20.0 has one,
    # and against the merged lattice of 20 the deferred 1.0 fits
    L = build_lattice([[1000.0]])
    with caplog.at_level("WARNING", logger="idealcrystal.crystal"):
        R = refine_lattice(L, [np.array([1.0]), np.array([20.0])])
    assert abs(R.det) == 1.0
    assert not caplog.records
    # alone, the period 1.0 is refused with the warning
    with caplog.at_level("WARNING", logger="idealcrystal.crystal"):
        assert refine_lattice(L, [np.array([1.0])]) is L
    assert any("dropping period" in m for m in caplog.messages)


# -- residues -------------------------------------------------------------------


def test_residues_identity():
    S = disc_lattice(20.0)
    F = residues(S, build_lattice(np.eye(2)))
    assert F.tolist() == [[0.0, 0.0]]


def test_residues_two_cosets():
    base = np.arange(-40.0, 41.0, 2.0)
    S = WindowedSet(np.concatenate([base, base + 0.5]), 40.5)
    F = residues(S, build_lattice([[2.0]]))
    assert F.ravel().tolist() == [0.0, 0.5]


def test_residues_four_cosets():
    S = disc_lattice(20.0)
    F = residues(S, build_lattice(2.0 * np.eye(2)))
    assert F.tolist() == [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]


def test_residues_distinct_mod_lattice():
    S = disc_lattice(20.0)
    L = build_lattice([[2.0, 1.0], [0.0, 3.0]])
    F = residues(S, L)
    assert len(F) == 6  # index = |det|
    for i in range(len(F)):
        for j in range(i + 1, len(F)):
            assert not bool(L.contains(F[i] - F[j])), (i, j)


def test_residues_of_an_empty_residue_ball():
    # Z^2 without its points of |a| < 3: none lies in the residue ball of
    # radius sum |T_j| = 2
    S = disc_lattice(10.0)
    S = WindowedSet(S.points[np.linalg.norm(S.points, axis=1) >= 3], 10.0)
    F = residues(S, build_lattice(np.eye(2)))
    assert F.shape == (0, 2)
    assert not F.flags.writeable


@pytest.mark.parametrize("call, match", [
    (lambda S: verify_decomposition(S, build_lattice(np.eye(2)),
                                    [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]]),
     r"window's dim 2, got shape \(2, 3\)"),
    (lambda S: verify_decomposition(S, build_lattice(np.eye(3)),
                                    [[0.0, 0.0]]),
     "lattice has dim 3, window has dim 2"),
    (lambda S: residues(S, build_lattice(np.eye(3))),
     "lattice has dim 3, window has dim 2"),
    (lambda S: refine_lattice(build_lattice(np.eye(2)), [[0.5, 0.0, 0.0]]),
     "period has dim 3, lattice has dim 2"),
], ids=["verify-residues", "verify-lattice", "residues-lattice",
        "refine-period"])
def test_lattice_functions_refuse_a_wrong_dimension(call, match):
    # numpy would reshape the residues to the window's dim, or fail with a
    # ValueError of its own
    with pytest.raises(ConfigError, match=match):
        call(disc_lattice(10.0))


def test_residues_window_too_small():
    S = WindowedSet([[0.0], [1.0], [-1.0]], 1.0)
    with pytest.raises(WindowTooSmall):
        residues(S, build_lattice([[2.0]]))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_residues_match_the_coset_loop_across_the_cell_wrap(p):
    # three cosets, one with cell coordinates on the wrap 0 = 1 and one
    # just below it; each lattice point of a coset appears four times, each
    # copy moved off it by up to twice the coset tolerance, so coordinates
    # fall on either side of the wrap and which points a kept
    # representative clears depends on the order the candidates come in
    rng = np.random.default_rng(p)
    B = np.eye(p) + rng.uniform(-0.2, 0.2, (p, p))
    L = build_lattice(B)
    sigma = float(np.linalg.norm(B, axis=1).sum())
    offsets = np.array([np.zeros(p), np.full(p, 1 - 3 * COORD_TOL),
                        rng.uniform(0.2, 0.8, p)])
    n = np.unique(rng.integers(-p - 1, p + 2, size=(700, p)), axis=0)
    cells = np.repeat((n[:, None, :] + offsets).reshape(-1, p), 4, axis=0)
    cells += rng.uniform(-2 * COORD_TOL, 2 * COORD_TOL, cells.shape)
    pts = cells @ B
    R = sigma + 0.5
    S = WindowedSet(pts[np.linalg.norm(pts, axis=1) <= R], R)
    got = residues(S, L)
    want = residues_by_coset_loop(S, L)
    assert len(got) >= 3
    assert got.tolist() == want.tolist()


# -- verify_decomposition ---------------------------------------------------------


def test_verify_clean_identity():
    S = disc_lattice(20.0)
    dec = verify_decomposition(S, build_lattice(np.eye(2)), [[0.0, 0.0]])
    assert dec.verified
    assert dec.coverage_in == 1.0 and dec.coverage_out == 1.0
    assert dec.max_residual < 1e-9
    assert dec.checked_in > 0 and dec.checked_out > 0


def test_verify_injected_fault():
    S = disc_lattice(20.0)
    dec = verify_decomposition(
        S, build_lattice(np.eye(2)), [[0.0, 0.0], [0.5, 0.0]]
    )
    assert not dec.verified
    assert dec.coverage_in < 1.0
    assert dec.coverage_out == 1.0
    assert len(dec.witnesses_in) > 0
    # witnesses are the fabricated half-integer points
    assert np.allclose(np.mod(dec.witnesses_in[:, 0], 1.0), 0.5)


def test_verify_two_coset_line():
    base = np.arange(-40.0, 41.0, 2.0)
    S = WindowedSet(np.concatenate([base, base + 0.5]), 40.5)
    dec = verify_decomposition(S, build_lattice([[2.0]]), [[0.0], [0.5]])
    assert dec.verified


def test_verify_missing_residue_breaks_outward():
    base = np.arange(-40.0, 41.0, 2.0)
    S = WindowedSet(np.concatenate([base, base + 0.5]), 40.5)
    dec = verify_decomposition(S, build_lattice([[2.0]]), [[0.0]])
    assert dec.coverage_in == 1.0
    assert dec.coverage_out < 1.0
    assert len(dec.witnesses_out) > 0


# reference: the box scan that _lattice_points replaced, kept verbatim so the
# reference's witness order does not follow the code under test


def _box_lattice_points(basis: np.ndarray, inv: np.ndarray, radius: float):
    """Yield (n, t = n B) for lattice points with |t| <= radius, in
    deterministic chunks; n holds the integer coordinates."""
    p = basis.shape[0]
    bounds = _coord_bounds(inv, radius)
    first = np.arange(-bounds[0], bounds[0] + 1)
    if p == 1:
        n = first[:, None]
        t = n * basis[0]
        keep = np.linalg.norm(t, axis=1) <= radius + TOL_EQ
        if keep.any():
            yield n[keep], t[keep]
        return
    grids = np.meshgrid(*[np.arange(-b, b + 1) for b in bounds[1:]],
                        indexing="ij")
    rest = np.stack([g.ravel() for g in grids], axis=1)
    for n1 in first:
        n = np.column_stack([np.full(len(rest), n1), rest])
        t = n @ basis
        keep = np.linalg.norm(t, axis=1) <= radius + TOL_EQ
        if keep.any():
            yield n[keep], t[keep]


def _enumerated(blocks):
    blocks = list(blocks)
    if not blocks:
        return b"", b""
    return (np.concatenate([n for n, _ in blocks]).tobytes(),
            np.concatenate([t for _, t in blocks]).tobytes())


@st.composite
def _enumeration_cases(draw):
    p = draw(st.integers(1, 4))
    B = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=p * p,
                               max_size=p * p))).reshape(p, p) + np.eye(p)
    if p >= 2 and draw(st.booleans()):
        # skewed: the last row nearly parallel to the first
        B[-1] = B[0] + 0.05 * B[-1]
    rows = np.linalg.norm(B, axis=1)
    assume(rows.min() > 0.1
           and abs(np.linalg.det(B)) > 1e-3 * float(np.prod(rows)))
    # radius from a target count of points, so every p gets a ball of
    # comparable size at every scale
    count = draw(st.floats(0.5, 2000.0))
    radius = (count * abs(np.linalg.det(B))) ** (1.0 / p)
    scale = 10.0 ** draw(st.floats(-4.0, 6.0))
    B = B * scale
    radius = radius * scale
    inv = np.linalg.inv(B)
    box = np.prod([2.0 * b + 1 for b in _coord_bounds(inv, radius)])
    assume(box <= 200_000)
    return B, radius


@settings(max_examples=300, deadline=None, derandomize=True,
          database=None)
@given(_enumeration_cases())
@example((np.eye(2), 5.0))
@example((np.eye(3), 3.0))
@example((np.eye(2) * 1e-4, 5e-4))
@example((np.eye(3) * 1e6, 3e6))
@example((np.array([[2.0]]), 10.0))
def test_lattice_points_match_box_scan(case):
    B, radius = case
    inv = np.linalg.inv(B)
    n, t = _lattice_points(B, inv, radius)
    assert (n.tobytes(), t.tobytes()) == _enumerated(
        _box_lattice_points(B, inv, radius))


@st.composite
def _count_cases(draw):
    B, radius = draw(_enumeration_cases())
    p = B.shape[0]
    # an off-centre residue, up to one cell from the origin
    f = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=p,
                               max_size=p))) @ B
    return B, f, radius * draw(st.floats(0.0, 1.0))


def _rim_case(p: int, scale: float):
    # lim is the norm of a target, to the bit
    B = np.eye(p) * scale
    f = np.full(p, 0.5 * scale)
    t = np.arange(3, 3 + p, dtype=np.int64)[None] @ B
    return B, f, float(np.linalg.norm(t + f, axis=1)[0])


@settings(max_examples=300, deadline=None, derandomize=True,
          database=None)
@given(_count_cases())
@example((np.eye(2), np.zeros(2), 5.0))
@example(_rim_case(1, 1.0))
@example(_rim_case(2, 1e-4))
@example(_rim_case(3, 1e6))
@example(_rim_case(4, 1.0))
@example((np.array([[2.0]]), np.array([0.7]), 0.0))
@example((np.eye(2), np.zeros(2), -1.0))
def test_count_targets_matches_enumeration(case):
    B, f, lim = case
    inv = np.linalg.inv(B)
    radius = _ulp_widened(max(lim, 0.0) + float(np.linalg.norm(f)))
    t = _lattice_points(B, inv, radius)[1]
    want = int((np.linalg.norm(t + f, axis=1) <= lim).sum())
    assert _count_targets(B, inv, radius, f, lim) == want


@pytest.mark.parametrize("seed", [9, 14, 33, 41])
def test_lattice_points_are_one_product_in_four_dimensions(seed):
    # bases whose rim 2-D sections hold a single lattice point: the
    # enumerated t are the rows of one n @ B over the whole box, bit for bit
    # (for p >= 4 numpy sends a one-row product to BLAS gemv, whose bits can
    # differ from the same row of a larger product)
    B = np.random.default_rng(seed).normal(size=(4, 4))
    inv = np.linalg.inv(B)
    box = np.stack(np.meshgrid(*[np.arange(-b, b + 1)
                                 for b in _coord_bounds(inv, 4.0)],
                               indexing="ij"), -1).reshape(-1, 4)
    T = box @ B
    keep = np.linalg.norm(T, axis=1) <= 4.0 + TOL_EQ
    n, t = _lattice_points(B, inv, 4.0)
    _, per_section = np.unique(n[:, :2], axis=0, return_counts=True)
    assert (per_section == 1).any()
    assert n.tobytes() == box[keep].tobytes()
    assert t.tobytes() == T[keep].tobytes()


# references: the generators on the box scan, in their former per-block form


def _box_crystal(B, F, R):
    B, F = np.asarray(B, dtype=np.float64), np.asarray(F, dtype=np.float64)
    max_f = float(np.linalg.norm(F, axis=1).max())
    pieces = []
    for _, chunk in _box_lattice_points(B, np.linalg.inv(B),
                                        _ulp_widened(R + max_f)):
        for f in F:
            pts = chunk + f
            pieces.append(pts[np.linalg.norm(pts, axis=1) <= R + TOL_EQ])
    return WindowedSet(np.concatenate(pieces), R)


def _box_perturbed(B, amplitude, freqs, R):
    B = np.asarray(B, dtype=np.float64)
    u = B[0] / np.linalg.norm(B[0])
    pieces = []
    for n, chunk in _box_lattice_points(B, np.linalg.inv(B),
                                        _ulp_widened(R + amplitude)):
        shift = amplitude * np.sin(2 * np.pi * (n @ np.asarray(freqs)))
        pts = chunk + shift[:, None] * u
        pieces.append(pts[np.linalg.norm(pts, axis=1) <= R + TOL_EQ])
    return WindowedSet(np.concatenate(pieces), R)


def _rotated(p, seed):
    Q = special_ortho_group.rvs(p, random_state=seed)
    return Q @ np.diag(np.random.default_rng(seed).uniform(0.9, 1.1, p))


@pytest.mark.parametrize("B, F, R", [
    ([[2.0]], [[0.0], [0.5], [1.3]], 40.0),
    ([[1.0, 0.0], [0.3, 1.1]], [[0.0, 0.0], [0.5, 0.55]], 30.0),
    (_rotated(2, 3), [[0.1, 0.2], [0.4, -0.3], [-0.2, 0.45]], 20.0),
    (_rotated(3, 4), [[0.0, 0.0, 0.0]], 12.0),
    (_rotated(3, 5), [[0.0, 0.0, 0.0], [0.5, 0.1, 0.2], [0.1, 0.5, -0.3]],
     8.0),
], ids=["p1-3res", "plane-2res", "p2-3res", "p3-1res", "p3-3res"])
def test_gen_ideal_crystal_matches_box_scan(B, F, R):
    S = gen_ideal_crystal(B, F, R)
    ref = _box_crystal(B, F, R)
    assert S.points.tobytes() == ref.points.tobytes()


@pytest.mark.parametrize("B, amplitude, freqs, R", [
    ([[1.0]], 0.1, [np.sqrt(2.0)], 400.0),
    ([[1.0, 0.0], [0.3, 1.1]], 0.05, [np.sqrt(2.0), 0.0], 20.0),
    (_rotated(3, 4), 0.05, [np.sqrt(2.0), 0.0, 0.0], 8.0),
], ids=["p1-sqrt2", "plane", "p3"])
def test_gen_perturbed_lattice_matches_box_scan(B, amplitude, freqs, R):
    S = gen_perturbed_lattice(B, amplitude, freqs, R)
    ref = _box_perturbed(B, amplitude, freqs, R)
    assert S.points.tobytes() == ref.points.tobytes()


def _box_shortest_vector(B, m):
    # reference: the amplitude guard's former box scan, |n_i| <= m
    p = B.shape[0]
    grids = np.meshgrid(*[np.arange(-m, m + 1)] * p, indexing="ij")
    n = np.stack([g.ravel() for g in grids], axis=1)
    n = n[np.any(n != 0, axis=1)]
    return float(np.linalg.norm(n @ B, axis=1).min())


@settings(max_examples=150, deadline=None, derandomize=True,
          database=None)
@given(_enumeration_cases())
def test_amplitude_guard_matches_box_scan(case):
    # the guard refuses amplitude >= sep / 4, sep the shortest nonzero
    # lattice vector, read off the ball of the shortest row's length
    B, _ = case
    p = B.shape[0]
    min_row = float(np.linalg.norm(B, axis=1).min())
    sigma_min = float(np.linalg.svd(B, compute_uv=False).min())
    # the box holds every n with |n B| <= min_row
    m = max(2, int(np.ceil(min_row / sigma_min)) + 1)
    assume((2 * m + 1) ** p <= 200_000)
    quarter = _box_shortest_vector(B, m) / 4
    with pytest.raises(AmplitudeTooLarge):
        gen_perturbed_lattice(B, quarter, np.zeros(p), min_row)
    gen_perturbed_lattice(B, np.nextafter(quarter, 0.0), np.zeros(p), min_row)


@pytest.mark.parametrize("p", range(1, 11))
def test_row_norms_match_numpy_bit_for_bit(p):
    rng = np.random.default_rng(p)
    v = rng.normal(size=(500, p)) * 10.0 ** rng.uniform(-6, 6, (500, p))
    for rows in (v, v[::3], v[:1]):
        assert (_row_norms(rows).tobytes()
                == np.linalg.norm(rows, axis=1).tobytes())


# reference: the KD-tree form of verify_decomposition. Both inclusions are
# nearest-neighbour queries, so neither depends on how the implementation
# rounds to lattice coordinates: inclusion in queries each box-scan slab's
# targets against the window, inclusion out the window against the
# enumerated L + F


def _reference_verify_decomposition(S, L, F, tol_exact=TOL_EXACT):
    F = np.asarray(F, dtype=np.float64).reshape(-1, S.dim)
    R = S.radius
    max_f = float(np.linalg.norm(F, axis=1).max()) if len(F) else 0.0
    within = tol_exact * (1 + 1e-9)
    tree = S.tree()
    checked_in = found_in = 0
    wit_in, crystal = [], []
    if len(F):
        for _, chunk in _box_lattice_points(L.basis, L.inv,
                                            R + max_f + 1.0):
            for f in F:
                pts = chunk + f
                crystal.append(pts)
                keep = np.linalg.norm(pts, axis=1) <= R - tol_exact
                if not keep.any():
                    continue
                pts = pts[keep]
                d, _ = tree.query(pts, k=1, distance_upper_bound=within)
                ok = d <= tol_exact
                checked_in += len(pts)
                found_in += int(ok.sum())
                for bad in pts[~ok][: max(0, 10 - len(wit_in))]:
                    wit_in.append(bad)
    best = np.full(len(S), np.inf)
    if crystal:
        best, _ = cKDTree(np.concatenate(crystal)).query(
            S.points, k=1, distance_upper_bound=within)
    ok = best <= tol_exact
    found_out = int(ok.sum())
    max_residual = float(best[ok].max()) if ok.any() else 0.0
    wit_out = list(S.points[~ok][:10])
    return dict(
        coverage_in=found_in / checked_in if checked_in else 1.0,
        coverage_out=found_out / len(S) if len(S) else 1.0,
        max_residual=max_residual,
        checked_in=checked_in,
        checked_out=len(S),
        witnesses_in=np.array(wit_in).reshape(-1, S.dim).tobytes(),
        witnesses_out=np.array(wit_out).reshape(-1, S.dim).tobytes(),
    )


def _verify_fields(dec):
    return dict(
        coverage_in=dec.coverage_in,
        coverage_out=dec.coverage_out,
        max_residual=dec.max_residual,
        checked_in=dec.checked_in,
        checked_out=dec.checked_out,
        witnesses_in=dec.witnesses_in.tobytes(),
        witnesses_out=dec.witnesses_out.tobytes(),
    )


def _verify_parity_cases():
    rng = np.random.default_rng(11)
    line_B, line_F = [[2.0]], [[0.0], [0.5]]
    plane_B = [[1.0, 0.0], [0.3, 1.1]]
    plane_F = [[0.0, 0.0], [0.5, 0.55]]
    cube_B = [[1.0, 0.1, 0.0], [0.2, 1.3, 0.0], [0.1, 0.4, 0.9]]
    line = gen_ideal_crystal(line_B, line_F, 30.0)
    plane = gen_ideal_crystal(plane_B, plane_F, 12.0)
    cube = gen_ideal_crystal(cube_B, [[0.0, 0.0, 0.0]], 6.0)

    # 14 holes: more in-witnesses than the ten kept, so order matters
    holes = rng.choice(len(plane), size=14, replace=False)
    holed = WindowedSet(np.delete(plane.points, holes, axis=0), plane.radius)
    # off-lattice extras, one sharing a cell key with a lattice point
    extras = np.array([[0.25, 0.3], [3.45, -2.2], [-5.1, 4.05],
                       [1.0 + 0.2, 0.0]])
    extra = WindowedSet(np.concatenate([plane.points, extras]), plane.radius)
    # a lattice point replaced by a near miss (1.5 tol) in its cell, one
    # nudged diagonally to 0.85 tol (a hit with that residual), one missing
    # with an off-lattice point in its cell (shared key, no hit)
    pts = plane.points.copy()
    tol = TOL_EXACT
    order = np.argsort(np.linalg.norm(pts, axis=1))
    pts[order[3]] += [1.5 * tol, 0.0]
    pts[order[7]] += [0.6 * tol, 0.6 * tol]
    pts[order[11]] += [0.2, 0.1]
    nudged = WindowedSet(pts, plane.radius)
    # two window points in one cell: the nearer decides
    both = WindowedSet(np.concatenate([plane.points,
                                       plane.points[order[5]][None] + 0.05]),
                       plane.radius)
    # every point off by up to 0.4 tol per coordinate: generic residuals
    jitter = WindowedSet(
        plane.points + rng.uniform(-0.4, 0.4, plane.points.shape) * tol,
        plane.radius + tol)
    cube_holed = WindowedSet(np.delete(cube.points, [0, 17, 300], axis=0),
                             cube.radius)
    # several residues and more than ten holes: the witnesses interleave
    # residues within each n_1 slab (p = 3) and within each n_1 across the
    # 2-D sections of the enumeration (p = 4)
    cube_F = [[0.0, 0.0, 0.0], [0.5, 0.45, 0.4]]
    cube2 = gen_ideal_crystal(cube_B, cube_F, 5.0)
    cube2_holed = WindowedSet(
        np.delete(cube2.points, rng.choice(len(cube2), size=13, replace=False),
                  axis=0), cube2.radius)
    tess_B = [[1.0, 0.1, 0.0, 0.2], [0.0, 1.2, 0.1, 0.0],
              [0.3, 0.0, 0.9, 0.1], [0.0, 0.2, 0.1, 1.1]]
    tess_F = [[0.0, 0.0, 0.0, 0.0], [0.5, 0.4, 0.3, 0.6]]
    tess = gen_ideal_crystal(tess_B, tess_F, 3.5)
    tess_holed = WindowedSet(
        np.delete(tess.points, rng.choice(len(tess), size=12, replace=False),
                  axis=0), tess.radius)
    # two points 6e-9 apart, 2e-9 and 4e-9 from one target near the rim:
    # one hit key twice, counted once; inclusion out reads both points
    out = order[np.searchsorted(plane.norms()[order], plane.radius - 1.0)]
    a = plane.points[out]
    twin = WindowedSet(
        np.concatenate([np.delete(plane.points, out, axis=0),
                        [a + [2e-9, 0.0], a - [4e-9, 0.0]]]), plane.radius)
    # a missing target whose norm is R - tol_exact to the bit: it counts
    # and is the only witness
    rim_R, rim_t = _rim_radius(plane_B)
    rim_plane = gen_ideal_crystal(plane_B, plane_F, rim_R)
    rim = WindowedSet(
        np.delete(rim_plane.points,
                  np.argmin(np.linalg.norm(rim_plane.points - rim_t, axis=1)),
                  axis=0), rim_R)
    return [
        ("p1-line", line, line_B, line_F),
        ("p1-one-residue", line, line_B, line_F[:1]),
        ("p2-plane", plane, plane_B, plane_F),
        ("p2-wrong-residue", plane, plane_B, [[0.0, 0.0], [0.25, 0.5]]),
        ("p2-holes", holed, plane_B, plane_F),
        ("p2-extras", extra, plane_B, plane_F),
        ("p2-past-tol", nudged, plane_B, plane_F),
        ("p2-shared-key", both, plane_B, plane_F),
        ("p2-jitter", jitter, plane_B, plane_F),
        ("p3-cube", cube, cube_B, [[0.0, 0.0, 0.0]]),
        ("p3-holes", cube_holed, cube_B, [[0.0, 0.0, 0.0]]),
        ("p3-two-residues-holes", cube2_holed, cube_B, cube_F),
        ("p4-two-residues-holes", tess_holed, tess_B, tess_F),
        ("p2-twin-hit", twin, plane_B, plane_F),
        ("p2-rim", rim, plane_B, plane_F),
    ]


def _rim_radius(B):
    """A radius R with R - TOL_EXACT equal to |t| to the bit, t = (7, 3) B,
    and that t."""
    t = np.array([[7, 3]]) @ np.asarray(B)
    norm = float(np.linalg.norm(t, axis=1)[0])
    R = norm + TOL_EXACT
    for _ in range(64):
        if R - TOL_EXACT == norm:
            return R, t[0]
        R = np.nextafter(R, np.inf if R - TOL_EXACT < norm else -np.inf)
    raise AssertionError("no radius puts the target on the rim")


@pytest.mark.parametrize("name,S,B,F", _verify_parity_cases(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_verify_matches_kd_reference(name, S, B, F):
    L = build_lattice(B)
    got = _verify_fields(verify_decomposition(S, L, F))
    assert got == _reference_verify_decomposition(S, L, F), name


def test_verify_parity_cases_cover_every_outcome():
    seen = {}
    for name, S, B, F in _verify_parity_cases():
        dec = verify_decomposition(S, build_lattice(B), F)
        seen[name] = dec
    assert seen["p2-plane"].verified and seen["p3-cube"].verified
    assert len(seen["p2-holes"].witnesses_in) == 10
    assert len(seen["p2-extras"].witnesses_out) > 0
    assert len(seen["p2-past-tol"].witnesses_in) == 2
    assert 0.8 * TOL_EXACT < seen["p2-past-tol"].max_residual <= TOL_EXACT
    assert seen["p2-shared-key"].coverage_in == 1.0
    assert seen["p2-jitter"].verified
    assert 0.2 * TOL_EXACT < seen["p2-jitter"].max_residual < 0.6 * TOL_EXACT
    for name in ("p3-two-residues-holes", "p4-two-residues-holes"):
        assert len(seen[name].witnesses_in) == 10, name
        assert seen[name].coverage_out == 1.0, name
    assert seen["p2-twin-hit"].verified
    assert seen["p2-twin-hit"].max_residual == pytest.approx(4e-9, rel=0.01)
    assert seen["p2-twin-hit"].checked_in == seen["p2-plane"].checked_in
    assert seen["p2-twin-hit"].coverage_in == 1.0
    rim_t = _rim_radius(seen["p2-rim"].lattice.basis)[1]
    assert seen["p2-rim"].witnesses_in.tolist() == [rim_t.tolist()]


@pytest.mark.parametrize("B, F, R", [
    ([[2.0]], [[0.0], [0.5], [1.3]], 40.0),
    ([[1.37]], [[0.0], [0.4247], [1.0549]], 400.0),
    ([[1.0, 0.0], [0.3, 1.1]], [[0.0, 0.0], [0.5, 0.55]], 12.0),
    (_rotated(2, 3), [[0.1, 0.2], [0.4, -0.3], [-0.2, 0.45]], 20.0),
    ([[1.0, 0.1, 0.0], [0.2, 1.3, 0.0], [0.1, 0.4, 0.9]],
     [[0.0, 0.0, 0.0], [0.5, 0.45, 0.4]], 5.0),
    (_rotated(3, 5), [[0.0, 0.0, 0.0], [0.5, 0.1, 0.2], [0.1, 0.5, -0.3]],
     8.0),
    # past one row block
    (_rotated(3, 4), [[0.3, -0.2, 0.1], [-0.4, 0.35, 0.5]], 20.0),
], ids=["p1-3res", "p1-3res-long", "plane-2res", "p2-3res", "p3-2res",
        "p3-3res", "p3-2res-blocks"])
def test_verify_generated_crystal_has_zero_residual(B, F, R):
    # each window point is t + f as the generator forms it, and the check
    # forms the same t + f from the rounded coordinates, bit for bit
    S = gen_ideal_crystal(B, F, R)
    dec = verify_decomposition(S, build_lattice(B), F)
    assert dec.verified
    assert dec.max_residual == 0.0


def test_verified_crystal_enumerates_no_targets(monkeypatch):
    # targets are counted; they are listed only to name a missed one
    plane = gen_ideal_crystal([[1.0, 0.0], [0.3, 1.1]],
                              [[0.0, 0.0], [0.5, 0.55]], 20.0)
    holed = WindowedSet(
        np.delete(plane.points, np.argmin(plane.norms()), axis=0), 20.0)

    def refuse(*args, **kwargs):
        raise AssertionError("targets enumerated")

    monkeypatch.setattr(crystal_mod, "_lattice_points", refuse)
    L = build_lattice([[1.0, 0.0], [0.3, 1.1]])
    assert verify_decomposition(plane, L, [[0.0, 0.0], [0.5, 0.55]]).verified
    assert isinstance(recover_crystal(plane), CrystalDecomposition)
    with pytest.raises(AssertionError, match="targets enumerated"):
        verify_decomposition(holed, L, [[0.0, 0.0], [0.5, 0.55]])


def test_verify_refuses_tolerance_past_half_cell():
    S = disc_lattice(5.0)
    with pytest.raises(ConfigError):
        verify_decomposition(S, build_lattice(np.eye(2)), [[0.0, 0.0]],
                             tol_exact=0.5)
    verify_decomposition(S, build_lattice(np.eye(2)), [[0.0, 0.0]],
                         tol_exact=0.49)
    # the same 1e-8 tolerance against a lattice of spacing 1e-8
    tiny = WindowedSet(disc_lattice(5.0).points * 1e-8, 5e-8)
    with pytest.raises(ConfigError):
        verify_decomposition(tiny, build_lattice(np.eye(2) * 1e-8),
                             [[0.0, 0.0]])


def test_verify_refuses_key_range_past_int64():
    S = WindowedSet(np.zeros((1, 3)), 1e7)
    with pytest.raises(ConfigError, match="int64"):
        verify_decomposition(S, build_lattice(np.eye(3)), [[0.0, 0.0, 0.0]])


def test_verify_plane_at_small_scale():
    # the enumeration reaches R + max |f|, widened by ulps only: an absolute
    # pad of 1.0 would enumerate ~10^8 lattice points at scale 1e-4
    S = gen_ideal_crystal(PLANE_B, PLANE_F, 30.0)
    unit = verify_decomposition(S, build_lattice(PLANE_B), PLANE_F)
    c = 1e-4
    B, F = np.array(PLANE_B) * c, np.array(PLANE_F) * c
    dec = verify_decomposition(WindowedSet(S.points * c, 30.0 * c),
                               build_lattice(B), F)
    assert (dec.checked_in, dec.checked_out) == (5143, len(S))
    assert (unit.checked_in, unit.checked_out) == (5143, len(S))
    assert dec.coverage_in == dec.coverage_out == 1.0
    # the generator enumerates to the same radius
    assert len(gen_ideal_crystal(B, F, 30.0 * c)) == len(S)


def test_enumeration_keeps_a_point_rounded_onto_the_sphere():
    # the ulp at R is 2^-21: s - g = R + 2^-22 rounds to R (a tie, to
    # even), and so does R + g, to s - 2^-21. Without its few ulps of
    # slack the enumeration radius R + max |f| would drop the lattice
    # point s. Both targets are hit, and the point R is the target s - g
    # as floats form it, so the residual that hits it covers it too
    R = 2.0 ** 31
    s, g = R + 0.5 + 2.0 ** -21, 0.5 + 2.0 ** -22
    S = gen_ideal_crystal([[s]], [[-g]], R)
    assert S.points.ravel().tolist() == [-g, R]
    dec = verify_decomposition(S, build_lattice([[s]]), [[-g]])
    assert dec.checked_in == 2 and dec.coverage_in == 1.0
    assert dec.verified and dec.max_residual == 0.0


def test_verify_does_not_depend_on_the_row_blocks(monkeypatch):
    # a two-coset plane cut into five row blocks, with a defect of each kind
    # placed by row: two points within tol_exact of one target near the
    # rim on either side of the first block boundary, an off-lattice extra
    # in a middle block and a vacancy in the last block
    B, F, R = np.array(PLANE_B), np.array(PLANE_F), 30.0
    plane = gen_ideal_crystal(B, F, R)
    pts, norms = plane.points, plane.norms()
    n = len(pts)
    rim = R - np.linalg.norm(B, axis=1).sum() < norms[1150:1250]
    base = 1150 + int(np.flatnonzero(rim & (norms[1150:1250] < R - 0.5))[0])
    gone = n - 200 + int(np.argmin(norms[-200:]))
    a = pts[base]
    extra = pts[2900 + int(np.argmin(norms[2900:3000]))] + [0.31, 0.17]
    # rows before base stay put, so the twins are rows base and base + 1
    twins = [a - [0.0, 4e-9], a + [0.0, 2e-9]]
    S = WindowedSet(np.concatenate([np.delete(pts, [base, gone], axis=0),
                                    twins, [extra]]), R)
    blk = base + 1
    assert S.points[base:base + 2].tolist() == np.array(twins).tolist()
    row = int(np.flatnonzero(np.all(S.points == extra, axis=1))[0])
    assert blk < row < 3 * blk
    last = (len(S) - 1) // blk * blk
    assert last >= 4 * blk and S.points[last, 0] < pts[gone, 0]

    L = build_lattice(B)
    monkeypatch.setattr(crystal_mod, "_ROW_BLOCK", len(S))
    whole = verify_decomposition(S, L, F)
    monkeypatch.setattr(crystal_mod, "_ROW_BLOCK", blk)
    blocked = verify_decomposition(S, L, F)
    assert _verify_fields(blocked) == _verify_fields(whole)
    assert blocked.max_residual.hex() == whole.max_residual.hex()
    assert _verify_fields(whole) == _reference_verify_decomposition(S, L, F)
    # each defect is seen: the vacancy is the one missed target, the extra
    # the one point off L + F, and the twins hit their target once; the
    # farther one's residual is the largest, read by inclusion out
    assert whole.witnesses_in.tolist() == [pts[gone].tolist()]
    assert whole.witnesses_out.tolist() == [extra.tolist()]
    assert whole.checked_in * (1 - whole.coverage_in) == pytest.approx(1)
    assert whole.max_residual == pytest.approx(4e-9, rel=0.01)


def test_verify_peak_memory_per_point():
    # the mapping's temporaries cover one row block, not the window, so a
    # check holds little past its per-point residual and hit-key arrays
    rng = np.random.default_rng(90_079)
    B = special_ortho_group.rvs(3, random_state=79) @ np.diag(
        rng.uniform(0.9, 1.1, 3))
    F = np.zeros((1, 3))
    S = gen_ideal_crystal(B, F, 32.0)
    assert len(S) >= 100_000
    L = build_lattice(B)
    tracemalloc.start()
    try:
        assert verify_decomposition(S, L, F).verified
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(S) < 100, f"{peak / len(S):.0f} bytes per point"


@st.composite
def _crystals_with_a_stray_point(draw):
    p = draw(st.integers(1, 3))
    B = _rotated(p, draw(st.integers(0, 10_000)))
    F = np.zeros((1, p))
    if draw(st.booleans()):
        frac = draw(st.lists(st.floats(0.2, 0.8), min_size=p, max_size=p))
        F = np.vstack([F, np.array(frac) @ B])
    R = draw(st.floats(3.0, [20.0, 10.0, 5.0][p - 1]))
    S = gen_ideal_crystal(B, F, R)
    u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=p,
                               max_size=p)))
    assume(np.linalg.norm(u) > 0.1)
    u /= np.linalg.norm(u)
    if draw(st.booleans()):  # anywhere in the window
        x = u * draw(st.floats(0.0, R))
    else:  # just past 10 tol_exact from a window point, rim included
        a = S.points[draw(st.integers(0, len(S) - 1))]
        x = a + u * 10 * TOL_EXACT * 10.0 ** draw(st.floats(0.0, 5.0))
    assume(np.linalg.norm(x) <= R)
    return S, B, F, x


def _distance_to_crystal(L, F, x):
    # the bases are near-orthonormal, so the nearest lattice point is one
    # step at most from the rounded coordinates
    steps = np.stack(np.meshgrid(*[[-1, 0, 1]] * L.dim, indexing="ij"),
                     -1).reshape(-1, L.dim)
    return min(float(np.linalg.norm(
        x - f - (np.round(L.coords(x - f)) + steps) @ L.basis, axis=1).min())
        for f in F)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_crystals_with_a_stray_point())
@example((gen_ideal_crystal([[1.0, 0.0], [0.3, 1.1]],
                            [[0.0, 0.0], [0.5, 0.55]], 30.0),
          np.array([[1.0, 0.0], [0.3, 1.1]]),
          np.array([[0.0, 0.0], [0.5, 0.55]]), np.array([17.523, 23.277])))
def test_a_point_off_the_crystal_is_never_verified(case):
    # inclusion out reads every window point, the rim included
    S, B, F, x = case
    L = build_lattice(B)
    assume(_distance_to_crystal(L, F, x) >= 10 * TOL_EXACT)
    T = WindowedSet(np.vstack([S.points, [x]]), S.radius)
    dec = verify_decomposition(T, L, F)
    assert not dec.verified
    assert x.tolist() in dec.witnesses_out.tolist()
    assert dec.checked_out == len(T)


# -- recover_crystal ---------------------------------------------------------------


def test_recover_two_coset_line():
    S = gen_ideal_crystal([[2.0]], [[0.0], [0.5]], 40.0)
    dec = recover_crystal(S)
    assert isinstance(dec, CrystalDecomposition)
    assert dec.verified
    assert abs(abs(dec.lattice.det) - 2.0) < 1e-9
    assert dec.residues.ravel().tolist() == [0.0, 0.5]
    assert dec.epsilon is not None and dec.D is not None
    assert len(dec.periods) > 0


def test_recover_skewed_two_coset_plane():
    B = [[1.0, 0.0], [0.2, 1.1]]
    S = gen_ideal_crystal(B, [[0.0, 0.0], [0.31, 0.4]], 60.0)
    dec = recover_crystal(S)
    assert isinstance(dec, CrystalDecomposition)
    assert dec.verified
    assert abs(abs(dec.lattice.det) - 1.1) < 1e-9
    assert len(dec.residues) == 2
    assert dec.max_residual <= 1e-7


def test_recover_point_count_floor():
    # D and the minimum separation need a pair, and recovery needs no more
    # points than that: fewer than 2 stage at input, and a 5-point window
    # of Z is already a crystal
    for pts in (np.zeros((0, 1)), [[0.3]]):
        out = recover_crystal(WindowedSet(pts, 1.0))
        assert isinstance(out, NoCrystalEvidence)
        assert out.stage == "input"
    for R, n in ((10.0, 21), (2.0, 5)):
        S = gen_ideal_crystal([[1.0]], [[0.0]], R)
        assert len(S) == n
        dec = recover_crystal(S)
        assert isinstance(dec, CrystalDecomposition)
        assert abs(abs(dec.lattice.det) - 1.0) < 1e-9


def test_recover_translation_covariance():
    B = np.array([[1.0, 0.0], [0.0, 1.0]])
    v = np.array([0.37, -0.21])
    S1 = gen_ideal_crystal(B, [[0.0, 0.0]], 45.0)
    S2 = gen_ideal_crystal(B, [v], 45.0)
    d1 = recover_crystal(S1)
    d2 = recover_crystal(S2)
    assert d1.verified and d2.verified
    assert abs(abs(d1.lattice.det) - abs(d2.lattice.det)) < 1e-9
    # same lattice: bases mutually contained
    assert bool(np.all(d1.lattice.contains(d2.lattice.basis)))
    assert bool(np.all(d2.lattice.contains(d1.lattice.basis)))
    # residues agree after unshifting, modulo the lattice
    for f in d2.residues:
        assert bool(np.any(d1.lattice.contains(f - v - d1.residues))), f


def test_recover_paper_cone_matches_greedy():
    B = np.eye(2)
    S = gen_ideal_crystal(B, [[0.0, 0.0], [0.5, 0.5]], 70.0)
    greedy = recover_crystal(S)
    cone = recover_crystal(S, RunConfig(strategy="paper-cone"))
    assert isinstance(greedy, CrystalDecomposition)
    assert isinstance(cone, CrystalDecomposition)
    ratio = abs(cone.lattice.det) / abs(greedy.lattice.det)
    assert abs(ratio - round(ratio)) < 1e-6 and round(ratio) >= 1


def test_recover_explicit_annulus():
    S = gen_ideal_crystal([[1.0]], [[0.0]], 60.0)
    dec = recover_crystal(S, RunConfig(r_max=30.0))
    assert isinstance(dec, CrystalDecomposition)
    assert abs(abs(dec.lattice.det) - 1.0) < 1e-9
    with pytest.raises(ConfigError):
        recover_crystal(S, RunConfig(r_max=45.0))


def test_recover_paper_cone_infeasible_ladder():
    # p = 3 cone members are longer than 3p^2 = 27; with R/2 = 8 no
    # candidate can reach a cone, so the run stops before any harvest
    g = np.arange(-16.0, 17.0)
    pts = np.stack(np.meshgrid(g, g, g), axis=-1).reshape(-1, 3)
    S = WindowedSet(pts[np.linalg.norm(pts, axis=1) <= 16.0], 16.0)
    out = recover_crystal(S, RunConfig(strategy="paper-cone"))
    assert isinstance(out, NoCrystalEvidence)
    assert out.stage == "basis-selection"
    assert out.diagnostics["n_candidates"] == 0
    assert out.reason.startswith(
        "every axis cone is empty: cone members are longer than 3p^2 = 27,")
    # the same window is a crystal under greedy-det
    assert recover_crystal(S).verified


def test_recover_paper_cone_p3():
    # a rotated near-cubic p = 3 crystal whose window reaches the cones:
    # R/2 = 30 passes 3p^2 = 27
    c, s = np.cos(0.3), np.sin(0.3)
    Q = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    B = Q @ np.diag([3.8, 4.0, 4.2])
    S = gen_ideal_crystal(B, [[0.0, 0.0, 0.0]], 60.0)
    out = recover_crystal(S, RunConfig(strategy="paper-cone"))
    assert out.verified
    assert abs(out.lattice.det) == pytest.approx(abs(np.linalg.det(B)),
                                                 rel=1e-9)
    P = np.array([q.T for q in out.periods])
    for j in (1, 2, 3):
        members = cone_filter(P, j, 3)
        assert len(members), j
        assert bool(np.all(out.lattice.contains(members))), j


def test_recover_counts_no_zero_candidate():
    # with r_min below TOL_EQ the annulus reaches length 0, yet the anchor
    # is no translation of itself: only points c != a give candidates.
    # Recovery's own floor, half the minimum separation, keeps them all
    S = gen_ideal_crystal([[1.0, 0.0], [0.3, 1.1]], [[0.0, 0.0]], 12.0)
    a = S.points[np.argmin(S.norms())]
    d = np.linalg.norm(S.points - a, axis=1)
    want = int(((d > 0) & (d <= 3.0)).sum())
    assert want == 26
    got = candidate_almost_periods(S, 0.1, 1e-12, 3.0)
    assert len(got) == want
    assert np.all(np.linalg.norm(got, axis=1) > 0)
    out = recover_crystal(S, RunConfig(r_max=3.0))
    assert out.verified
    assert out.diagnostics["n_candidates"] == want


def _criterion6_basis(seed):
    """Criterion-6 recipe: a rotated near-square basis (R = 62, |F| = 1)."""
    rng = np.random.default_rng(74_000 + seed)
    t = float(rng.uniform(0, 2 * np.pi))
    Q = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    return Q @ np.diag(rng.uniform(0.9, 1.1, 2))


@pytest.mark.parametrize("B, F, R", [
    ([[1.0, 0.0], [0.3, 1.1]], [[0.0, 0.0], [0.5, 0.55]], 30.0),
    (_criterion6_basis(0), [[0.0, 0.0]], 62.0),
], ids=["readme-plane", "criterion6-seed0"])
def test_recover_paper_cone_keeps_only_cone_fillers(B, F, R):
    # with r_max = R/2 both strategies check the same harvest; once the
    # running lattice exists, paper-cone keeps a candidate inside it only
    # when it fills an empty axis cone, so at most p more periods than greedy
    S = gen_ideal_crystal(B, F, R)
    n = {}
    for strategy in ("greedy-det", "paper-cone"):
        out = recover_crystal(S, RunConfig(strategy=strategy, r_max=R / 2))
        assert out.verified, strategy
        n[strategy] = out.diagnostics["n_periods"]
    assert n["paper-cone"] <= n["greedy-det"] + S.dim, n


def test_recover_empty_centre_is_staged():
    S = disc_lattice(20.0)
    ring = WindowedSet(S.points[np.linalg.norm(S.points, axis=1) >= 11.0], 20.0)
    out = recover_crystal(ring)
    assert isinstance(out, NoCrystalEvidence)
    assert out.stage == "candidate-generation"
    assert "anchor" in out.reason


@pytest.mark.parametrize("origin", [False, True])
def test_recover_window_without_measurable_scales_is_staged_at_input(origin):
    # the unit square lattice kept only on 27.5 <= |x| <= 30: fewer than two
    # points lie within 0.9 R of the origin, where D is measured
    S = disc_lattice(30.0)
    norms = np.linalg.norm(S.points, axis=1)
    pts = S.points[(norms >= 27.5) & (norms <= 30.0)]
    assert len(pts) == 444
    if origin:
        pts = np.vstack([pts, [[0.0, 0.0]]])
    out = recover_crystal(WindowedSet(pts, 30.0))
    assert isinstance(out, NoCrystalEvidence)
    assert out.stage == "input"
    assert "nearest the origin" in out.reason
    assert "core_margin" not in out.reason


def test_recover_r_min_past_half_the_radius_is_staged():
    # r_min is half the minimum separation, 0.85, and candidates reach at
    # most R/2 = 0.5
    S = WindowedSet([[-0.85], [0.85]], 1.0)
    out = recover_crystal(S)
    assert isinstance(out, NoCrystalEvidence)
    assert out.stage == "candidate-generation"
    assert out.reason == "candidate annulus empty: r_min 0.85 >= R/2 0.5"
    assert out.diagnostics["r_min"] == 0.85


def test_recover_fibonacci_negative():
    S = gen_cut_and_project((1 + np.sqrt(5)) / 2, (0.0, 1.0), 260.0)
    out = recover_crystal(S)
    assert isinstance(out, NoCrystalEvidence)
    assert out.stage == "period-verification"
    assert out.diagnostics["n_periods"] == 0
    assert out.diagnostics["n_candidates"] > 0


def test_recover_poisson_negative():
    S = gen_poisson(1.0, 60.0, seed=7)
    out = recover_crystal(S)
    assert isinstance(out, NoCrystalEvidence)
    assert out.stage in (
        "finite-type-gap",
        "period-verification",
        "candidate-generation",
    )


# -- the verdict gate and the running lattice ----------------------------------

GOLDEN = (1 + np.sqrt(5.0)) / 2
PLANE_B = [[1.0, 0.0], [0.3, 1.1]]
PLANE_F = [[0.0, 0.0], [0.5, 0.55]]


def _integers_by_fibonacci(R=30.0):
    """Integer columns times Fibonacci rows: every period is some (k, 0)."""
    rows = gen_cut_and_project(GOLDEN, (0.0, 1.0), 40.0).points[:, 0]
    cols = np.arange(-40.0, 41.0)
    pts = np.stack(np.meshgrid(cols, rows, indexing="ij"), -1).reshape(-1, 2)
    return WindowedSet(pts[np.linalg.norm(pts, axis=1) <= R], R)


@pytest.mark.parametrize("S, strategy, stage, reason, n_periods", [
    (gen_cut_and_project(GOLDEN, (0.0, 1.0), 260.0), "greedy-det",
     "period-verification", "no verified periods", 0),
    (_integers_by_fibonacci(), "greedy-det",
     "basis-selection", "verified periods do not span p directions", 30),
    (_integers_by_fibonacci(), "paper-cone",
     "basis-selection", "empty cone for axis 2", 30),
], ids=["fibonacci", "one-direction-greedy", "one-direction-cone"])
def test_recover_gate_reasons(S, strategy, stage, reason, n_periods):
    # the periods (k, 0), |k| <= 15, span one direction and fill only the
    # first axis cone (12 < |k|)
    out = recover_crystal(S, RunConfig(strategy=strategy))
    assert isinstance(out, NoCrystalEvidence)
    assert (out.stage, out.reason) == (stage, reason)
    assert out.diagnostics["n_periods"] == n_periods


def test_recover_stages_a_point_off_the_crystal_near_the_rim():
    # |x| = 29.1 of R = 30: past the core |a| <= R - sum |T_j| that
    # inclusion out once stopped at, so the plane is no crystal
    S = gen_ideal_crystal(PLANE_B, PLANE_F, 30.0)
    x = [17.523, 23.277]
    out = recover_crystal(WindowedSet(np.vstack([S.points, [x]]), 30.0))
    assert isinstance(out, NoCrystalEvidence)
    assert out.stage == "decomposition"
    assert "coverage_out=0.999806" in out.reason


def _spy_balls(monkeypatch) -> list:
    """The balls recover_crystal cuts with _anchor_ball, in call order: the
    finite-type gap's first, then one screen per ladder step."""
    balls = []
    source = crystal_mod._anchor_ball

    def spy(*args):
        balls.append(source(*args))
        return balls[-1]

    monkeypatch.setattr(crystal_mod, "_anchor_ball", spy)
    return balls


def test_recover_plane_past_int64_cells_is_staged(monkeypatch):
    # scaled by 1e12 the gap cutoff D + 1 spans ~1e21 tol_eq cells, past the
    # int64 grid the difference set is grouped on: a staged verdict, not an
    # out-of-range cast
    S = gen_ideal_crystal(PLANE_B, PLANE_F, 30.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = recover_crystal(WindowedSet(S.points * 1e12, 30e12))
    assert isinstance(out, NoCrystalEvidence)
    assert out.stage == "finite-type-gap"
    assert "cutoff" in out.reason and "tol_eq" in out.reason
    # scaled by 1e9 the cutoff still fits the grid and the gap stage passes
    # as before, on the gap's ball about the origin
    S9 = WindowedSet(S.points * 1e9, 30e9)
    balls = _spy_balls(monkeypatch)
    out = recover_crystal(S9)
    assert out.stage == "period-verification"
    D = out.diagnostics["D"]
    sub = balls[0]
    assert len(sub) < len(S9)
    assert out.diagnostics["pair_count"] == finite_type_gap(sub, D).pair_count


def _criterion1_p3(seed):
    """Criterion-1 recipe, p = 3 branch: rotated near-cubic basis, |F| = 1,
    R = 40 * longest basis row."""
    rng = np.random.default_rng(90_000 + seed)
    Q = special_ortho_group.rvs(3, random_state=seed)
    B = Q @ np.diag(rng.uniform(0.9, 1.1, 3))
    return B, np.zeros((1, 3)), 40.0 * float(np.linalg.norm(B, axis=1).max())


def _cubic(R):
    g = np.arange(-np.ceil(R), np.ceil(R) + 1)
    pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
    return WindowedSet(pts[np.linalg.norm(pts, axis=1) <= R], R)


def _rotated_p3(R):
    B, F, _ = _criterion1_p3(4)
    return gen_ideal_crystal(B, F, R)


@pytest.mark.parametrize("window", [_cubic, _rotated_p3],
                         ids=["cubic", "rotated"])
def test_gap_diagnostics_do_not_depend_on_window_size(window):
    # D and the minimum separation are measured on the points nearest the
    # origin, and the gap is swept on a ball about the origin sized by the
    # anchor and D, so a window of over 10^5 points reports what one an
    # eighth its size does
    big, small = recover_crystal(window(30.0)), recover_crystal(window(15.0))
    assert isinstance(big, CrystalDecomposition)
    assert isinstance(small, CrystalDecomposition)
    assert big.diagnostics["n_points"] > 100_000
    for key in ("D", "gap", "epsilon", "pair_count"):
        assert big.diagnostics[key] == small.diagnostics[key], key


def test_gap_ball_holds_the_anchor_around_an_empty_centre(monkeypatch):
    # the square lattice at R = 20 without the disc |x| <= 8: a ball sized
    # by D alone would be empty, the anchor offset keeps the anchor in it
    S0 = disc_lattice(20.0)
    S = WindowedSet(S0.points[S0.norms() > 8.0], 20.0)
    D = denseness_radius(S, S.radius / 10)
    a = S.points[np.argmin(S.norms())]
    reach = 0.6 * (D + 1) + max(4 * D, 2.0)
    assert not (S.norms() <= reach).any()
    balls = _spy_balls(monkeypatch)
    out = recover_crystal(S)
    assert out.diagnostics["D"] == D
    sub = balls[0]
    assert sub.radius == pytest.approx(S.norms().min() + reach, rel=1e-12)
    assert len(sub) < len(S)
    assert np.all(sub.points == a, axis=1).any()
    assert out.diagnostics["pair_count"] == finite_type_gap(sub, D).pair_count


def test_screen_ball_holds_the_anchor_around_an_empty_centre(monkeypatch):
    # Z^2 at R = 40 without the disc |x| < 12: a screen sized by r_cur alone
    # is empty on the first ladder step; sized from the anchor it holds the
    # anchor and less than the whole window
    S0 = disc_lattice(40.0)
    S = WindowedSet(S0.points[S0.norms() >= 12.0], 40.0)
    assert len(S) == 4588
    a = S.points[np.argmin(S.norms())]
    balls = _spy_balls(monkeypatch)
    out = recover_crystal(S)
    first = balls[1]
    assert np.all(first.points == a, axis=1).any()
    assert len(first) < len(S)
    assert isinstance(out, NoCrystalEvidence)
    assert (out.stage, out.reason) == ("period-verification",
                                       "no verified periods")


# -- local scales, global verification -----------------------------------------


def _no_table(self):
    raise AssertionError("the whole-window neighbour table was built")


def _record_tree_sizes(monkeypatch) -> list[int]:
    """Sizes of the KD-trees the package builds from now on, in order."""
    sizes: list[int] = []

    class Recording(cKDTree):
        def __init__(self, data, *args, **kwargs):
            sizes.append(len(data))
            super().__init__(data, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("idealcrystal") and hasattr(module, "cKDTree"):
            monkeypatch.setattr(module, "cKDTree", Recording)
    return sizes


@pytest.mark.parametrize("window, n_min", [
    (lambda: gen_ideal_crystal(PLANE_B, PLANE_F, 30.0), 5000),
    (lambda: _cubic(15.0), 10_000),
], ids=["readme-plane", "cubic"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_analyze_path_builds_no_neighbour_table(window, n_min, fmt,
                                                monkeypatch):
    # loading checks duplicates by a sweep along one direction, and recovery
    # measures D and the minimum separation near the anchor: neither needs
    # the nearest-neighbour distance of every window point, nor a tree over
    # more than a ball about the origin
    S = window()
    assert len(S) > n_min
    text = serialize(S, fmt)
    monkeypatch.setattr(WindowedSet, "nn_distances", _no_table)
    sizes = _record_tree_sizes(monkeypatch)
    loaded = load_points(text, fmt)
    assert loaded.points.tolist() == S.points.tolist()
    dec = recover_crystal(loaded)
    assert isinstance(dec, CrystalDecomposition) and dec.verified
    assert sizes and max(sizes) <= len(S) / 2, sizes


@pytest.mark.parametrize("q", [[1, 9], [9, 1], [-1, 9], [-9, -1],
                               [1, -9], [9, -1], [-1, -9], [-9, 1]])
def test_local_scales_take_every_point_tied_with_the_last(q):
    # Z^2 has 253 points with |x|^2 < 82 and eight on the circle |x|^2 = 82,
    # so the 256 nearest the origin end inside that ring. A companion 0.1
    # from any one ring point, on the same circle, is measured, wherever
    # the selection would break the tie
    S0 = disc_lattice(30.0)
    assert crystal_mod._LOCAL_POINTS == 256
    assert int((S0.norms() ** 2 < 81.5).sum()) == 253
    t = 0.1 / np.sqrt(82.0)
    rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    companion = rot @ np.array(q, dtype=float)
    S = WindowedSet(np.vstack([S0.points, companion]), 30.0)
    D, min_sep = crystal_mod._local_scales(S, 3.0)
    assert D == 1.0
    assert min_sep == min_separation(S) == pytest.approx(0.1, rel=1e-3)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_local_scales_match_a_whole_window_query(dim, seed):
    # the measured points' neighbours come from a ball about the origin;
    # a query over the whole window's tree gives the same distances
    S = gen_poisson(1.0, {1: 1500.0, 2: 25.0, 3: 8.0}[dim], seed=seed,
                    dim=dim)
    assert len(S) > 4 * crystal_mod._LOCAL_POINTS
    r = np.sort(S.norms())[crystal_mod._LOCAL_POINTS - 1]
    near = np.flatnonzero(S.norms() <= r * (1 + 1e-12))
    d, _ = cKDTree(S.points).query(S.points[near], k=2)
    margin = S.radius / 10
    D, min_sep = crystal_mod._local_scales(S, margin)
    assert D == float(d[:, 1][S.norms()[near] <= S.radius - margin].max())
    assert min_sep == float(d[:, 1].min())


def test_local_scales_of_a_small_window_are_the_global_ones():
    # a window of at most _LOCAL_POINTS points is measured whole
    S = gen_poisson(1.0, 8.0, seed=2, dim=2)
    assert 50 < len(S) <= crystal_mod._LOCAL_POINTS
    D, min_sep = crystal_mod._local_scales(S, 0.8)
    assert D == denseness_radius(S, 0.8)
    assert min_sep == min_separation(S)


_MANY_RESIDUES = [[0.0, 0.0], [1.1, 0.2], [2.3, 0.1], [0.4, 1.3],
                  [1.7, 1.6], [2.9, 1.2], [0.9, 2.6], [2.2, 2.8]]


@pytest.mark.parametrize("B, F", [
    ([[1.0, 0.2], [-0.3, 1.1]], [[0.0, 0.0]]),
    (PLANE_B, PLANE_F),
    ([[3.6, 0.1], [0.4, 3.7]], _MANY_RESIDUES),
], ids=["F1", "F2", "F8"])
def test_local_D_is_the_window_D_on_crystals(B, F):
    # every coset point sees the same neighbourhood, so the points nearest
    # the origin give the whole window's D
    S = gen_ideal_crystal(B, F, 30.0)
    assert len(S) > 4 * crystal_mod._LOCAL_POINTS
    dec = recover_crystal(S)
    assert isinstance(dec, CrystalDecomposition) and dec.verified
    assert len(dec.residues) == len(F)
    assert dec.diagnostics["D"] == pytest.approx(
        denseness_radius(S, S.radius / 10), rel=1e-12)


def _plane_with_extra_point(R=30.0):
    """README plane plus a point 0.05 from the one nearest (0.8 R, 0)."""
    S = gen_ideal_crystal(PLANE_B, PLANE_F, R)
    a = S.points[np.argmin(np.linalg.norm(S.points - [0.8 * R, 0.0], axis=1))]
    extra = a + [0.0, 0.05]
    return WindowedSet(np.vstack([S.points, extra]), R), extra, 0.0


def _plane_with_hole(R=30.0):
    """README plane without the disc of radius 3 about (0.7 R, 0)."""
    S = gen_ideal_crystal(PLANE_B, PLANE_F, R)
    centre = np.array([0.7 * R, 0.0])
    keep = np.linalg.norm(S.points - centre, axis=1) > 3.0
    return WindowedSet(S.points[keep], R), centre, 3.0


@pytest.mark.parametrize("broken", [_plane_with_extra_point, _plane_with_hole],
                         ids=["extra-point", "hole"])
def test_window_broken_away_from_the_anchor_is_refused(broken):
    # the local scales cannot see a defect far from the origin; the
    # decomposition check on the whole window does, and names it
    S, centre, radius = broken()
    out = recover_crystal(S)
    assert isinstance(out, NoCrystalEvidence)
    assert out.stage == "decomposition"
    assert len(out.witnesses) > 0
    dist = np.linalg.norm(out.witnesses - centre, axis=1)
    assert np.all(dist <= radius + 1e-9)


# a p = 3 two-residue crystal that verifies on the first ladder step, whose
# radius is below the covering bound of the recovered lattice
_P3_SHORT_FIRST_STEP = (
    [[1.6112308515776106, 0.10901408782154753, -1.2273520542445742],
     [-0.6832266617805622, 1.371722427627642, -0.9447516230607774],
     [-0.09826996785221727, 0.09548302746945433, 1.4793523444103553]],
    [[0.0, 0.0, 0.0],
     [0.36155292267975714, 0.3136754600402027, -0.14073757867272577]],
    14.0,
)


_CRYSTALS = pytest.mark.parametrize("B, F, R, strategy", [
    (PLANE_B, PLANE_F, 30.0, "greedy-det"),
    (PLANE_B, PLANE_F, 30.0, "paper-cone"),
    (_criterion6_basis(0), [[0.0, 0.0]], 62.0, "paper-cone"),
    (*_criterion1_p3(4), "greedy-det"),
    ([[1.37]], [[0.0], [0.4247], [1.0549]], 400.0, "greedy-det"),
    (*_P3_SHORT_FIRST_STEP, "greedy-det"),
], ids=["readme-plane-greedy", "readme-plane-cone", "criterion6-seed0-cone",
        "criterion1-seed4-p3", "p1-three-residues", "p3-short-first-step"])


def _greedy_closure(periods, p):
    """The shortest independent periods, closed over all of them."""
    seed = crystal_mod._greedy_basis(periods, p)
    if seed is None:
        return None
    return refine_lattice(build_lattice(seed), periods)


@_CRYSTALS
def test_recovered_lattice_is_the_greedy_seeded_closure(B, F, R, strategy):
    # reference: the lattice rebuilt from scratch out of the verified
    # periods, seeded by their shortest independent rows and closed over
    # all of them; the running closure recovery keeps must equal it bit
    # for bit
    S = gen_ideal_crystal(B, F, R)
    dec = recover_crystal(S, RunConfig(strategy=strategy))
    assert dec.verified
    ref = _greedy_closure(dec.periods, S.dim)
    assert np.array_equal(dec.lattice.basis, ref.basis)
    assert dec.lattice.det == ref.det


@_CRYSTALS
def test_each_verified_period_was_outside_the_running_lattice(B, F, R,
                                                             strategy):
    # replay the periods in the order they were verified: once the running
    # lattice exists, a candidate within epsilon/2 of it is skipped unless it
    # fills an empty axis cone, so no verified period is such a candidate
    S = gen_ideal_crystal(B, F, R)
    p = S.dim
    dec = recover_crystal(S, RunConfig(strategy=strategy))
    missing = set(range(1, p + 1)) if strategy == "paper-cone" else set()
    L = None
    for k, P in enumerate(dec.periods):
        fills = {j for j in missing if len(cone_filter(P.T, j, p))}
        if L is None:
            L = _greedy_closure(dec.periods[:k + 1], p)
        else:
            assert fills or L.distance(P.T) >= dec.epsilon / 2, k
            L = refine_lattice(L, [P])
        missing -= fills
    assert not missing
    assert np.array_equal(L.basis, dec.lattice.basis)


# -- the batched probe pass of the candidate loop ------------------------------


def _holed_plane(R=20.0):
    """Two-coset plane with six points missing near the origin, where the
    probes sit, and six anywhere."""
    S = gen_ideal_crystal(PLANE_B, PLANE_F, R)
    rng = np.random.default_rng(61)
    near = rng.choice(np.flatnonzero(S.norms() <= 5.0), 6, replace=False)
    anywhere = rng.choice(len(S), 6, replace=False)
    return WindowedSet(np.delete(S.points, np.union1d(near, anywhere), axis=0),
                       R)


def _vacancy_plane(R=30.0):
    """Two-coset plane minus the point nearest (0.85 R, 0)."""
    S = gen_ideal_crystal(PLANE_B, PLANE_F, R)
    k = int(np.argmin(np.linalg.norm(S.points - [0.85 * R, 0.0], axis=1)))
    return WindowedSet(np.delete(S.points, k, axis=0), R)


def _no_probe_rejects(S, cands, tol_exact):
    return np.zeros(len(cands), dtype=bool)


def test_probe_counts_only_core_points():
    S = disc_lattice(6.0)
    v = np.array([[5.0, 0.0]])
    # the probes reach |x| = sqrt(10) and the outer ones land off the
    # window, but only |x| <= 1 is in the core of the exact check for
    # |v| = 5, and those all land on it
    assert not crystal_mod._probe_rejections(S, v, 1e-8)[0]
    assert isinstance(verify_exact_period(S, v[0], 1e-8), float)
    # the same points claimed for a window of radius 100 put every probe in
    # the core, and the outer ones reject
    wide = WindowedSet(S.points, 100.0)
    assert crystal_mod._probe_rejections(wide, v, 1e-8)[0]
    assert isinstance(verify_exact_period(wide, v[0], 1e-8), FailureWitness)
    holed = WindowedSet(S.points[~np.all(S.points == [2.0, 0.0], axis=1)], 6.0)
    unit = np.array([[1.0, 0.0]])
    assert crystal_mod._probe_rejections(holed, unit, 1e-8)[0]
    assert isinstance(verify_exact_period(holed, unit[0], 1e-8), FailureWitness)


@pytest.mark.parametrize("S", [
    _holed_plane(),
    gen_poisson(1.0, 30.0, seed=5, dim=2),
    gen_cut_and_project(GOLDEN, (0.0, 1.0), 300.0),
    _vacancy_plane(),
], ids=["holed-plane", "poisson", "fibonacci", "vacancy-plane"])
def test_probe_rejection_implies_exact_check_fails(S, monkeypatch):
    # every candidate the probe pass rejects on a ladder step fails the exact
    # check on that step's subwindow: a probe can only reject
    seen = []
    probe = crystal_mod._probe_rejections

    def spy(scr, cands, tol_exact):
        out = probe(scr, cands, tol_exact)
        seen.append((scr, cands, out, tol_exact))
        return out

    monkeypatch.setattr(crystal_mod, "_probe_rejections", spy)
    recover_crystal(S)
    rejected = 0
    for scr, cands, out, tol_exact in seen:
        for v in cands[out]:
            assert isinstance(verify_exact_period(scr, v, tol_exact),
                              FailureWitness), v
        rejected += int(out.sum())
    assert rejected > 0


def _report_text(S, cfg):
    rep = build_report(recover_crystal(S, cfg), cfg)
    rep.pop("timings_ms")
    return canonical_json(rep)


@pytest.mark.parametrize("S, cfg", [
    (gen_cut_and_project(GOLDEN, (0.0, 1.0), 1000.0), RunConfig(r_max=500.0)),
    (gen_perturbed_lattice([[1.0]], 0.1, [np.sqrt(2.0)], 400.0), RunConfig()),
    (_vacancy_plane(), RunConfig()),
    (gen_ideal_crystal(PLANE_B, PLANE_F, 30.0), RunConfig()),
    (gen_ideal_crystal(_criterion6_basis(0), [[0.0, 0.0]], 62.0),
     RunConfig(strategy="paper-cone")),
], ids=["fibonacci", "perturbed-sqrt2", "vacancy-plane", "readme-plane",
        "criterion6-seed0-cone"])
def test_probe_pass_leaves_reports_unchanged(S, cfg, monkeypatch):
    # with a probe pass that rejects nothing every candidate takes the full
    # exact check; the report, timings aside, must not notice the difference
    want = _report_text(S, cfg)
    monkeypatch.setattr(crystal_mod, "_probe_rejections", _no_probe_rejects)
    assert _report_text(S, cfg) == want


def test_recover_checks_every_anchor_difference_past_20000():
    # 49,999 points and 25,000 anchor differences up to R/2, more than the
    # 20,000 shortest candidates recovery once stopped at; all are checked
    S = gen_perturbed_lattice([[1.0]], 0.1, [np.sqrt(2.0)], 25_000.0)
    assert len(S) == 49_999
    out = recover_crystal(S)
    assert isinstance(out, NoCrystalEvidence)
    assert out.stage == "period-verification"
    assert out.reason == "no verified periods"
    a = S.points[int(np.argmin(S.norms()))]
    d = np.linalg.norm(S.points - a, axis=1)
    in_annulus = (d > 0) & (d >= out.diagnostics["r_min"]) & (d <= S.radius / 2)
    assert out.diagnostics["n_candidates"] == int(in_annulus.sum()) == 25_000


# -- one verdict per run -----------------------------------------------------------


def test_vacancy_plane_makes_one_decomposition_check(monkeypatch):
    # the ladder only grows the lattice; the decomposition check runs once
    # after it, and sees the vacancy as its only witness
    S = _vacancy_plane()
    full = gen_ideal_crystal(PLANE_B, PLANE_F, 30.0)
    hole = full.points[np.argmin(np.linalg.norm(full.points - [25.5, 0.0],
                                                axis=1))]
    calls = []
    verify = crystal_mod.verify_decomposition

    def counter(*args, **kwargs):
        calls.append(1)
        return verify(*args, **kwargs)

    monkeypatch.setattr(crystal_mod, "verify_decomposition", counter)
    out = recover_crystal(S)
    assert len(calls) == 1
    assert isinstance(out, NoCrystalEvidence)
    assert out.stage == "decomposition"
    assert out.witnesses.tolist() == [hole.tolist()]


@_CRYSTALS
def test_verified_run_sweeps_the_covering_radius(B, F, R, strategy):
    # with r_max unset, a verdict is only built once the swept radius covers
    # the covering radius of the lattice (at most half its generator
    # length sum) or the ladder reached R/2
    S = gen_ideal_crystal(B, F, R)
    dec = recover_crystal(S, RunConfig(strategy=strategy))
    assert isinstance(dec, CrystalDecomposition) and dec.verified
    cover = float(np.linalg.norm(dec.lattice.basis, axis=1).sum()) / 2
    assert dec.diagnostics["r_max_reached"] >= min(cover, S.radius / 2)
    assert len(dec.residues) == len(F)


# -- anchor differences are verified as they stand ------------------------------


def _no_snap(*args, **kwargs):
    raise AssertionError("recover_crystal snapped a candidate")


@pytest.mark.parametrize("B, F, R, strategy", [
    (PLANE_B, PLANE_F, 30.0, "greedy-det"),
    (PLANE_B, PLANE_F, 30.0, "paper-cone"),
    (_criterion6_basis(0), [[0.0, 0.0]], 62.0, "paper-cone"),
], ids=["readme-plane-greedy", "readme-plane-cone", "criterion6-seed0-cone"])
def test_periods_are_the_snapped_anchor_differences(B, F, R, strategy,
                                                    monkeypatch):
    # a candidate c - a is an element of A - A already: snapping it returns
    # it bit for bit, so recovery verifies it directly. Each period is what
    # snap_to_period gives on the screen ball of the step that verified it
    S = gen_ideal_crystal(B, F, R)
    radii = []
    harvest = crystal_mod._anchor_differences

    def spy(S, r_min, r_after, r_cur):
        radii.append(r_cur)
        return harvest(S, r_min, r_after, r_cur)

    monkeypatch.setattr(crystal_mod, "_anchor_differences", spy)
    balls = _spy_balls(monkeypatch)
    monkeypatch.setattr(crystal_mod, "snap_to_period", _no_snap)
    dec = recover_crystal(S, RunConfig(strategy=strategy))
    assert isinstance(dec, CrystalDecomposition) and dec.verified
    screens = balls[1:]
    assert len(screens) == len(radii)
    radii = np.array(radii) + TOL_EQ
    for P in dec.periods:
        scr = screens[int(np.searchsorted(radii, np.linalg.norm(P.T)))]
        want = snap_to_period(scr, P.T, dec.epsilon, TOL_EXACT)
        for name in ("T", "anchor", "source_tau"):
            assert getattr(P, name).tobytes() == getattr(want, name).tobytes()
        assert P.verified_radius == want.verified_radius


@pytest.mark.parametrize("extra, strategy, stage, n_periods, ambiguous", [
    ((9.05, 0.0), "greedy-det", "decomposition", 4, None),
    ((3.05, 2.0), "greedy-det", "period-verification", 0, None),
    ((1.05, 1.0), "paper-cone", "period-verification", 0, None),
    ((6.0, 4.03), "paper-cone", "basis-selection", 3, None),
    ((13.03, 0.0), "paper-cone", "basis-selection", 2, (13.0, 0.0)),
    ((0.0, 14.03), "paper-cone", "basis-selection", 2, (0.0, 14.0)),
], ids=["x9.05-greedy", "3.05,2-greedy", "1.05,1-cone", "6,4.03-cone",
        "x13.03-cone", "y14.03-cone"])
def test_near_duplicate_windows_keep_their_verdicts(extra, strategy, stage,
                                                    n_periods, ambiguous):
    # Z^2 plus one point 0.03-0.05 off a lattice point. Inside the 256
    # points D and the minimum separation are measured on, the extra point
    # shrinks epsilon, so no snap is ambiguous. Past them, epsilon stays
    # 1/2: a paper-cone axis candidate that lands next to the extra point
    # has two window points within epsilon/2, where snapping raised
    # AmbiguousSnap. Verified directly it fails: the extra point lies in
    # the core, and its translate is no window point
    S = WindowedSet(np.vstack([disc_lattice(30.0).points, [extra]]), 30.0)
    out = recover_crystal(S, RunConfig(strategy=strategy))
    assert isinstance(out, NoCrystalEvidence)
    assert (out.stage, out.diagnostics["n_periods"]) == (stage, n_periods)
    if ambiguous is not None:
        eps = out.diagnostics["epsilon"]
        assert eps == 0.5
        with pytest.raises(AmbiguousSnap):
            snap_to_period(S, ambiguous, eps)
        assert isinstance(verify_exact_period(S, ambiguous), FailureWitness)


@pytest.mark.parametrize("delta", [1.01e-9, 1.5e-9, 1.99e-9])
def test_candidate_within_two_tol_eq_stops_at_the_gap(delta):
    # a difference no longer than 2 tol_eq puts a second point that close
    # to the anchor, inside the gap ball, so the gap stage refuses the
    # window before any candidate is harvested
    S = WindowedSet(np.vstack([disc_lattice(20.0).points, [[delta, 0.0]]]),
                    20.0)
    out = recover_crystal(S)
    assert isinstance(out, NoCrystalEvidence)
    assert out.stage == "finite-type-gap"
    assert "n_candidates" not in out.diagnostics


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(strategy="magic").validate()
    with pytest.raises(ConfigError):
        RunConfig(tol_exact=-1.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(r_max=0.0).validate()


INF = float("inf")


@pytest.mark.parametrize("call", [
    lambda S: RunConfig(tol_exact=INF).validate(),
    lambda S: RunConfig(r_max=INF).validate(),
    lambda S: recover_crystal(S, RunConfig(tol_exact=INF)),
    lambda S: difference_vectors(S, INF),
    lambda S: finite_type_gap(S, INF),
    lambda S: denseness_radius(S, INF),
], ids=["config-tol-exact", "config-r-max", "recover-tol-exact",
        "differences-cutoff", "gap-D", "denseness-margin"])
def test_infinite_lengths_are_config_errors(call):
    # an infinite length is a bad setting: refused as one before any stage
    # runs, not staged as an empty annulus or a cutoff past the cell grid
    with pytest.raises(ConfigError, match="finite"):
        call(disc_lattice(10.0))


_SCALES = {"strategy", "n_points", "D", "core_margin", "epsilon", "gap",
           "pair_count", "r_min"}
_LADDER = _SCALES | {"r_max_reached", "ladder_steps", "n_candidates",
                     "n_periods"}


@pytest.mark.parametrize("make, config, stage, reason, keys", [
    (lambda: WindowedSet([[0.0, 0.0]], 1.0), RunConfig(), "input",
     "1 points: D and the minimum separation need 2", {"strategy", "n_points"}),
    (lambda: WindowedSet(gen_ideal_crystal(PLANE_B, PLANE_F, 30.0).points
                         * 1e12, 30e12), RunConfig(), "finite-type-gap",
     "spans 2^63 or more cells", {"strategy", "n_points", "D", "core_margin"}),
    (lambda: disc_lattice(10.0), RunConfig(tol_exact=2.0),
     "candidate-generation", "candidate annulus empty: r_min 8 >= R/2 5",
     _SCALES),
    (lambda: disc_lattice(20.0), RunConfig(strategy="paper-cone"),
     "basis-selection", "every axis cone is empty",
     _SCALES | {"n_candidates", "n_periods"}),
    (lambda: gen_poisson(1.0, 20.0, 3, 2), RunConfig(), "period-verification",
     "no verified periods", _LADDER),
    (lambda: gen_ideal_crystal(4.0 * np.eye(3), [[0.0, 0.0, 0.0]], 10.0),
     RunConfig(), "residues", "window radius 10 below residue ball 12",
     _LADDER),
    (_vacancy_plane, RunConfig(), "decomposition", "coverage_in=0.999806",
     _LADDER),
], ids=["input", "finite-type-gap", "candidate-generation", "basis-selection",
        "period-verification", "residues", "decomposition"])
def test_each_stage_refuses_through_one_exit(make, config, stage, reason,
                                             keys):
    # every refusal leaves recover_crystal as NoCrystalEvidence with the
    # diagnostics gathered up to its stage; only the decomposition check
    # has witnesses
    S = make()
    out = recover_crystal(S, config)
    assert isinstance(out, NoCrystalEvidence)
    assert out.stage == stage
    assert reason in out.reason
    assert set(out.diagnostics) == keys
    if stage == "basis-selection":
        assert out.diagnostics["n_candidates"] == 0
        assert out.diagnostics["n_periods"] == 0
    if stage == "decomposition":
        assert out.witnesses.shape == (1, 2)
    else:
        assert out.witnesses.shape == (0, S.dim)
