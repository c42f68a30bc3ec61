"""Almost-period matching, candidate generation, snapping, verification.

The backtracking injection search is the oracle for the matcher; candidate
lists are checked against in-line shell enumeration and, for exhaustiveness,
against the periods found by sweeping the whole difference set.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from idealcrystal import (
    AlmostPeriodCertificate,
    AmbiguousSnap,
    ConfigError,
    FailureWitness,
    NoSnapTarget,
    NotExactPeriod,
    Rejection,
    TOL_EQ,
    WindowTooSmall,
    WindowedSet,
    build_lattice,
    candidate_almost_periods,
    denseness_radius,
    difference_vectors,
    finite_type_gap,
    gen_ideal_crystal,
    gen_perturbed_lattice,
    is_almost_period,
    min_separation,
    snap_to_period,
    verify_decomposition,
    verify_exact_period,
)
from idealcrystal.almost_period import _anchor_differences
from oracles import CoreTooLarge, brute_force_almost_period


def integer_line(R=10.0):
    return WindowedSet(np.arange(-R, R + 1), R)


def two_coset_even(shift=0.5, R=40.0):
    base = np.arange(-R, R + 1, 2.0)
    return WindowedSet(np.concatenate([base, base + shift]), R + shift)


def disc_lattice(R=10.0):
    g = np.arange(-np.ceil(R), np.ceil(R) + 1)
    xx, yy = np.meshgrid(g, g)
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    return WindowedSet(pts[np.linalg.norm(pts, axis=1) <= R], R)


# -- is_almost_period ---------------------------------------------------------


def test_exact_translation_accepted():
    S = integer_line()
    cert = is_almost_period(S, [1.0], 0.2)
    assert isinstance(cert, AlmostPeriodCertificate)
    assert cert.max_displacement == 0.0
    assert abs(cert.core_radius - 8.8) < 1e-12
    # one source per core point, injective on targets
    assert len(cert.matched) == 17
    assert len(set(cert.matched[:, 0].tolist())) == 17
    assert len(set(cert.matched[:, 1].tolist())) == 17


def test_half_shift_rejected():
    S = integer_line()
    rej = is_almost_period(S, [0.5], 0.2)
    assert isinstance(rej, Rejection)
    assert rej.core_size == 19
    assert rej.unmatched == 19


def test_certificate_displacements_below_epsilon():
    rng = np.random.default_rng(3)
    pts = np.arange(-15.0, 16.0) + rng.uniform(-0.05, 0.05, size=31)
    S = WindowedSet(pts, 15.1)
    cert = is_almost_period(S, [1.0], 0.15)
    assert isinstance(cert, AlmostPeriodCertificate)
    src = S.points[cert.matched[:, 0]]
    dst = S.points[cert.matched[:, 1]]
    disp = np.linalg.norm(src + cert.tau - dst, axis=1)
    assert disp.max() < 0.15
    assert abs(disp.max() - cert.max_displacement) < 1e-15


def test_argument_validation():
    S = integer_line()
    with pytest.raises(ConfigError):
        is_almost_period(S, [1.0, 0.0], 0.1)
    with pytest.raises(ConfigError):
        is_almost_period(S, [1.0], 0.0)
    with pytest.raises(ConfigError):
        is_almost_period(S, [9.95], 0.1)


def test_window_too_small():
    S = WindowedSet([[-4.0], [4.0]], 4.0)
    with pytest.raises(WindowTooSmall):
        is_almost_period(S, [2.0], 1.5)


def test_matches_bruteforce_small_cores():
    # epsilon on both sides of min_sep/2, where the matching is and is not
    # the nearest-neighbour map, against the exhaustive injection search
    agree = 0
    for seed in range(120):
        rng = np.random.default_rng(seed)
        dim = 1 + seed % 2
        n = int(rng.integers(6, 13))
        pts = rng.uniform(-4, 4, size=(n, dim))
        try:
            S = WindowedSet(pts, 6.0)
        except Exception:
            continue
        tau = rng.uniform(-1.5, 1.5, size=dim)
        eps = float(rng.uniform(0.05, 1.8))
        if np.linalg.norm(tau) + eps >= S.radius:
            continue
        try:
            want = brute_force_almost_period(S, tau, eps)
        except (WindowTooSmall, CoreTooLarge):
            continue
        got = is_almost_period(S, tau, eps)
        assert isinstance(got, AlmostPeriodCertificate) == want, seed
        agree += 1
    assert agree > 60


def test_epsilon_monotone_acceptance():
    for seed in range(30):
        rng = np.random.default_rng(700 + seed)
        pts = np.cumsum(rng.uniform(0.7, 1.3, size=40))
        pts -= pts.mean()
        S = WindowedSet(pts)
        tau = np.array([float(rng.uniform(0.5, 2.0))])
        e1 = float(rng.uniform(0.05, 0.5))
        e2 = e1 * float(rng.uniform(1.0, 3.0))
        if np.linalg.norm(tau) + e2 >= S.radius:
            continue
        a1 = is_almost_period(S, tau, e1)
        a2 = is_almost_period(S, tau, e2)
        if isinstance(a1, AlmostPeriodCertificate):
            assert isinstance(a2, AlmostPeriodCertificate), seed


def test_tau_sign_symmetry():
    for seed in range(30):
        rng = np.random.default_rng(900 + seed)
        dim = 1 + seed % 2
        pts = rng.uniform(-6, 6, size=(40, dim))
        S = WindowedSet(pts, 6.0 * np.sqrt(dim) + 1)
        tau = rng.uniform(-1.5, 1.5, size=dim)
        eps = float(rng.uniform(0.1, 0.9))
        fwd = is_almost_period(S, tau, eps)
        bwd = is_almost_period(S, -tau, eps)
        assert isinstance(fwd, AlmostPeriodCertificate) == isinstance(
            bwd, AlmostPeriodCertificate
        ), seed


def _jittered_plane(R=25.0, amplitude=0.02):
    g = np.arange(-np.ceil(R), np.ceil(R) + 1)
    pts = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    pts = pts[np.linalg.norm(pts, axis=1) <= R - 2 * amplitude]
    rng = np.random.default_rng(5)
    return WindowedSet(pts + rng.uniform(-amplitude, amplitude, pts.shape), R)


def _no_table(self):
    raise AssertionError("nearest-neighbour table built")


@pytest.mark.parametrize("tau, eps, accepted", [
    ([1.0, 0.0], 0.1, True), ([1.0, 0.0], 0.03, False),
    ([0.5, 0.0], 0.1, False), ([1.0, 1.0], 0.6, True),
    ([0.5, 0.5], 0.6, False),
])
def test_matching_builds_no_neighbour_table(tau, eps, accepted, monkeypatch):
    # epsilon on both sides of min_sep/2 (about 0.48): one matching answers
    # without the window's nearest-neighbour table
    S = _jittered_plane()
    monkeypatch.setattr(WindowedSet, "nn_distances", _no_table)
    got = is_almost_period(S, tau, eps)
    assert isinstance(got, AlmostPeriodCertificate) == accepted


@pytest.mark.parametrize("tau, eps", [
    ([1.0, 0.0], 0.1), ([0.0, -2.0], 0.1), ([1.0, 0.0], 0.03),
    ([1.0, 1.0], 0.04), ([0.5, 0.0], 0.1),
])
def test_matching_below_half_separation_is_nearest_neighbour(tau, eps):
    S = _jittered_plane()
    assert len(S) > 1900 and eps < min_separation(S) / 2
    tau = np.array(tau)
    core = np.flatnonzero(S.norms() <= S.radius - np.linalg.norm(tau) - eps)
    d, j = cKDTree(S.points).query(S.points[core] + tau, k=1)
    got = is_almost_period(S, tau, eps)
    if isinstance(got, AlmostPeriodCertificate):
        assert (d < eps).all()
        assert got.matched[:, 0].tolist() == core.tolist()
        assert got.matched[:, 1].tolist() == j.tolist()
    else:
        assert 0 < got.unmatched == int((d >= eps).sum())
        assert got.core_size == len(core)


def test_brute_force_core_cap():
    S = integer_line()
    with pytest.raises(CoreTooLarge):
        brute_force_almost_period(S, [1.0], 0.2)


# -- candidate_almost_periods --------------------------------------------------


def test_candidates_square_lattice_shells():
    got = candidate_almost_periods(disc_lattice(), 0.5, 0.5, 2.5)
    # shells: 4 of norm 1, 4 of norm sqrt2, 4 of norm 2, 8 of norm sqrt5
    assert len(got) == 20
    norms = np.linalg.norm(got, axis=1)
    assert np.all(np.diff(norms) >= -1e-12)
    assert np.allclose(np.unique(np.round(norms**2)), [1, 2, 4, 5])


def test_candidates_annulus_and_order():
    S = integer_line(20.0)
    got = candidate_almost_periods(S, 0.3, 1.5, 6.0)
    assert got.ravel().tolist() == [-2.0, 2.0, -3.0, 3.0, -4.0, 4.0,
                                    -5.0, 5.0, -6.0, 6.0]


def _two_coset_plane(R):
    """The README's two-coset plane."""
    return gen_ideal_crystal([[1.0, 0.0], [0.3, 1.1]],
                             [[0.0, 0.0], [0.5, 0.55]], R)


def _vacancy_plane(R=20.0):
    """Two-coset plane minus the point nearest (0.85 R, 0)."""
    S = _two_coset_plane(R)
    k = int(np.argmin(np.linalg.norm(S.points - [0.85 * R, 0.0], axis=1)))
    return WindowedSet(np.delete(S.points, k, axis=0), R)


def _difference_set_periods(S, r_min, r):
    """Reference: every difference vector in the annulus that passes exact
    verification, found by sweeping all pairs of the window."""
    V = difference_vectors(S, r).vectors
    norms = np.linalg.norm(V, axis=1)
    V = V[(norms >= r_min - TOL_EQ) & (norms <= r + TOL_EQ)]
    return [v for v in V if isinstance(verify_exact_period(S, v), float)]


@pytest.mark.parametrize("S, r", [
    (gen_ideal_crystal([[1.3]], [[0.0], [0.4], [0.9]], 40.0), 15.0),
    (_two_coset_plane(20.0), 7.0),
    (gen_ideal_crystal([[1.0, 0.0], [0.4, 1.2]],
                       [[0.0, 0.0], [0.3, 0.5], [0.7, 0.2]], 18.0), 6.0),
    (gen_ideal_crystal([[1.0, 0.1, 0.0], [0.0, 1.1, 0.2], [0.1, 0.0, 0.9]],
                       [[0.0, 0.0, 0.0], [0.45, 0.3, 0.5]], 7.0), 3.0),
    (_vacancy_plane(), 7.0),
], ids=["p1-three-residues", "two-coset-plane", "p2-three-residues",
        "p3-two-residues", "vacancy-plane"])
def test_candidates_contain_every_difference_set_period(S, r):
    r_min = 0.3
    want = _difference_set_periods(S, r_min, r)
    assert len(want) >= 2 * S.dim
    got = candidate_almost_periods(S, 0.05, r_min, r)
    for T in want:
        assert np.min(np.linalg.norm(got - T, axis=1)) <= TOL_EQ, T


def _brute_annulus(S, r_min, r_max):
    """Reference: every difference c - a over the whole window, a the point
    nearest the origin, with r_min <= |c - a| <= r_max up to TOL_EQ."""
    k = int(np.argmin(S.norms()))
    V = np.delete(S.points, k, axis=0) - S.points[k]
    n = np.linalg.norm(V, axis=1)
    return V[(n >= r_min - TOL_EQ) & (n <= r_max + TOL_EQ)]


def _same_rows(got, want):
    assert got.shape == want.shape
    assert sorted(map(tuple, got.tolist())) == sorted(map(tuple, want.tolist()))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3), st.integers(20, 400), st.integers(0, 2**32 - 1),
       st.floats(0.05, 0.95), st.floats(0.02, 0.98))
def test_candidates_match_a_whole_window_annulus(dim, n, seed, top, low):
    R = 10.0
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-R, R, (4 * n, dim))
    S = WindowedSet(pts[np.linalg.norm(pts, axis=1) <= R][:n], R)
    r_max = top * R / 2
    r_min = low * r_max
    assume(float(S.norms().min()) + r_max + 0.01 < R)
    got = candidate_almost_periods(S, 0.01, r_min, r_max)
    _same_rows(got, _brute_annulus(S, r_min, r_max))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("offset", [0.0, 0.25])
def test_candidates_keep_the_shell_at_r_max_exactly(dim, offset):
    # Z^p shifted by offset: the anchor is the shifted origin and lattice
    # shells sit at exactly r_max from it. Points planted at r_max + 2 tol_eq
    # fall outside the annulus, those at r_max + tol_eq / 2 inside it
    r_max = 3.0
    R = 2 * r_max + 2
    g = np.arange(-R, R + 1)
    pts = np.stack(np.meshgrid(*[g] * dim, indexing="ij"), -1).reshape(-1, dim)
    pts = pts + offset
    a = np.full(dim, offset)
    if dim == 1:
        plant = [a + (r_max + 2 * TOL_EQ), a - (r_max + 2 * TOL_EQ)]
    else:
        u = np.zeros(dim)
        u[:2] = 0.6, 0.8
        w = np.zeros(dim)
        w[:2] = -0.8, 0.6
        plant = [a + (r_max + 2 * TOL_EQ) * u, a + (r_max + TOL_EQ / 2) * w]
    pts = np.vstack([pts, plant])
    S = WindowedSet(pts[np.linalg.norm(pts, axis=1) <= R], R)
    assert np.array_equal(S.points[np.argmin(S.norms())], a)
    got = candidate_almost_periods(S, 0.1, 1.0, r_max)
    want = _brute_annulus(S, 1.0, r_max)
    _same_rows(got, want)
    lengths = np.linalg.norm(got, axis=1)
    # the lattice shell |n|^2 = 9 is kept whole: +-3 e_i, and in 3-D also
    # the 24 signed permutations of (2, 2, 1); so is the planted point inside
    assert (lengths == r_max).sum() == {1: 2, 2: 4, 3: 30}[dim]
    assert lengths.max() == (r_max if dim == 1 else r_max + TOL_EQ / 2)


def _split_boundary(norms):
    """A ladder radius b that cuts a chain of lengths within TOL_EQ of each
    other: its shortest length nu has nu <= b + TOL_EQ, the next does not.
    None when no two lengths differ by TOL_EQ or less."""
    nu = np.sort(norms)
    gap = np.diff(nu)
    tied = np.flatnonzero((gap > 0) & (gap <= TOL_EQ))
    if not len(tied):
        return None
    lo, hi = nu[tied[0]], nu[tied[0] + 1]
    b = lo - TOL_EQ
    for _ in range(64):
        if lo <= b + TOL_EQ < hi:
            return b
        b = np.nextafter(b, np.inf if b + TOL_EQ < lo else -np.inf)
    raise AssertionError("no radius splits the chain")


@pytest.mark.parametrize("S, r_min, top", [
    (gen_ideal_crystal([[1.0, 0.0], [0.3, 1.1]],
                       [[0.31, 0.17], [0.81, 0.72]], 20.0), 0.3, 9.0),
    (gen_ideal_crystal([[1.0, 0.1, 0.0], [0.0, 1.1, 0.2], [0.1, 0.0, 0.9]],
                       [[0.13, 0.27, 0.06], [0.58, 0.57, 0.56]], 8.0),
     0.3, 3.5),
    (gen_ideal_crystal([[1.3]], [[0.05], [0.45], [0.95]], 40.0), 0.3, 19.0),
    (gen_perturbed_lattice([[1.0]], 0.1, [np.sqrt(2.0)], 400.0), 0.5, 190.0),
], ids=["p2-two-residues", "p3-two-residues", "p1-three-residues",
        "perturbed-sqrt2-line"])
def test_step_harvests_are_the_one_harvest_cut_by_step(S, r_min, top):
    whole = candidate_almost_periods(S, 0.01, r_min, top)
    norms = np.linalg.norm(whole, axis=1)

    def steps(ladder):
        got = [_anchor_differences(S, r_min, ladder[k - 1] if k else -np.inf,
                                   r) for k, r in enumerate(ladder)]
        # each step holds the one harvest's rows of that step (the ladder
        # rule of recover_crystal), in its order
        step_of = np.searchsorted(np.asarray(ladder) + TOL_EQ, norms)
        for k, rows in enumerate(got):
            assert len(rows), k
            assert rows.tobytes() == whole[step_of == k].tobytes(), k
        return got, step_of

    # boundaries within TOL_EQ of a candidate length on either side: the
    # steps concatenate to the one harvest
    nu = np.sort(norms)
    ladder = [nu[len(nu) // 5] - TOL_EQ, nu[2 * len(nu) // 5] - TOL_EQ / 2,
              nu[3 * len(nu) // 5] + TOL_EQ / 2, top]
    got, _ = steps(ladder)
    assert np.concatenate(got).tobytes() == whole.tobytes()
    # a boundary that cuts a chain of near-tied lengths, where the window
    # has one: the chain's order interleaves the two steps, each part keeps
    # it
    split = _split_boundary(norms)
    if S.dim > 1:
        assert split is not None
    if split is not None:
        ladder = sorted(ladder + [split])
        _, step_of = steps(ladder)
        cut = ladder.index(split)
        near = np.abs(norms - split) <= 2 * TOL_EQ
        assert set(step_of[near]) == {cut, cut + 1}


def test_candidates_window_too_small():
    # no point within 6 of the origin: the anchor sits outside the core
    # |a| + r_max + epsilon < R that the contract needs
    S = disc_lattice()
    ring = WindowedSet(S.points[np.linalg.norm(S.points, axis=1) >= 6.0], 10.0)
    with pytest.raises(WindowTooSmall):
        candidate_almost_periods(ring, 0.1, 0.5, 5.0)
    assert len(candidate_almost_periods(S, 0.1, 0.5, 5.0)) > 0


def test_candidates_argument_validation():
    S = integer_line()
    with pytest.raises(ConfigError):
        candidate_almost_periods(S, 0.0, 1.0, 2.0)
    with pytest.raises(ConfigError):
        candidate_almost_periods(S, 0.1, 2.0, 2.0)
    with pytest.raises(ConfigError):
        candidate_almost_periods(S, 0.1, 1.0, 5.2)


# -- snap_to_period -----------------------------------------------------------


def test_snap_recovers_integer_period():
    S = integer_line()
    P = snap_to_period(S, [1.1], 0.3)
    assert P.T.tolist() == [1.0]
    assert P.anchor.tolist() == [0.0]
    assert abs(P.verified_radius - (10.0 - 1.0 - 1e-8)) < 1e-12


def test_snap_no_target():
    S = integer_line()
    with pytest.raises(NoSnapTarget):
        snap_to_period(S, [0.5], 0.3)


def test_snap_ambiguous():
    S = two_coset_even(shift=0.3, R=40.0)
    with pytest.raises(AmbiguousSnap):
        snap_to_period(S, [0.15], 0.9)


def test_snap_not_exact():
    S = two_coset_even(shift=0.3, R=40.0)
    # 0.3 maps the anchor onto a point but is not a window symmetry
    with pytest.raises(NotExactPeriod):
        snap_to_period(S, [0.29], 0.3)


# -- verify_exact_period --------------------------------------------------------


def test_verify_success_and_radius():
    S = two_coset_even()
    out = verify_exact_period(S, [2.0], 1e-8)
    assert isinstance(out, float)
    assert abs(out - (S.radius - 2.0 - 1e-8)) < 1e-12


def test_verify_failure_witness_canonical():
    S = two_coset_even()
    out = verify_exact_period(S, [1.0], 1e-8)
    assert isinstance(out, FailureWitness)
    # first core point in canonical order is the leftmost survivor
    assert out.point.tolist() == [-38.0]
    assert abs(out.distance - 0.5) < 1e-12


def test_verify_witness_on_small_core():
    # a small core gives the same canonical-order witness
    S = two_coset_even(R=20.0)
    out = verify_exact_period(S, [1.0], 1e-8)
    assert isinstance(out, FailureWitness)
    assert out.point.tolist() == [-18.0]


def test_verify_matches_plain_scan():
    # reference: every core point in canonical order, one at a time; with
    # the column x = 3 missing, the offenders of a unit shift form a block
    # mid-core, and the witness must be the first of them in canonical
    # order, not any other offender
    g = np.arange(-12.0, 13.0)
    pts = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    pts = pts[(np.linalg.norm(pts, axis=1) <= 12.0) & (pts[:, 0] != 3.0)]
    S = WindowedSet(pts, 12.0)
    tol = 1e-8
    for T in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-2.0, 1.0], [0.5, 0.0]):
        T = np.array(T)
        margin = np.linalg.norm(T) + tol
        expected = S.radius - margin
        for a in S.points[S.norms() <= S.radius - margin]:
            d = float(np.min(np.linalg.norm(S.points - (a + T), axis=1)))
            if d > tol:
                expected = (a.tolist(), d)
                break
        out = verify_exact_period(S, T, tol)
        if isinstance(out, FailureWitness):
            assert (out.point.tolist(), out.distance) == expected, T
        else:
            assert out == expected, T


def test_verify_argument_validation():
    S = integer_line()
    with pytest.raises(ConfigError):
        verify_exact_period(S, [11.0])
    with pytest.raises(ConfigError):
        verify_exact_period(S, [1.0], 0.0)
    with pytest.raises(ConfigError):
        verify_exact_period(S, [1.0, 1.0])


def test_period_additivity_on_window():
    S = two_coset_even()
    for Ta, Tb in [(2.0, 2.0), (2.0, 4.0), (-2.0, 6.0)]:
        assert isinstance(verify_exact_period(S, [Ta]), float)
        assert isinstance(verify_exact_period(S, [Tb]), float)
        assert isinstance(verify_exact_period(S, [Ta + Tb]), float)


def test_snap_matches_verify_over_random_drift():
    # snapping from any tau within epsilon/2 of a true period finds it
    S = two_coset_even()
    rng = np.random.default_rng(17)
    for _ in range(25):
        drift = float(rng.uniform(-0.2, 0.2))
        k = int(rng.integers(1, 6))
        P = snap_to_period(S, [2.0 * k + drift], 0.45)
        assert P.T.tolist() == [2.0 * k]


# -- argument checks ------------------------------------------------------------

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call", [
    lambda S: is_almost_period(S, [NAN], 0.2),
    lambda S: is_almost_period(S, [INF], 0.2),
    lambda S: is_almost_period(S, [1.0], NAN),
    lambda S: snap_to_period(S, [NAN], 0.2),
    lambda S: snap_to_period(S, [1.0], NAN),
    lambda S: snap_to_period(S, [1.0], INF),
    lambda S: snap_to_period(S, [1.0, 0.0], 0.2),
    lambda S: verify_exact_period(S, [NAN]),
    lambda S: verify_exact_period(S, [-INF]),
    lambda S: verify_exact_period(S, [1.0], NAN),
    lambda S: verify_exact_period(S, [1.0], INF),
    lambda S: candidate_almost_periods(S, NAN, 0.5, 3.0),
    lambda S: candidate_almost_periods(S, INF, 0.5, 3.0),
    lambda S: difference_vectors(S, NAN),
    lambda S: finite_type_gap(S, NAN),
    lambda S: denseness_radius(S, NAN),
    lambda S: verify_decomposition(S, build_lattice([[1.0]]), [[0.0]], NAN),
], ids=["ap-tau-nan", "ap-tau-inf", "ap-eps-nan", "snap-tau-nan",
        "snap-eps-nan", "snap-eps-inf", "snap-tau-dim", "verify-T-nan",
        "verify-T-inf", "verify-tol-nan", "verify-tol-inf",
        "candidates-eps-nan", "candidates-eps-inf", "differences-cutoff-nan",
        "gap-D-nan", "denseness-margin-nan", "decomposition-tol-nan"])
def test_non_finite_lengths_are_refused(call):
    # NaN fails every positivity check; a vector, and a tolerance of the
    # almost-period tests, must also be finite
    with pytest.raises(ConfigError):
        call(integer_line())
