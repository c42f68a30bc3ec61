"""Cone and dominance predicates, lattice arithmetic, residues, recovery.

Fuzz loops construct inputs whose expected outcome is known analytically;
end-to-end cases round-trip through the generators.
"""

import numpy as np
import pytest

from idealcrystal import (
    ConfigError,
    CrystalDecomposition,
    NoCrystalEvidence,
    SingularBasis,
    WindowTooSmall,
    WindowedSet,
    build_lattice,
    cone_filter,
    dominance_check,
    gen_cut_and_project,
    gen_ideal_crystal,
    gen_poisson,
    independence_det,
    recover_crystal,
    refine_lattice,
    residues,
    verify_decomposition,
)
from idealcrystal.config import RunConfig


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
    assert len(cone_filter([[5.0, 0.0]], 1, 2, scale=0.25)) == 1


def test_cone_filter_axis_roles():
    v = [[0.0, 14.0]]
    assert len(cone_filter(v, 2, 2)) == 1
    assert len(cone_filter(v, 1, 2)) == 0


def test_cone_filter_validation():
    with pytest.raises(ConfigError):
        cone_filter([[1.0, 0.0]], 3, 2)
    with pytest.raises(ConfigError):
        cone_filter([[1.0, 0.0]], 1, 2, scale=0.0)


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
        R = refine_lattice(L, [coeff @ B], max_denominator=8)
        ratio = L.det / R.det
        assert ratio >= 1.0 - 1e-9, seed
        assert abs(ratio - round(ratio)) < 1e-6, seed
        assert bool(R.contains(coeff @ B)), seed


def test_refine_drops_incommensurate(caplog):
    L = build_lattice([[1.0]])
    with caplog.at_level("WARNING"):
        R = refine_lattice(L, [np.array([np.sqrt(2.0)])], max_denominator=16)
    assert R is L
    assert any("dropping period" in m for m in caplog.messages)


def test_refine_validation():
    L = build_lattice([[1.0]])
    with pytest.raises(ConfigError):
        refine_lattice(L, [], max_denominator=0)


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


def test_residues_window_too_small():
    S = WindowedSet([[0.0], [1.0], [-1.0]], 1.0)
    with pytest.raises(WindowTooSmall):
        residues(S, build_lattice([[2.0]]))


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


def test_recover_min_points_gate():
    S = gen_ideal_crystal([[1.0]], [[0.0]], 10.0)
    out = recover_crystal(S)
    assert isinstance(out, NoCrystalEvidence)
    assert out.stage == "input"
    dec = recover_crystal(S, RunConfig(min_points=5))
    assert isinstance(dec, CrystalDecomposition)


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
        recover_crystal(S, RunConfig(r_min=40.0, r_max=45.0))


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
    # the same window is a crystal under greedy-det, and a smaller
    # cone_scale brings the cones inside R/2
    assert recover_crystal(S).verified
    out = recover_crystal(S, RunConfig(strategy="paper-cone", cone_scale=0.25))
    assert out.verified


def test_recover_empty_centre_is_staged():
    S = disc_lattice(20.0)
    ring = WindowedSet(S.points[np.linalg.norm(S.points, axis=1) >= 11.0], 20.0)
    out = recover_crystal(ring)
    assert isinstance(out, NoCrystalEvidence)
    assert out.stage == "candidate-generation"
    assert "anchor" in out.reason


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


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(strategy="magic").validate()
    with pytest.raises(ConfigError):
        RunConfig(output="yaml").validate()
    with pytest.raises(ConfigError):
        RunConfig(cone_scale=0.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(tol_exact=-1.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(r_min=2.0, r_max=1.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(max_denominator=0).validate()
    with pytest.raises(ConfigError):
        RunConfig(min_points=1).validate()
