import warnings

import numpy as np
import pytest

from idealcrystal.crystal import COORD_TOL, build_lattice
from idealcrystal.errors import (
    AmplitudeTooLarge,
    ConfigError,
    CosetCollision,
    EmptyAcceptanceWindow,
    SingularBasis,
)
from idealcrystal.generators import (
    gen_cut_and_project,
    gen_ideal_crystal,
    gen_perturbed_lattice,
    gen_poisson,
)
from idealcrystal.pointset import min_separation
from oracles import first_coset_collision


def test_integer_line_window():
    S = gen_ideal_crystal([[1.0]], [[0.0]], 3.0)
    assert S.points.ravel().tolist() == [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
    assert S.radius == 3.0
    assert S.label == "crystal(p=1, |F|=1)"


def test_two_coset_line_exact_points():
    S = gen_ideal_crystal([[2.0]], [[0.0], [0.5]], 4.0)
    assert S.points.ravel().tolist() == [
        -4.0, -3.5, -2.0, -1.5, 0.0, 0.5, 2.0, 2.5, 4.0,
    ]


def test_square_lattice_count():
    S = gen_ideal_crystal(np.eye(2), [[0.0, 0.0]], 1.5)
    # origin, 4 axis neighbours, 4 diagonals at sqrt(2)
    assert len(S) == 9


def test_crystal_respects_window_boundary():
    S = gen_ideal_crystal([[1.0]], [[0.0]], 2.0)
    assert 2.0 in S.points.ravel().tolist()
    assert np.all(np.linalg.norm(S.points, axis=1) <= 2.0 + 1e-9)


def test_crystal_contains_every_promised_point():
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = int(rng.integers(1, 3))
        B = rng.uniform(-1, 1, (p, p)) + 2 * np.eye(p)
        F = rng.uniform(-0.3, 0.3, (int(rng.integers(1, 3)), p))
        R = float(rng.uniform(5, 12))
        S = gen_ideal_crystal(B, F, R)
        # spot-check membership: random small integer combos + residues
        for _ in range(20):
            n = rng.integers(-2, 3, p)
            f = F[int(rng.integers(0, len(F)))]
            x = n @ B + f
            if np.linalg.norm(x) <= R - 1e-9:
                d = np.linalg.norm(S.points - x, axis=1).min()
                assert d < 1e-9


def test_coset_collision_detected():
    with pytest.raises(CosetCollision):
        gen_ideal_crystal([[1.0]], [[0.0], [1.0]], 5.0)
    with pytest.raises(CosetCollision):
        gen_ideal_crystal([[2.0]], [[0.5], [2.5]], 5.0)


@pytest.mark.parametrize("seed", range(12))
def test_coset_collisions_match_the_pair_loop(seed):
    # cell coordinates on both sides of the 0 = 1 wrap, and two copies of
    # some rows moved by up to twice the coset tolerance, so a row can
    # collide with more than one later row: the one pass per residue names
    # the pair loop's first colliding pair, or none when the loop finds none
    rng = np.random.default_rng(seed)
    B = np.array([[1.0, 0.0], [0.3, 1.1]])
    edge = [0.0, 4e-7, 1 - 4e-7, 1 - 1e-12]
    cells = np.where(rng.random((10, 2)) < 0.3, rng.choice(edge, (10, 2)),
                     rng.random((10, 2)))
    copies = np.repeat(rng.integers(0, 10, seed % 4), 2)
    moved = cells[copies] + rng.uniform(-2, 2, (len(copies), 2)) * COORD_TOL
    F = np.mod(np.vstack([cells, moved]), 1.0) @ B
    F = F[rng.permutation(len(F))]
    pair = first_coset_collision(np.mod(F @ build_lattice(B).inv, 1.0))
    if pair is None:
        assert len(gen_ideal_crystal(B, F, 2.0)) > 0
        return
    i, k = pair
    with pytest.raises(CosetCollision) as err:
        gen_ideal_crystal(B, F, 2.0)
    assert str(err.value) == (f"residues {F[i].tolist()} and {F[k].tolist()}"
                              " coincide modulo the lattice")


def test_crystal_argument_validation():
    with pytest.raises(SingularBasis):
        gen_ideal_crystal([[1.0, 0.0], [2.0, 0.0]], [[0.0, 0.0]], 5.0)
    with pytest.raises(ConfigError):
        gen_ideal_crystal([[1.0]], np.zeros((0, 1)), 5.0)
    with pytest.raises(ConfigError):
        gen_ideal_crystal([[1.0]], [[0.0]], -1.0)
    with pytest.raises(ConfigError):
        gen_ideal_crystal([[1.0, 0.0]], [[0.0]], 5.0)
    # residues must have the basis dimension, not merely fill it when flat
    with pytest.raises(ConfigError):
        gen_ideal_crystal(np.eye(2), [[0.0]], 5.0)
    with pytest.raises(ConfigError):
        gen_ideal_crystal(np.eye(2), [0.0, 0.0], 5.0)


def test_perturbed_zero_amplitude_is_crystal():
    B = [[1.0, 0.2], [0.0, 1.1]]
    S0 = gen_perturbed_lattice(B, 0.0, [0.7, 0.3], 8.0, label="x")
    S1 = gen_ideal_crystal(B, [[0.0, 0.0]], 8.0, label="x")
    assert S0.equals(S1)


def test_perturbed_displacement_bounded():
    amp = 0.12
    S = gen_perturbed_lattice([[1.0]], amp, [np.sqrt(2.0)], 30.0)
    ref = gen_ideal_crystal([[1.0]], [[0.0]], 31.0)
    for x in S.points.ravel():
        d = np.abs(ref.points.ravel() - x).min()
        assert d <= amp + 1e-12


def test_perturbed_rational_frequency_is_periodic():
    S = gen_perturbed_lattice([[1.0]], 0.1, [1.0 / 3.0], 21.0)
    xs = S.points.ravel()
    # period 3 exactly: the sine pattern repeats every third site
    inside = xs[np.abs(xs) <= 21.0 - 3.0]
    for x in inside:
        assert np.abs(xs - (x + 3.0)).min() < 1e-12


def test_amplitude_guard():
    with pytest.raises(AmplitudeTooLarge):
        gen_perturbed_lattice([[1.0]], 0.25, [np.sqrt(2.0)], 10.0)
    # just under the guard is fine
    S = gen_perturbed_lattice([[1.0]], 0.2499, [np.sqrt(2.0)], 10.0)
    assert min_separation(S) > 0.5


def test_amplitude_guard_on_a_skewed_basis():
    # B_3 is nearly 2 B_1, so the shortest lattice vector, 2 B_1 - B_3, is 20
    # times shorter than every row; |det| / prod |B_j| = 1.8e-4
    B = np.array([
        [2.3645548320042318, 0.22669885643799229, 1.1624211875584574],
        [-1.0882117291190974, 0.16647643241807342, -0.8665073572768981],
        [4.7352368687852655, 0.4135933741212294, 2.382762180605139],
    ])
    freqs = [np.sqrt(2.0), 0.0, 0.0]
    quarter = float(np.linalg.norm(2 * B[0] - B[2])) / 4
    with pytest.raises(AmplitudeTooLarge):
        gen_perturbed_lattice(B, quarter * (1 + 1e-12), freqs, 1.0)
    S = gen_perturbed_lattice(B, quarter * (1 - 1e-12), freqs, 1.0)
    assert min_separation(S) > 2 * quarter


def test_perturbed_argument_validation():
    with pytest.raises(ConfigError):
        gen_perturbed_lattice([[1.0]], -0.1, [0.5], 10.0)
    with pytest.raises(ConfigError):
        gen_perturbed_lattice([[1.0]], 0.1, [0.5, 0.5], 10.0)
    with pytest.raises(ConfigError):
        gen_perturbed_lattice([[1.0]], 0.1, [0.5], 0.0)


def test_golden_chain_tiles():
    phi = (1 + np.sqrt(5.0)) / 2
    S = gen_cut_and_project(phi, (0.0, 1.0), 60.0)
    assert len(S) == 33
    gaps = np.unique(np.round(np.diff(S.points.ravel()), 9))
    assert gaps.tolist() == [2.618033989, 4.236067977]
    assert abs(gaps[1] / gaps[0] - phi) < 1e-8


def test_acceptance_interval_is_half_open():
    # slope 1/2 with window [0, 1/2): odd m has internal coordinate exactly
    # 1/2 and must be excluded, leaving the lattice 2.5*Z
    S = gen_cut_and_project(0.5, (0.0, 0.5), 10.0)
    assert S.points.ravel().tolist() == [
        -10.0, -7.5, -5.0, -2.5, 0.0, 2.5, 5.0, 7.5, 10.0,
    ]


def test_cut_and_project_density_tracks_window():
    rng = np.random.default_rng(5)
    for _ in range(15):
        slope = float(rng.uniform(1.2, 2.5))
        width = float(rng.uniform(0.2, 1.0))
        lo = float(rng.uniform(-0.5, 0.5))
        S = gen_cut_and_project(slope, (lo, lo + width), 80.0)
        # density of the projected set is width / (1 + slope^2) per unit
        expect = 2 * 80.0 * width / (1 + slope * slope)
        assert 0.5 * expect <= len(S) <= 2.0 * expect + 4
        assert min_separation(S) > 1e-3


def test_empty_acceptance_window():
    with pytest.raises(EmptyAcceptanceWindow):
        gen_cut_and_project(1.5, (0.3, 0.3), 20.0)
    with pytest.raises(EmptyAcceptanceWindow):
        gen_cut_and_project(1.5, (0.5, 0.2), 20.0)


def test_poisson_seeded_and_stable():
    A = gen_poisson(1.0, 50.0, 7)
    B = gen_poisson(1.0, 50.0, 7)
    assert A.equals(B)
    assert len(A) == 104
    C = gen_poisson(1.0, 50.0, 8)
    assert not A.equals(C)


def test_poisson_inside_ball_and_separated():
    for seed in range(6):
        S = gen_poisson(2.0, 20.0, seed, dim=2)
        assert np.all(np.linalg.norm(S.points, axis=1) <= 20.0)
        assert min_separation(S) > 0


def test_poisson_count_near_expectation():
    # intensity * volume = 2 * 60 = 120; Poisson sd ~ 11
    counts = [len(gen_poisson(2.0, 30.0, s)) for s in range(10)]
    assert 70 <= np.mean(counts) <= 170


def test_poisson_argument_validation():
    with pytest.raises(ConfigError):
        gen_poisson(0.0, 10.0, 1)
    with pytest.raises(ConfigError):
        gen_poisson(1.0, -5.0, 1)
    with pytest.raises(ConfigError):
        gen_poisson(1.0, 10.0, 1, dim=0)


@pytest.mark.parametrize("make", [
    lambda: gen_ideal_crystal([[1.0]], [[0.0]], np.inf),
    lambda: gen_ideal_crystal([[1.0]], [[0.0]], np.nan),
    lambda: gen_ideal_crystal([[1.0]], [[np.nan]], 5.0),
    # past int64 the enumeration's coordinates used to wrap to one point
    # at -9.22e18
    lambda: gen_ideal_crystal([[1.0]], [[0.0]], 1e19),
    lambda: gen_perturbed_lattice([[1.0]], 0.1, [0.5], np.inf),
    lambda: gen_perturbed_lattice([[1.0]], 0.1, [0.5], 1e19),
    lambda: gen_perturbed_lattice([[1.0]], np.nan, [0.5], 10.0),
    lambda: gen_perturbed_lattice([[1.0]], 0.1, [np.nan], 10.0),
    lambda: gen_cut_and_project(np.inf, (0.0, 1.0), 10.0),
    lambda: gen_cut_and_project(np.nan, (0.0, 1.0), 10.0),
    lambda: gen_cut_and_project(1.5, (0.0, np.inf), 10.0),
    lambda: gen_cut_and_project(1.5, (0.0, 1.0), np.nan),
    lambda: gen_poisson(np.nan, 5.0, 1),
    lambda: gen_poisson(np.inf, 5.0, 1),
    lambda: gen_poisson(1.0, np.inf, 1),
    # Poisson means numpy cannot draw
    lambda: gen_poisson(1.0, 1e300, 1),
    lambda: gen_poisson(1.0, 1e300, 1, dim=2),
    # windows past the largest array numpy can make
    lambda: gen_poisson(1e15, 1000.0, 1),
    lambda: gen_poisson(1e3, 1e5, 1, dim=3),
    lambda: gen_cut_and_project((1 + 5**0.5) / 2, (0.0, 1.0), 1e19),
    lambda: gen_ideal_crystal([[1.0]], [[0.0]], 1e18),
    lambda: gen_ideal_crystal(np.eye(3), [[0.0, 0.0, 0.0]], 1e9),
    # numpy's default_rng raises ValueError and TypeError for these
    lambda: gen_poisson(1.0, 5.0, -1),
    lambda: gen_poisson(1.0, 5.0, 1.5),
    # True would draw seed 1 and label the window seed=True
    lambda: gen_poisson(1.0, 5.0, True),
    # numpy raises TypeError for a float dim; True is no dimension either
    lambda: gen_poisson(1.0, 5.0, 0, 2.5),
    lambda: gen_poisson(1.0, 5.0, 0, True),
    # refused before the determinant, which would warn and return nan
    lambda: gen_ideal_crystal([[np.nan]], [[0.0]], 5.0),
    lambda: gen_ideal_crystal([[np.inf, 0.0], [0.0, 1.0]], [[0.0, 0.0]], 5.0),
    lambda: gen_perturbed_lattice([[np.nan]], 0.1, [0.5], 10.0),
    # a finite basis whose determinant overflows, and one whose inverse's
    # column norms do: each used to print a numpy RuntimeWarning first
    lambda: gen_ideal_crystal([[1e200, 0.0], [0.0, 1e200]], [[0.0, 0.0]], 1.0),
    lambda: gen_ideal_crystal([[1e-300]], [[0.0]], 1.0),
], ids=["crystal-inf-radius", "crystal-nan-radius", "crystal-nan-residue",
        "crystal-int64", "perturbed-inf-radius", "perturbed-int64",
        "perturbed-nan-amplitude", "perturbed-nan-freqs", "cut-project-inf-slope",
        "cut-project-nan-slope", "cut-project-inf-window",
        "cut-project-nan-radius", "poisson-nan-intensity",
        "poisson-inf-intensity", "poisson-inf-radius", "poisson-huge-mean-1d",
        "poisson-huge-mean-2d", "poisson-past-array-size-1d",
        "poisson-past-array-size-3d", "cut-project-past-array-size",
        "crystal-past-array-size-1d", "crystal-past-array-size-3d",
        "poisson-negative-seed", "poisson-float-seed", "poisson-bool-seed",
        "poisson-float-dim",
        "poisson-bool-dim", "crystal-nan-basis",
        "crystal-inf-basis", "perturbed-nan-basis", "crystal-det-overflow",
        "crystal-inverse-overflow"])
def test_generators_refuse_what_they_cannot_build(make):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConfigError):
            make()
    assert [str(w.message) for w in caught] == []
