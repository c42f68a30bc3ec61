"""Container, ingestion, and elementary-metric tests.

Frozen values are hand-computed or brute-forced in line; random cases run
the O(n^2) oracle next to the library call.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from idealcrystal import (
    ConfigError,
    DimensionMismatch,
    DuplicatePoint,
    EmptyWindow,
    ParseError,
    TooFewPoints,
    WindowedSet,
    load_points,
    min_separation,
    serialize,
    window_restrict,
)
from idealcrystal.pointset import TOL_EQ, _canonical_order, _in_canonical_order

ROOT = Path(__file__).resolve().parents[1]


def brute_min_sep(pts):
    n = len(pts)
    best = np.inf
    for i in range(n):
        for j in range(i + 1, n):
            best = min(best, float(np.linalg.norm(pts[i] - pts[j])))
    return best


# -- construction -----------------------------------------------------------


def test_canonical_order_is_lexicographic():
    pts = np.array([[2.0, 0.0], [1.0, 5.0], [1.0, -3.0], [-4.0, 9.0]])
    S = WindowedSet(pts, 12.0)
    assert S.points[:, 0].tolist() == [-4.0, 1.0, 1.0, 2.0]
    # ties on the first coordinate break on the second
    assert S.points[1].tolist() == [1.0, -3.0]
    assert S.points[2].tolist() == [1.0, 5.0]


def test_one_dimensional_input_is_reshaped():
    S = WindowedSet([3.0, -1.0, 2.0])
    assert S.dim == 1 and S.points.shape == (3, 1)
    assert S.points.ravel().tolist() == [-1.0, 2.0, 3.0]


def test_radius_defaults_to_max_norm():
    S = WindowedSet([[3.0, 4.0], [0.0, 0.0]])
    assert S.radius == 5.0


def test_radius_too_small_rejected():
    with pytest.raises(ConfigError):
        WindowedSet([[3.0, 4.0]], radius=4.9)


def test_point_on_boundary_accepted():
    S = WindowedSet([[3.0, 4.0]], radius=5.0)
    assert len(S) == 1


def test_duplicate_points_rejected():
    with pytest.raises(DuplicatePoint):
        WindowedSet([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]], 5.0)
    with pytest.raises(DuplicatePoint):
        WindowedSet([[1.0], [1.0 + 0.4 * TOL_EQ]], 5.0)
    # separation well above tol_eq is fine
    WindowedSet([[1.0], [1.0 + 10 * TOL_EQ]], 5.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("sep, duplicate", [(0.0, True), (0.5, True),
                                            (2.0, False)])
def test_duplicate_check_at_tol_eq(dim, sep, duplicate):
    # a grid of spacing 1 plus one pair sep * tol_eq apart along the diagonal
    grid = np.stack(np.meshgrid(*[np.arange(-2.0, 3.0)] * dim, indexing="ij"),
                    -1).reshape(-1, dim)
    a = np.full(dim, 0.3)
    b = a + sep * TOL_EQ / np.sqrt(dim)
    pts = np.vstack([grid, a, b])
    if duplicate:
        with pytest.raises(DuplicatePoint):
            WindowedSet(pts)
    else:
        S = WindowedSet(pts)
        assert min_separation(S) == pytest.approx(2.0 * TOL_EQ, rel=1e-6)


def _bounded_query_duplicate(pts):
    """Reference: one bounded k = 2 query over a tree of the whole window."""
    d, _ = cKDTree(pts).query(pts, k=2,
                              distance_upper_bound=TOL_EQ * (1 + 1e-9))
    return bool(d[:, 1].min() < TOL_EQ)


def _sweep_direction(dim):
    u = np.sqrt(np.arange(2.0, dim + 2.0))
    return u / np.linalg.norm(u)


@st.composite
def _duplicate_cases(draw):
    dim = draw(st.integers(1, 3))
    kinds = ["poisson", "grid"] + (["hyperplane"] if dim >= 2 else [])
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "poisson":
        pts = rng.uniform(-5.0, 5.0, (draw(st.integers(2, 400)), dim))
    elif kind == "grid":
        # axis-aligned Z^p: whole slabs of rows share a first coordinate
        m = draw(st.integers(2, 7))
        g = np.arange(-m, m + 1, dtype=np.float64)
        pts = np.stack(np.meshgrid(*[g] * dim, indexing="ij"),
                       -1).reshape(-1, dim)
    else:
        # every point on the hyperplane orthogonal to the sweep direction,
        # so every point projects within rounding of 0 and is a chain member
        u = _sweep_direction(dim)
        basis = np.linalg.svd(u[None, :])[2][1:]
        coords = rng.uniform(-5.0, 5.0, (draw(st.integers(2, 300)), dim - 1))
        pts = coords @ basis
    # coordinates up to ~1e6, where an ulp is ~1e-10 and the rounding of the
    # projections is no longer small against tol_eq
    pts = pts * 10.0 ** draw(st.sampled_from([0, 3, 5]))
    if draw(st.booleans()):
        pts = pts + draw(st.sampled_from([0.0, 1e4, 1e6]))
    sep = draw(st.sampled_from([None, 0.5, 0.999, 1.001, 2.0]))
    if sep is not None:
        # plant a pair sep * tol_eq apart, along the sweep direction (where
        # the projection gap is the distance) or along a random one
        x = pts[draw(st.integers(0, len(pts) - 1))]
        if draw(st.booleans()):
            step = _sweep_direction(dim)
        else:
            step = rng.normal(size=dim)
            step /= np.linalg.norm(step)
        pts = np.vstack([pts, x + sep * TOL_EQ * step])
    return pts


def _pair_along_sweep(x, sep):
    x = np.asarray(x, dtype=np.float64)
    return np.vstack([x, x + sep * TOL_EQ * _sweep_direction(len(x))])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_duplicate_cases())
# pairs closer than tol_eq whose projections, rounded at |a| ~ 1e6, read a
# gap above tol_eq: only the ulp slack of the sweep keeps them together
@example(_pair_along_sweep([-476775.732, -403017.713], 0.999))
@example(_pair_along_sweep([546554.019, -939307.985, 413930.191], 0.999))
def test_duplicate_check_matches_a_bounded_whole_window_query(pts):
    want = _bounded_query_duplicate(pts)
    try:
        WindowedSet(pts)
    except DuplicatePoint:
        got = True
    else:
        got = False
    assert got == want


_CROWDED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import numpy as np
from idealcrystal import DuplicatePoint, WindowedSet
box = np.random.default_rng(0).uniform(0.0, 1e-10, (100_000, 2))
for pts in (box, np.ones((300_000, 2))):
    try:
        WindowedSet(pts)
    except DuplicatePoint:
        continue
    sys.exit("no DuplicatePoint")
"""


def test_crowded_window_is_refused_in_bounded_memory():
    # 10^5 points inside a 1e-10 box hold ~5e9 pairs within tol_eq, and a
    # check that listed them would exhaust a 1 GiB address space. The tree
    # cannot split 3 * 10^5 copies of one point, and a query among them
    # would scan them all once per copy, far past the timeout
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", _CROWDED], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_nonfinite_coordinates_rejected():
    with pytest.raises(ParseError):
        WindowedSet([[np.nan], [1.0]], 5.0)
    with pytest.raises(ParseError):
        WindowedSet([[np.inf], [1.0]], 5.0)


def test_points_are_immutable():
    S = WindowedSet([[1.0], [2.0]], 3.0)
    with pytest.raises(ValueError):
        S.points[0] = 9.0


def test_canonical_input_is_copied_not_aliased():
    arr = np.array([[-1.0, 0.0], [0.0, -2.0], [0.0, 3.0]])
    assert _in_canonical_order(arr)
    S = WindowedSet(arr, 4.0)
    assert arr.flags.writeable
    arr[0, 0] = 9.0
    assert S.points[0].tolist() == [-1.0, 0.0]


def test_in_canonical_order_matches_lexsort():
    # the order check must say "in order" exactly when the stable sort
    # leaves the rows where they are; small integer ranges force ties in
    # every column, and -0.0 must tie with 0.0 as it does in the sort
    rng = np.random.default_rng(5)
    for trial in range(300):
        n, p = int(rng.integers(0, 8)), int(rng.integers(1, 4))
        pts = rng.integers(-2, 3, size=(n, p)).astype(np.float64)
        pts[rng.random(size=pts.shape) < 0.2] = -0.0
        if trial % 2:
            pts = pts[_canonical_order(pts)]
        in_place = pts[_canonical_order(pts)].tobytes() == pts.tobytes()
        assert _in_canonical_order(pts) == in_place, (trial, pts)


def test_nonfinite_radius_rejected():
    for r in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="radius must be finite"):
            WindowedSet([[1.0]], r)


def test_equals_is_exact():
    a = WindowedSet([[1.0], [2.0]], 3.0, label="x")
    b = WindowedSet([[2.0], [1.0]], 3.0, label="x")
    assert a.equals(b)
    assert not a.equals(WindowedSet([[1.0], [2.0]], 3.0, label="y"))
    assert not a.equals(WindowedSet([[1.0], [2.0]], 4.0, label="x"))


# -- csv ---------------------------------------------------------------------


def test_csv_roundtrip_bit_exact():
    rng = np.random.default_rng(0)
    for trial in range(10):
        pts = rng.normal(size=(30, rng.integers(1, 4))) * 7
        S = WindowedSet(pts)
        T = load_points(serialize(S, "csv"), "csv")
        assert np.array_equal(S.points, T.points), trial


def test_csv_comments_and_blank_lines_skipped():
    S = load_points("# header\n\n1.0,2.0\n  # indented comment\n3.0,4.0\n")
    assert len(S) == 2 and S.dim == 2


def test_csv_malformed_row():
    with pytest.raises(ParseError, match="line 2"):
        load_points("1.0\nbogus\n")


def test_csv_ragged_rows():
    with pytest.raises(DimensionMismatch, match="line 2"):
        load_points("1.0,2.0\n3.0\n")


def test_csv_empty_input():
    with pytest.raises(ParseError):
        load_points("# nothing here\n")


def test_csv_nonfinite():
    with pytest.raises(ParseError):
        load_points("nan\n1.0\n")


@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\x85", "\u2028"],
                         ids=["lf", "cr", "crlf", "nel", "line-separator"])
def test_csv_label_with_a_line_break_stays_a_comment(brk):
    # the label line is escaped like the generator line, so a line break
    # in the label cannot start a data row
    S = WindowedSet([[0.0, 0.0], [1.0, 0.0]], 2.0, label=f"two{brk}5,5")
    text = serialize(S, "csv")
    assert text.splitlines()[0] == "# label: " + json.dumps(S.label)
    T = load_points(text, "csv")
    assert T.points.tolist() == S.points.tolist()


@pytest.mark.parametrize("fmt, text", [
    ("csv", "1.5e308,1.5e308\n0,0\n"),
    ("json", '{"points": [[1.5e308, 1.5e308], [0, 0]]}'),
    ("json", '{"radius": 5, "points": [[1.5e308, 1.5e308], [0, 0]]}'),
], ids=["csv", "json", "json-radius"])
def test_overflowing_norm_is_a_parse_error_without_warning(fmt, text):
    # |(1.5e308, 1.5e308)| is past the float range: no finite radius holds
    # the point, in either format, and numpy's overflow warning stays quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="radius"):
            load_points(text, fmt)


@pytest.mark.parametrize("fmt, text, radius", [
    ("csv", "1e160,0\n0,0\n", 1e160),
    ("json", '{"points": [[1e200, 1e200], [0, 0]]}', 1e200 * np.sqrt(2.0)),
], ids=["csv", "json"])
def test_norm_whose_squares_overflow_loads(fmt, text, radius):
    # the squares of 1e160 are past the float range, the norm is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        S = load_points(text, fmt)
    assert S.radius == pytest.approx(radius, rel=1e-15)
    assert S.norms()[0] == 0.0


def test_scaled_norms_leave_ordinary_rows_alone():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(200, 3)) * 10.0 ** rng.uniform(-8, 150, (200, 1))
    huge = np.array([[1e160, -3e159, 2e158], [0.0, 0.0, -1e300]])
    S = WindowedSet(np.concatenate([pts, huge]), 1e300)
    with np.errstate(over="ignore"):
        ordinary = np.isfinite(np.linalg.norm(S.points, axis=1))
    assert ordinary.sum() == 200
    assert (S.norms()[ordinary].tobytes()
            == np.linalg.norm(S.points[ordinary], axis=1).tobytes())
    assert sorted(S.norms()[~ordinary]) == pytest.approx(
        [np.sqrt(10.0**2 + 3.0**2 + 0.2**2) * 1e159, 1e300], rel=1e-15)


def test_non_utf8_input_is_a_parse_error():
    import io

    for source in (b"1.0\n\xff\n", io.BytesIO(b"\xff1.0\n"),
                   io.TextIOWrapper(io.BytesIO(b"1.0\n\xe9\n"), "utf-8")):
        with pytest.raises(ParseError, match="UTF-8"):
            load_points(source)
    assert len(load_points("1.0\n2.0\n".encode())) == 2


# -- json --------------------------------------------------------------------


def test_json_roundtrip_exact():
    S = WindowedSet([[0.5, -1.25], [2.0, 2.0]], 4.0, label="probe")
    T = load_points(serialize(S, "json"), "json")
    assert S.equals(T)


def test_json_metadata_rides_along():
    S = WindowedSet([[1.0]], 2.0)
    text = serialize(S, "json", metadata={"kind": "lattice", "seed": 3})
    assert '"generator"' in text
    T = load_points(text, "json")
    assert S.equals(T)


def test_json_errors():
    with pytest.raises(ParseError):
        load_points("{not json", "json")
    with pytest.raises(ParseError):
        load_points('{"dim": 1}', "json")
    with pytest.raises(ParseError):
        load_points('{"points": "oops"}', "json")
    with pytest.raises(DimensionMismatch):
        load_points('{"points": [[1.0, 2.0], [3.0]]}', "json")
    # declared radius smaller than the data is a parse-level failure
    with pytest.raises(ParseError):
        load_points('{"radius": 0.5, "points": [[2.0]]}', "json")


@pytest.mark.parametrize(
    "points, error, message",
    [
        ('[[1.0, "2"]]', ParseError, "points[0] is not a numeric row"),
        ("[[1.0, 2.0], [null, 1.0]]", ParseError,
         "points[1] is not a numeric row"),
        ("[[1.0, 2.0], [[1.0], 2.0]]", ParseError,
         "points[1] is not a numeric row"),
        ("[[1.0, 2.0], [3.0, 4.0], [5.0]]", DimensionMismatch,
         "points[2] has 1 coordinates, expected 2"),
        ('[[1.0, 2.0], [3.0, 4.0]], "dim": 3', DimensionMismatch,
         "points[0] has 2 coordinates, expected 3"),
        ("[[1.0, 2.0], 3.0]", ParseError, "points[1] is not a numeric row"),
        ("[]", ParseError, "no points in JSON input"),
        ("[[]]", ParseError, "dimension must be at least 1"),
    ],
    ids=["string", "null", "nested-row", "ragged", "dim-mismatch",
         "non-list-row", "empty", "empty-row"],
)
def test_json_malformed_points_messages(points, error, message):
    # type and message as the per-row loader gave them
    with pytest.raises(error) as info:
        load_points('{"points": %s}' % points, "json")
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2], [3, -4]],
        [[True, False], [False, False]],
        [[1, 0.5], [-3, 2.25]],
        [[2**53 + 1, 0.5], [2**53 + 1, 1]],
        [[2**63 + 1, 0], [-1, 2**63 + 1]],
        [[2**70, 1], [1, 0.5]],
        [[2**63 + 2**10 + 1, True], [0, 0]],
    ],
    ids=["ints", "bools", "mixed", "2^53+1", "2^63+1", "2^70", "uint64-tie"],
)
def test_json_numbers_load_as_float(rows):
    reference = np.array([[float(c) for c in row] for row in rows])
    S = load_points(json.dumps({"points": rows}), "json")
    assert S.points.tobytes() == WindowedSet(reference).points.tobytes()


def test_json_shuffled_window_loads_sorted():
    g = np.arange(-15.0, 16.0)
    pts = np.stack(np.meshgrid(g, g, g), axis=-1).reshape(-1, 3)
    pts = pts[np.linalg.norm(pts, axis=1) <= 14.2]
    assert len(pts) >= 10_000
    S = WindowedSet(pts, 14.2)
    shuffled = pts[np.random.default_rng(3).permutation(len(pts))]
    T = load_points(json.dumps({"radius": 14.2, "points": shuffled.tolist()}),
                    "json")
    assert T.equals(S)
    assert T.equals(load_points(serialize(S, "json"), "json"))


def test_json_rendering_matches_per_coordinate_reference():
    # the per-coordinate rendering the columnar one replaced: the bytes
    # that `generate` writes and the benchmark parses must not move
    def reference(S):
        return json.dumps({
            "dim": S.dim,
            "radius": S.radius,
            "label": S.label,
            "points": [[float(c) for c in row] for row in S.points],
        }) + "\n"

    # 1e150 is the large-magnitude case
    rng = np.random.default_rng(11)
    pts = np.concatenate([
        [[-0.0, 5e-324], [1e150, 0.0], [3.0, -7.0], [1e16, 2.0],
         [0.1 + 0.2, 1 / 3], [np.nextafter(1.0, 2.0), -1.2345678901234567]],
        rng.normal(size=(40, 2)) * 10.0,
    ])
    S = WindowedSet(pts, 2e150, label="reference")
    text = serialize(S, "json")
    assert "[-0.0, 5e-324]" in text
    assert text == reference(S)


@pytest.mark.parametrize(
    "text",
    [
        '{"radius": "abc", "points": [[1.0]]}',
        '{"radius": [1], "points": [[1.0]]}',
        '{"points": [[%s]]}' % ("7" * 400),
        '{"points": [[%s]]}' % ("7" * 4400),
        '{"points": %s%s}' % ("[" * 100_000, "]" * 100_000),
        '{"radius": NaN, "points": [[1.0]]}',
        '{"radius": Infinity, "points": [[1.0]]}',
        '{"dim": "2", "points": [[1.0, 2.0]]}',
        '{"dim": true, "points": [[1.0]]}',
        '{"dim": 0, "points": [[1.0]]}',
        '{"dim": 2.0, "points": [[1.0, 2.0]]}',
    ],
    ids=["radius-string", "radius-list", "400-digit-int", "4400-digit-int",
         "deep-nesting", "radius-nan", "radius-infinity", "dim-string",
         "dim-bool", "dim-zero", "dim-float"],
)
def test_json_bad_input_is_parse_error(text):
    with pytest.raises(ParseError):
        load_points(text, "json")


def test_unknown_format():
    with pytest.raises(ConfigError):
        load_points("1.0\n", "xml")
    with pytest.raises(ConfigError):
        serialize(WindowedSet([[1.0]]), "xml")


# -- restriction and metrics --------------------------------------------------


def test_window_restrict_keeps_ball():
    S = WindowedSet(np.arange(-10.0, 11.0), 10.0)
    T = window_restrict(S, 4.0)
    assert T.radius == 4.0
    assert T.points.ravel().tolist() == list(np.arange(-4.0, 5.0))


def test_window_restrict_errors():
    S = WindowedSet([[5.0]], 5.0)
    with pytest.raises(ConfigError):
        window_restrict(S, 0.0)
    with pytest.raises(ConfigError):
        window_restrict(S, 6.0)
    with pytest.raises(EmptyWindow):
        window_restrict(S, 1.0)


def test_min_separation_known_grids():
    assert min_separation(WindowedSet(np.arange(-5.0, 6.0), 5.0)) == 1.0
    assert min_separation(WindowedSet(np.arange(-6.0, 7.0, 2.0), 6.0)) == 2.0
    with pytest.raises(TooFewPoints):
        min_separation(WindowedSet([[1.0]], 2.0))


def test_min_separation_matches_bruteforce():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        pts = rng.uniform(-5, 5, size=(20, dim))
        S = WindowedSet(pts)
        assert abs(min_separation(S) - brute_min_sep(pts)) < 1e-12, seed


def test_nn_distances_match_bruteforce():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        pts = rng.uniform(-3, 3, size=(15, 2))
        S = WindowedSet(pts)
        got = S.nn_distances()
        for i, a in enumerate(S.points):
            d = min(
                float(np.linalg.norm(a - b))
                for j, b in enumerate(S.points)
                if j != i
            )
            assert abs(got[i] - d) < 1e-12, (seed, i)
