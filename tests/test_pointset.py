"""Container, ingestion, and elementary-metric tests.

Frozen values are hand-computed or brute-forced in line; random cases run
the O(n^2) oracle next to the library call.
"""

import gc
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

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
    IdealCrystalError,
    ParseError,
    TooFewPoints,
    WindowedSet,
    load_points,
    min_separation,
    serialize,
    window_restrict,
)
from idealcrystal.pointset import (
    _MAX_DEPTH,
    _ROWS_BLOCK,
    TOL_EQ,
    _BLOCK_ROWS,
    _canonical_order,
    _json_blocks,
    _json_rows,
    _nesting_depth,
    _row_norms,
)

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


def _rotated_window(p=3, m=3, seed=0):
    """A rotated grid: no two points share a first coordinate but the
    origin's neighbours, none within tol_eq of another."""
    q = np.linalg.qr(np.random.default_rng(seed).normal(size=(p, p)))[0]
    return _grid(np.arange(-m, m + 1.0), p) @ q


def _no_tree(*args, **kwargs):
    raise AssertionError("the duplicate check built a tree")


def _duplicate_slack(pts):
    """The slack of _has_duplicate for a window of these points."""
    p = pts.shape[1]
    rounding = 4 * (p + 1) * np.finfo(np.float64).eps
    return TOL_EQ * (1 + 1e-9) + rounding * np.linalg.norm(pts, axis=1).max()


@pytest.mark.parametrize("step", [
    [0.6, 0.5, -0.3],  # first coordinates 0.6 tol_eq apart
    [0.0, 0.0, 0.9],  # equal first coordinates
], ids=["apart", "equal"])
def test_duplicate_pair_in_a_rotated_grid_is_refused(step):
    pts = _rotated_window()
    with pytest.raises(DuplicatePoint):
        WindowedSet(np.vstack([pts, pts[7] + TOL_EQ * np.array(step)]))


def test_pair_past_the_slack_of_the_first_coordinates_is_accepted(
        monkeypatch):
    # the planted pair's first coordinates lie just past the slack, so the
    # first gap read ends the check: no tree, although a second pair,
    # 10 tol_eq apart orthogonally to the sweep direction, has equal
    # projections and would send the sweep to one
    pts = _rotated_window()
    u = _sweep_direction(3)
    w = np.cross(u, [0.0, 0.0, 1.0])
    w *= 10 * TOL_EQ / np.linalg.norm(w)
    step = 1.001 * _duplicate_slack(pts)
    pts = np.vstack([pts, pts[7] + [step, 0.0, 0.0], pts[20] + w])
    monkeypatch.setattr("idealcrystal.pointset.cKDTree", _no_tree)
    S = WindowedSet(pts)
    assert len(S) == len(pts)


@pytest.mark.parametrize("past", [1.001, 1.5])
def test_pair_past_the_slack_of_the_projections_is_accepted(monkeypatch,
                                                           past):
    # equal first coordinates send the pair to the projection sweep; its
    # projections lie just past the slack, so no tree is built
    pts = _rotated_window()
    u = _sweep_direction(3)
    d = np.array([0.0, u[1], u[2]])
    d /= np.linalg.norm(d)
    step = past * _duplicate_slack(pts) / float(d @ u)
    pts = np.vstack([pts, pts[7] + step * d])
    with monkeypatch.context() as m:
        m.setattr("idealcrystal.pointset.cKDTree", _no_tree)
        S = WindowedSet(pts)
    assert min_separation(S) == pytest.approx(step, rel=1e-6)


def test_pair_just_past_tol_eq_with_equal_first_coordinates_is_accepted():
    # the projections lie within the slack, so the tree's bounded query
    # reads the pair's distance, 1.001 tol_eq
    pts = _rotated_window()
    pts = np.vstack([pts, pts[7] + [0.0, 0.0, 1.001 * TOL_EQ]])
    S = WindowedSet(pts)
    assert min_separation(S) == pytest.approx(1.001 * TOL_EQ, rel=1e-6)


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
    assert _canonical_order(arr).tolist() == [0, 1, 2]
    S = WindowedSet(arr, 4.0)
    assert arr.flags.writeable
    arr[0, 0] = 9.0
    assert S.points[0].tolist() == [-1.0, 0.0]


def _lexsort_order(pts):
    """Reference: np.lexsort with the first column as the primary key."""
    return np.lexsort(pts.T[::-1]) if len(pts) else np.zeros(0, np.intp)


def _grid(g, p):
    return np.stack(np.meshgrid(*[g] * p, indexing="ij"), -1).reshape(-1, p)


@st.composite
def _order_cases(draw):
    """Rows in p = 1 to 4: a rotated lattice (first coordinates all
    distinct but the origin's), an axis-aligned grid (whole slabs share a
    first coordinate) or small integers (ties in every column), with zeros
    turned to -0.0 at random, exact copies appended, in any row order."""
    p = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["rotated", "grid", "small"]))
    if kind == "small":
        pts = rng.integers(-2, 3, size=(draw(st.integers(0, 40)), p))
        pts = pts.astype(np.float64)
    else:
        pts = _grid(np.arange(-3.0, 4.0)[:2 * draw(st.integers(1, 3)) + 1], p)
        if kind == "rotated":
            pts = pts @ np.linalg.qr(rng.normal(size=(p, p)))[0]
    pts[(pts == 0) & (rng.random(pts.shape) < 0.5)] = -0.0
    if len(pts) and draw(st.booleans()):
        pts = np.vstack([pts, pts[rng.integers(0, len(pts), size=3)]])
    arrange = draw(st.sampled_from(["built", "shuffled", "canonical",
                                    "reversed"]))
    if arrange == "shuffled":
        pts = pts[rng.permutation(len(pts))]
    elif arrange == "canonical":
        pts = pts[_lexsort_order(pts)]
    elif arrange == "reversed":
        pts = pts[_lexsort_order(pts)[::-1]]
    return pts


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_order_cases())
def test_canonical_order_matches_lexsort(pts):
    # the permutation itself, not only the sorted rows: rows that tie on
    # every coordinate (copies, -0.0 beside 0.0) must keep input order
    order = _canonical_order(pts)
    assert order.dtype == np.intp
    assert order.tolist() == _lexsort_order(pts).tolist()


def test_nonfinite_radius_rejected():
    for r in (np.nan, np.inf, -10**400):
        with pytest.raises(ConfigError, match="radius must be finite"):
            WindowedSet([[1.0]], r)


def test_window_checks_label_and_radius_types():
    with pytest.raises(ConfigError, match="label must be a string"):
        WindowedSet([[1.0]], label=None)
    for radius in ("5", True, np.bool_(True), [5.0]):
        with pytest.raises(ConfigError, match="radius must be a real number"):
            WindowedSet([[1.0]], radius=radius)
    for radius in (5, 5.0, np.float64(5.0), np.int32(5), 10**20):
        assert WindowedSet([[1.0]], radius=radius).radius == float(radius)


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
    assert T.label == S.label


@pytest.mark.parametrize("text, label", [
    ('# label: "demo"\n0.0,0.0\n0.5,0.25\n', "demo"),
    ('# x\n  # label: "a\\u2028b\\ud800"\n0.0\n', "a\u2028b\ud800"),
    ('# label: "a"\n# label: "b"\n0.0\n', "b"),
    ('0.0\n# label: "late"\n1.0\n', ""),
    ("# label: demo\n0.0\n", ""),
    ('# label: "a" "b"\n0.0\n', ""),
    ('# label: "unclosed\n0.0\n', ""),
    ('# label:"tight"\n0.0\n', ""),
], ids=["written", "escaped", "last-wins", "after-a-row", "not-json",
        "two-strings", "unclosed", "no-space"])
def test_csv_label_comment_before_the_first_row_sets_the_label(text, label):
    assert load_points(text, "csv").label == label


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


@pytest.mark.parametrize("p", range(1, 10))
def test_row_norms_match_numpy_past_the_square_range(p):
    # every seventh row is past 1e154, where the squares overflow: both
    # sums read inf there, and the window scales those rows alone
    rng = np.random.default_rng(40 + p)
    v = rng.normal(size=(400, p)) * 10.0 ** rng.uniform(-6, 6, (400, p))
    v[::7] = rng.normal(size=(len(v[::7]), p)) * 1e160
    with np.errstate(over="ignore"):
        want = np.linalg.norm(v, axis=1)
        assert _row_norms(v).tobytes() == want.tobytes()
        assert np.isinf(want).sum() == len(v[::7])
        S = WindowedSet(v)
        want = np.linalg.norm(S.points, axis=1)
    big = np.isinf(want)
    top = np.abs(S.points[big]).max(axis=1)
    want[big] = top * np.linalg.norm(S.points[big] / top[:, None], axis=1)
    assert S.norms().tobytes() == want.tobytes()


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


def _reference_text(S, fmt, metadata=None):
    """The per-coordinate rendering the array one replaced: ``repr`` of
    every coordinate, through ``json.dumps`` or joined by commas."""
    if fmt == "json":
        obj = {
            "dim": S.dim,
            "radius": S.radius,
            "label": S.label,
            "points": [[float(c) for c in row] for row in S.points],
        }
        if metadata:
            obj["generator"] = metadata
        return json.dumps(obj) + "\n"
    out = ""
    if S.label:
        out += f"# label: {json.dumps(S.label)}\n"
    if metadata:
        out += f"# generator: {json.dumps(metadata, sort_keys=True)}\n"
    for row in S.points:
        out += ",".join(repr(float(c)) for c in row) + "\n"
    return out


_METADATA = {"kind": "crystal", "seed": 3, "basis": [[1.0, 0.0], [0.3, 1.1]],
             "eps": 1e-20, "big": 2**70, "1": "\u2028"}


def test_json_rendering_matches_per_coordinate_reference():
    # the bytes that `generate` writes and the benchmark parses must not move
    # 1e150 is the large-magnitude case
    rng = np.random.default_rng(11)
    pts = np.concatenate([
        [[-0.0, 5e-324], [1e150, 0.0], [3.0, -7.0], [1e16, 2.0],
         [0.1 + 0.2, 1 / 3], [np.nextafter(1.0, 2.0), -1.2345678901234567]],
        rng.normal(size=(40, 2)) * 10.0,
    ])
    for label in ("reference", "\ud800"):
        S = WindowedSet(pts, 2e150, label=label)
        for metadata in (None, _METADATA):
            text = serialize(S, "json", metadata)
            assert "[-0.0, 5e-324]" in text
            assert text == _reference_text(S, "json", metadata)
            text = serialize(S, "csv", metadata)
            assert "\n-0.0,5e-324\n" in text
            assert text == _reference_text(S, "csv", metadata)


#: Coordinates at the edges of the notations: both sides of 1e-4 and 1e16,
#: where ``repr`` switches to exponent notation, and the extremes.
_EDGE_VALUES = [0.0, -0.0, 5e-324, 1.7976931348623157e308,
                -1.7976931348623157e308, 1e-5, 1e22, 1e-300]
for _x in (1e-4, 1e16):
    _EDGE_VALUES += [_x, np.nextafter(_x, 0.0), np.nextafter(_x, np.inf)]
_EDGE_VALUES += [-x for x in _EDGE_VALUES]


def _bits_to_float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# any finite double, one on a notation edge, or one in [1e-4, 1e16)
_wild = st.one_of(
    st.integers(0, 2**64 - 1).map(_bits_to_float).filter(np.isfinite),
    st.sampled_from(_EDGE_VALUES),
)
_tame = st.one_of(
    st.floats(1e-4, 1e16, exclude_max=True),
    st.floats(-1e16, -1e-4, exclude_min=True),
    st.sampled_from([0.0, -0.0]),
)


@st.composite
def _bit_pattern_rows(draw):
    """(p, rows): rows of a window in p = 1 to 4 dimensions; each row is
    drawn wild (any double, the edges) or tame (fixed notation)."""
    p = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.booleans(), max_size=60))
    return p, [draw(st.lists(_wild if wild else _tame, min_size=p, max_size=p))
               for wild in kinds]


_huge, _tiny = 1.7976931348623157e308, np.nextafter(1e-4, 0.0)


@settings(max_examples=200, deadline=None, database=None)
@given(_bit_pattern_rows(), st.sampled_from(["", "x", "\ud800"]),
       st.sampled_from([None, _METADATA]))
@example((2, []), "", None)
@example((1, [[1e16], [1.0], [2.5], [1e-5]]), "x", None)
@example((3, [[1.0, 2.0, 3.0], [5e-324, 0.0, -0.0], [_tiny, 1e4, 1.0],
              [4.0, 5.0, 6.0]]), "x", _METADATA)
@example((2, [[_huge, 0.0], [-_huge, 1e-5], [1e-300, 1e300]]), "", None)
@example((4, [[1.5, 0.0, -0.0, 1e-4]] * 3 + [[0.0, 0.0, 0.0, _tiny]]
          + [[2.5, 1e15, 9.0, 7.0]] * 2 + [[1e16, 1.0, 1.0, 1.0]]), "", None)
def test_rendering_matches_repr_on_float64_bit_patterns(window, label, metadata):
    # the window is built trusted, so the drawn row order (odd rows first,
    # last, adjacent) is the one rendered and copies may repeat
    p, rows = window
    pts = np.array(rows, dtype=np.float64).reshape(-1, p)
    # a row whose norm is past the float range has no finite radius; a
    # quarter of it has
    with np.errstate(over="ignore"):
        pts[np.isinf(np.hypot.reduce(pts, axis=1))] /= 4
    S = WindowedSet(pts, label=label, _trusted=True)
    for fmt in ("json", "csv"):
        assert serialize(S, fmt, metadata) == _reference_text(S, fmt, metadata)


def _block_rows(n, p, odd_at, seed):
    """n rows of p ordinary coordinates with an odd-notation coordinate
    (below 1e-4 or from 1e16 on, alternately) in the rows odd_at."""
    rows = np.random.default_rng(seed).normal(size=(n, p)) * 100.0
    for k, i in enumerate(odd_at):
        rows[i, k % p] = (3e-7, -1.5e17)[k % 2]
    return rows


_B = _BLOCK_ROWS
_N = 2 * _B + 907


def _assert_same_text(got, want):
    """got == want, naming the first difference (a diff of two texts of
    megabytes would take minutes)."""
    if got != want:
        i = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        raise AssertionError(f"texts differ at {i}: {got[i - 40:i + 40]!r} "
                             f"!= {want[i - 40:i + 40]!r}")


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("odd_at", [
    [],
    [0, _N - 1],
    [_B - 1, _B, 2 * _B],
    [0, *range(_B - 3, _B + 3), 2 * _B - 1, _N - 1],
    range(_B - 2, _N),
    range(_N),
], ids=["none", "first-last", "boundaries", "runs", "tail", "all"])
def test_rendering_across_blocks_matches_repr(p, odd_at):
    # more than two blocks, odd-notation rows on and around block
    # boundaries, alone, in runs that cross them and in the whole window
    S = WindowedSet(_block_rows(_N, p, odd_at, p), label="x",
                    _trusted=True)
    for fmt in ("json", "csv"):
        _assert_same_text(serialize(S, fmt), _reference_text(S, fmt))


@pytest.mark.parametrize("n", [_B - 1, _B, _B + 1, 2 * _B])
def test_rendering_at_whole_blocks_matches_repr(n):
    S = WindowedSet(_block_rows(n, 2, [0, n - 1], n), _trusted=True)
    for fmt in ("json", "csv"):
        _assert_same_text(serialize(S, fmt), _reference_text(S, fmt))


def test_rendering_the_empty_window():
    S = WindowedSet(np.zeros((0, 2)))
    assert serialize(S, "json") == _reference_text(S, "json")
    assert serialize(S, "csv") == _reference_text(S, "csv") == ""
    S = WindowedSet(np.zeros((0, 2)), label="x")
    assert serialize(S, "csv", _METADATA) == _reference_text(S, "csv",
                                                            _METADATA)


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
        '{"dim": %d, "points": [[1.0]]}' % 2**64,
        '{"radius": "5", "points": [[1.0]]}',
        '{"radius": true, "points": [[1.0]]}',
        '{"radius": %d, "points": [[1.0]]}' % 10**400,
        '{"label": null, "points": [[1.0]]}',
        '{"label": ["x"], "points": [[1.0]]}',
    ],
    ids=["radius-string", "radius-list", "400-digit-int", "4400-digit-int",
         "deep-nesting", "radius-nan", "radius-infinity", "dim-string",
         "dim-bool", "dim-zero", "dim-float", "dim-2^64",
         "radius-numeric-string", "radius-bool", "radius-past-float",
         "label-null", "label-list"],
)
def test_json_bad_input_is_parse_error(text):
    with pytest.raises(ParseError):
        load_points(text, "json")


# -- the JSON reader against the standard library's reading -----------------


_TOO_DEEP = f"JSON nested deeper than {_MAX_DEPTH} levels"


def _stdlib_outcome(text):
    """The window json.loads and _json_rows make of a document under the
    file format's rules, or the (type, message) of the error, as
    load_points reports them."""
    try:
        try:
            # every value of an object counts, a repeated key's too
            values = json.loads(
                text, object_pairs_hook=lambda pairs: [v for _, v in pairs])
        except RecursionError:  # deeper than the stack, so past the limit
            raise ParseError(_TOO_DEEP)
        except ValueError as e:
            raise ParseError(f"invalid JSON: {e}")
        if _depth_of(values) > _MAX_DEPTH:
            raise ParseError(_TOO_DEEP)
        obj = json.loads(text)
        if not isinstance(obj, dict) or "points" not in obj:
            raise ParseError(
                "JSON point set must be an object with a 'points' key")
        raw = obj["points"]
        if not isinstance(raw, list):
            raise ParseError("'points' must be a list of coordinate rows")
        dim = obj.get("dim")
        if dim is not None and (
            isinstance(dim, bool) or not isinstance(dim, int)
            or not 1 <= dim < 2**63
        ):
            raise ParseError("'dim' must be an integer from 1 to 2**63 - 1")
        pts = _json_rows(raw, dim)
        return WindowedSet(pts, obj.get("radius"), obj.get("label", ""))
    except ConfigError as e:
        return ParseError, str(e)
    except IdealCrystalError as e:
        return type(e), str(e)


def _reader_outcome(text):
    try:
        return load_points(text, "json")
    except IdealCrystalError as e:
        return type(e), str(e)


def _assert_same_outcome(text):
    # at the default block size, and at one that cuts after every row, so
    # that small documents span many blocks
    want = _stdlib_outcome(text)
    for block in (_ROWS_BLOCK, 1):
        with mock.patch("idealcrystal.pointset._ROWS_BLOCK", block):
            got = _reader_outcome(text)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert isinstance(got, WindowedSet), got
            assert got.points.tobytes() == want.points.tobytes()
            assert got.points.shape == want.points.shape
            assert (struct.pack("<d", got.radius)
                    == struct.pack("<d", want.radius))
            assert got.label == want.label


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                -1.7976931348623157e308]
_EDGE_INTS = [2**53 - 1, 2**53 + 1, 2**63 - 1, 2**63 + 1, 2**64 - 1,
              2**64 + 1, 2**70, int("7" * 400), 0, 1, 3]
_EDGE_INTS += [-n for n in _EDGE_INTS]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3).flatmap(lambda p: st.lists(
    st.lists(st.sampled_from(_EDGE_INTS + _EDGE_FLOATS + [True, False]),
             min_size=p, max_size=p), min_size=1, max_size=4)),
    st.booleans())
@example([[2**64 - 1, -1]], False)
@example([[True, 2**64 - 1], [2**63 + 1, False]], True)
@example([[-(2**63) - 1, 2**64 - 1]], False)
@example([[int("7" * 400), 1.0]], True)
def test_row_scan_matches_numpy_conversion(raw, with_dim):
    # the row scan converts the rows of the whole-document reading: a
    # rectangular list of numbers gives the bits numpy's conversion gives
    dim = len(raw[0]) if with_dim else None
    try:
        want = np.array(raw).astype(np.float64)
    except OverflowError:  # an integer past the float range
        with pytest.raises(ParseError, match="beyond the float range"):
            _json_rows(raw, dim)
        return
    got = _json_rows(raw, dim)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _float_of_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _float_text(x, form):
    if form == "repr" or not np.isfinite(x):
        return json.dumps(x)  # NaN, Infinity and -Infinity as json writes them
    return format(x, form)


def _one_in(n):
    return st.integers(1, n).map(lambda k: k == 1)


@st.composite
def _coordinate(draw):
    kind = draw(st.integers(0, 9))
    if kind < 7:
        if kind < 3:
            x = draw(st.integers(0, 2**64 - 1).map(_float_of_bits))
        elif kind < 6:  # distinct points more often than tiny bit patterns
            x = draw(st.floats(-100.0, 100.0))
        else:
            x = draw(st.sampled_from(_EDGE_FLOATS))
        return _float_text(x, draw(st.sampled_from(
            ["repr", ".3e", ".25e", ".30f"])))
    if kind < 9:
        return str(draw(st.sampled_from(_EDGE_INTS)))
    return draw(st.sampled_from(["true", "false"]))


_label = st.one_of(
    st.builds(json.dumps, st.text(max_size=8), ensure_ascii=st.booleans()),
    st.sampled_from([
        r'"a\"b\\c\n\té\/"', '"é漢字 \U0001f600"',
        r'"\ud800"', '"\ud800"', r'"\udfff\ud800x"', '"[{"',
        "null", "7", str(2**64 + 1), str(-(2**63) - 1), "[1, [2]]",
        '{"k": %d}' % 2**70,
    ]),
)
_scalar = st.one_of(
    _coordinate(),
    st.sampled_from(["null", '"1.5"', '"x"', "NaN", "-Infinity", "1e400"]),
)


def _nested(depth, brackets):
    opening, closing = brackets
    return opening * depth + "1" + closing * depth


_deep = st.builds(_nested, st.sampled_from([1, 30, 31, 32, 1100, 100_000]),
                  st.sampled_from([("[", "]"), ('{"a": ', "}")]))
_value = st.one_of(_scalar, _deep, _label)


@st.composite
def _json_documents(draw):
    """JSON point files, most of them valid windows, with the numbers,
    labels, repeated keys and nesting where orjson and json part ways."""
    dim = draw(st.integers(1, 3))
    rows = ["[%s]" % ", ".join(draw(_coordinate()) for _ in range(dim))
            for _ in range(draw(st.integers(1, 5)))]
    if draw(_one_in(4)):  # a ragged, scalar or nested row
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.one_of(
            _coordinate(), _deep,
            st.just("[%s]" % ", ".join(["1"] * (dim + 1)))))
    pairs = [("points", "[%s]" % ", ".join(rows))]
    if draw(st.booleans()):
        pairs.append(("label", draw(_label)))
    if draw(_one_in(3)):
        pairs.append(("radius", draw(st.one_of(_scalar, _deep))))
    if draw(st.booleans()):
        pairs.append(("dim", str(dim) if not draw(_one_in(4)) else draw(
            st.one_of(_scalar, st.sampled_from([str(2**64), "2.0"])))))
    if draw(st.booleans()):
        pairs.append(("generator", draw(_value)))
    for _ in range(draw(st.integers(0, 2))):  # a key given twice
        key = draw(st.sampled_from([k for k, _ in pairs] + ["extra"]))
        pairs.insert(0, (key, draw(_value)))
    return "{%s}" % ", ".join(f"{json.dumps(k)}: {v}" for k, v in pairs)


_LAYOUT_DOC = {"dim": 2, "radius": 9.5, "label": "layout",
               "points": [[1.0, -2.5], [3, 4e-7], [-0.0, 5.25], [7.5, 1e16]],
               "generator": {"basis": [[1.0, 0.0], [0.0, 1.0]]}}
_COMPACT = json.dumps(_LAYOUT_DOC, separators=(",", ":"))
_INDENTED = json.dumps(_LAYOUT_DOC, indent=2)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_json_documents())
@example('{"points": [[1.0, -0.0], [5e-324, 2.5]], "label": "x"}')
@example('{"points": [[%d, 1.5]], "dim": %d}' % (2**64 + 1, 2**64))
@example('{"label": %d, "points": [[1.0]]}' % 2**64)
@example('{"x": %s, "x": 1, "points": [[1.0]]}' % _nested(100_000, ("[", "]")))
@example('{"points": [[1.0]], "x": %s}' % _nested(100_000, ('{"a": ', "}")))
@example('{"points": [[1.0]], "label": "\\ud800"}')
@example('{"points": [[NaN]], "radius": Infinity}')
@example('{"points": [[1.0]], "label": null, "radius": %d}' % 10**400)
@example('{"x": %s, "x": 1, "points": [[1.0]]}' % _nested(32, ("[", "]")))
@example('{"points": [[1.0]], "x": %s}' % _nested(31, ('{"a": ', "}")))
@example(_COMPACT)
@example(_INDENTED)
@example('{"points": [[1.0], [2.5]], "generator": {"b": [[1], [2]], "s": "]], "}}')
@example('{"points": [[1.0], [2.5]], "generator": [[[1], [2]]]}')
@example('{"g": {"points": [[9.0], [8.0]]}, "points": [[1.0], [2.5]]}')
@example('{"points": [[9.0], [8.0]], "points": [[1.0], [2.5]]}')
@example('{"g": {"points": [[9.0], [8.0]]}, "points": 0}')
@example('{"points": [[1.0], [2.5]], "x": {"points": [[9.0]]}}')
@example('{"x": %s, "points": [[1.0], [2.5]]}' % _nested(300_000, ("[", "]")))
@example('{"points": [[1.0], [2.5]], "x": %s}' % _nested(300_000, ('{"a": ', "}")))
@example('{"points": [[1.0, 2.0], [3.0, 4.0], [5.0]]}')
@example('{"points": [[1.0, 2.0], [3.0, 4.0], [5.0, NaN]]}')
@example('{"points": [[1.0, 2.0], [3.0, 4.0], [5.0, null]], "dim": 2}')
@example('{"points": [[1.0], [2.0], [[3.0]]]}')
@example('{"points": [[1.0], [2.0]] , "dim": 1\f}')
@example('{"points": [[1.0], [2.0]\f]}')
@example('{"points": [], "generator": [[1.0], [2.0]]}')
@example('{"points": [[], []], "dim": 0}')
@example('{"points": [[1, 2], [3, 4]], "dim": 2.0}')
@example('{"points": [[true, 2], [3, %d]], "dim": true}' % (2**64 - 1))
def test_json_reader_matches_the_standard_library(text):
    # the same window bit for bit, or the same error type and message
    _assert_same_outcome(text)


@pytest.mark.parametrize("brackets", [("[", "]"), ('{"a": ', "}")],
                         ids=["lists", "objects"])
def test_json_deep_nesting_is_refused_not_crashed(brackets):
    # json.loads would refuse 3e5 levels with a RecursionError; the file
    # format's limit refuses them, and far fewer, before it reads any
    text = '{"points": [[1.0]], "x": %s}' % _nested(300_000, brackets)
    with pytest.raises(ParseError, match=f"^{_TOO_DEEP}$"):
        load_points(text, "json")


def test_json_invalid_deep_document_is_refused_not_crashed():
    # the stray quote hides the nesting from the scan, and json.loads
    # refuses the text at the x, before it descends into the nesting
    text = '[1, "a", x" %s]' % _nested(300_000, ("[", "]"))
    with pytest.raises(ParseError, match="invalid JSON"):
        load_points(text, "json")


def _depth_of(value):
    # level by level, so no nesting the parser took can exhaust the stack
    depth, level = 0, [value]
    while level := [x for x in level if isinstance(x, (list, dict))]:
        depth += 1
        level = [v for x in level
                 for v in (x.values() if isinstance(x, dict) else x)]
    return depth


_tricky_text = st.text(alphabet='[]{}"\\a\n\u00e9', max_size=6)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | _tricky_text,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_tricky_text, inner, max_size=3),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_json_values, st.booleans())
@example(["a" * (2**18 - 4) + '\\"]]}}', [[1]]], True)
@example({"x": ']]]\\' * 3, "y": [{"z": "[[[\\\\"}]}, False)
def test_nesting_depth_counts_brackets_outside_strings(value, ascii_only):
    text = json.dumps(value, ensure_ascii=ascii_only)
    assert _nesting_depth(text) == _depth_of(value)


def test_json_reader_matches_the_standard_library_on_files():
    rng = np.random.default_rng(5)
    S = WindowedSet(rng.normal(size=(2000, 3)) * 10.0, 100.0, label="files")
    for meta in (None, {"seed": 3, "basis": [[1.0, 0.0], [0.0, 1.0]]}):
        text = serialize(S, "json", metadata=meta)
        _assert_same_outcome(text)
        assert load_points(text, "json").equals(S)


@pytest.mark.parametrize("layout", ["serialize", "compact", "indented",
                                    "surrogate-label", "nan-record"])
def test_block_reader_takes_the_written_layouts(layout):
    # serialize's output and json.dumps' two layouts, with a generator
    # record holding "]]" and "]," after the points, are read in blocks,
    # not by the whole-document fallback; so is serialize's output with a
    # lone surrogate label or a NaN in the record, which only json reads
    rng = np.random.default_rng(11)
    label = "\ud800" if layout == "surrogate-label" else "blocks"
    S = WindowedSet(rng.normal(size=(3000, 3)) * 10.0, 100.0, label=label)
    record = ({"x": float("nan")} if layout == "nan-record"
              else {"basis": [[1.0, 0.0], [0.0, 1.0]]})
    text = serialize(S, "json", metadata=record)
    if layout in ("compact", "indented"):
        doc = json.loads(text)
        text = (json.dumps(doc, separators=(",", ":")) if layout == "compact"
                else json.dumps(doc, indent=2))
    assert len(text) > 4 * _ROWS_BLOCK
    for block in (_ROWS_BLOCK, 1):
        with mock.patch("idealcrystal.pointset._ROWS_BLOCK", block):
            fields = _json_blocks(text)
        assert fields is not None
        assert WindowedSet(*fields).equals(S)


@pytest.mark.parametrize("row, error", [
    ("[1.0, 2.0]", DimensionMismatch), ("[NaN, 1.0, 2.0]", ParseError),
    ("[1.0, null, 2.0]", ParseError), ('[1.0, "2", 3.0]', ParseError),
    ("[[1.0], 2.0, 3.0]", ParseError),
], ids=["ragged", "nan", "null", "string", "nested"])
def test_bad_row_in_a_later_block_goes_to_the_whole_document(row, error):
    rng = np.random.default_rng(12)
    S = WindowedSet(rng.normal(size=(3000, 3)) * 10.0, 100.0)
    text = serialize(S, "json")
    cut = text.rindex("], [") + 3
    text = text[:cut] + row + text[text.index("]", cut) + 1:]
    assert cut > 4 * _ROWS_BLOCK
    assert _json_blocks(text) is None
    with pytest.raises(error) as exc:
        load_points(text, "json")
    assert type(exc.value) is error
    _assert_same_outcome(text)


def test_json_lone_surrogate_label_roundtrips():
    S = WindowedSet([[0.5, -1.25], [2.0, 2.0]], 4.0, label="\ud800")
    T = load_points(serialize(S, "json"), "json")
    assert S.equals(T)
    assert T.label == "\ud800"


@settings(max_examples=5, deadline=None, database=None)
@given(st.sampled_from([_MAX_DEPTH - 1, 40]))
@example(_MAX_DEPTH - 1)
@example(40)
def test_json_nesting_limit_does_not_depend_on_the_stack(depth):
    # hypothesis raises the recursion limit while a test runs, under which
    # json.loads reads nesting a plain process refuses; the limit is the
    # file format's, so both see the same outcome (tests/test_cli.py runs
    # these documents through a fresh process)
    text = '{"points": [[1.0]], "generator": %s}' % _nested(depth, ("[", "]"))
    if depth < _MAX_DEPTH:  # the document is _MAX_DEPTH deep
        assert load_points(text, "json").equals(WindowedSet([[1.0]]))
    else:
        with pytest.raises(ParseError, match=f"^{_TOO_DEEP}$"):
            load_points(text, "json")


def test_unknown_format():
    with pytest.raises(ConfigError):
        load_points("1.0\n", "xml")
    with pytest.raises(ConfigError):
        serialize(WindowedSet([[1.0]]), "xml")


# -- the cyclic garbage collector during i/o ---------------------------------


@pytest.fixture
def gc_state():
    """Sets the collector's state for the test; restores it afterwards."""
    def set_state(enabled):
        if enabled:
            gc.enable()
        else:
            gc.disable()

    was = gc.isenabled()
    yield set_state
    set_state(was)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("fmt,text,error", [
    ("csv", "1.0,2.0\n3.0,4.0\n", None),
    ("csv", "1.0,2.0\n3.0,x\n", ParseError),
    ("csv", "1.0,2.0\n3.0\n", DimensionMismatch),
    ("json", '{"points": [[1.0, 2.0], [3.0, 4.0]]}', None),
    ("json", '{"points": [[1.0, 2.0], [3.0, "x"]]}', ParseError),
    ("json", '{"points": [[1.0, 2.0], [3.0]]}', DimensionMismatch),
    ("json", '{"points": [[1.0, 2.0], [1.0, 2.0]]}', DuplicatePoint),
], ids=["csv", "csv-malformed", "csv-ragged", "json", "json-non-number",
        "json-ragged", "json-duplicate"])
def test_load_restores_the_collector_state(gc_state, enabled, fmt, text, error):
    gc_state(enabled)
    if error is None:
        assert len(load_points(text, fmt)) == 2
    else:
        with pytest.raises(error) as exc:
            load_points(text, fmt)
        assert type(exc.value) is error
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_serialize_restores_the_collector_state(gc_state, enabled, fmt):
    gc_state(enabled)
    S = WindowedSet([[1.0, 2.0], [3.0, 4.0]], label="x")
    assert load_points(serialize(S, fmt, {"seed": 1}), fmt).points.tolist() \
        == S.points.tolist()
    assert gc.isenabled() is enabled


def test_window_io_runs_no_collection(gc_state):
    # with the collector running, the 22,500 row lists would set off dozens
    # of collections, some of them full scans of every tracked object; at
    # scale 0.5e-8 every row but the origin is written by the repr path
    g = np.arange(-75.0, 75.0)
    grid = np.stack(np.meshgrid(g, g), -1).reshape(-1, 2)
    for scale in (0.5, 0.5e-8):
        S = WindowedSet(grid * scale)
        assert len(S) >= 20_000
        gc_state(True)
        gc.collect()
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.callbacks.append(count)
        try:
            text = serialize(S, "json")
            back = load_points(text, "json")
            csv_back = load_points(serialize(S, "csv"), "csv")
        finally:
            gc.callbacks.remove(count)
        assert starts == [], scale
        assert back.equals(S)
        assert np.array_equal(csv_back.points, S.points)


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
