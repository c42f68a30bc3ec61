"""Point-set container, file ingestion, and elementary metrics.

Everything downstream operates on finite windows: a set of points known to
be the restriction of some larger point set to the ball ``|x| <= radius``
about the origin. The container is immutable, keeps its points in
canonical lexicographic order (so every tie-break in the package is
deterministic), and builds its KD-tree (``tree``) only when a query asks
for one. Construction refuses two points within tol_eq by a sweep of the
points sorted along one direction, with a tree query only among the points
the sweep cannot separate; the nearest-neighbour distance of every point
(``nn_distances``, behind ``min_separation``) is computed only when asked
for. Input already in canonical order (as ``serialize`` writes it) is
copied, not re-sorted; a non-finite radius is refused.

JSON point lists are parsed column-wise: one numpy conversion takes a
well-formed list, and only a list it cannot take is scanned row by row,
to name the first bad row.
"""

from __future__ import annotations

import io
import json
from typing import IO, Union

import numpy as np
from scipy.spatial import cKDTree

from ._util import query_workers
from .errors import (
    ConfigError,
    DimensionMismatch,
    DuplicatePoint,
    EmptyWindow,
    ParseError,
    TooFewPoints,
)

#: Two points closer than this (model units) are treated as the same point.
TOL_EQ = 1e-9


def _canonical_order(pts: np.ndarray) -> np.ndarray:
    """Indices sorting rows lexicographically (first coordinate primary)."""
    if len(pts) == 0:
        return np.zeros(0, dtype=np.intp)
    keys = tuple(pts[:, k] for k in range(pts.shape[1] - 1, -1, -1))
    return np.lexsort(keys)


def _in_canonical_order(pts: np.ndarray) -> bool:
    """Whether consecutive rows are already lexicographically non-decreasing,
    so the stable sort of ``_canonical_order`` would leave them in place."""
    if len(pts) < 2:
        return True
    a, b = pts[:-1], pts[1:]
    differs = a != b
    first = differs.argmax(axis=1)
    rows = np.arange(len(a))
    return bool(np.all(~differs[rows, first] | (a[rows, first] < b[rows, first])))


class WindowedSet:
    """Finite point set in R^p restricted to a ball about the origin.

    Parameters
    ----------
    points : array-like, shape (n, p)
        Coordinates. One-dimensional input is treated as n points in R^1.
    radius : float, optional
        Window radius, finite and non-negative. Defaults to ``max |a|``
        over the points.
    label : str
        Free-form provenance string, carried through restriction and
        serialization.

    The points are stored in canonical lexicographic order, in an array
    the container owns: input already in that order is copied, other
    input is sorted. The caller's array is never aliased or frozen.
    Two points closer than tol_eq raise DuplicatePoint; the check costs
    one sort of the points along a fixed direction, in O(n) memory, and
    builds neither a tree over the whole window nor a nearest-neighbour
    table unless the points crowd together along that direction.
    """

    def __init__(self, points, radius=None, label: str = "", *, _trusted=False):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2:
            raise ConfigError("points must have shape (n, p)")
        if pts.shape[0] and pts.shape[1] < 1:
            raise ConfigError("dimension must be at least 1")
        if pts.size and not np.all(np.isfinite(pts)):
            raise ParseError("coordinates must be finite (no NaN or infinity)")

        if not _trusted:
            pts = pts.copy() if _in_canonical_order(pts) else pts[_canonical_order(pts)]
        pts = np.ascontiguousarray(pts)
        pts.flags.writeable = False
        self.points = pts
        self.dim = int(pts.shape[1]) if pts.shape[0] else max(int(pts.shape[1]), 1)
        self.label = str(label)

        with np.errstate(over="ignore"):  # inf fails the radius check
            norms = np.linalg.norm(pts, axis=1) if len(pts) else np.zeros(0)
            # squares past the float range: such a row alone is scaled by
            # its largest coordinate, so no other norm changes a bit
            big = np.flatnonzero(np.isinf(norms))
            if len(big):
                top = np.abs(pts[big]).max(axis=1)
                norms[big] = top * np.linalg.norm(pts[big] / top[:, None],
                                                  axis=1)
        norms.flags.writeable = False
        self._norms = norms

        if radius is None:
            radius = float(norms.max()) if len(pts) else 0.0
        radius = float(radius)
        if not np.isfinite(radius):
            raise ConfigError(f"radius must be finite, got {radius:g}")
        if radius < 0:
            raise ConfigError("radius must be non-negative")
        if len(pts) and norms.max() > radius + TOL_EQ:
            raise ConfigError(
                f"point with |a| = {norms.max():g} exceeds window radius {radius:g}"
            )
        self.radius = radius

        self._tree = None
        self._nn = None
        if not _trusted and len(pts) >= 2 and self._has_duplicate():
            raise DuplicatePoint(
                "two points coincide within tol_eq = %g" % TOL_EQ
            )

    def _has_duplicate(self) -> bool:
        """Whether two points lie closer than tol_eq.

        Exact copies are adjacent rows in canonical order and are found
        first: the tree cannot split copies apart, so a query among m of
        them would scan all m once per copy. The rest are projected on the
        unit vector u along (sqrt 2, sqrt 3, ..., sqrt(p + 1)), whose
        components are rationally independent, so no integer vector
        projects to zero and an axis-aligned grid, whose rows share whole
        slabs of coordinates, spreads out along u. Two points closer than tol_eq are closer than
        tol_eq along u, so every gap between consecutive projections from
        one to the other is at most tol_eq, plus the rounding of the
        projections (a few ulps of max |a|). Only the points next to such a
        gap go into a tree, with one query bounded at tol_eq: a pair that
        query finds has the distance the unbounded query of nn_distances
        gives it, and a crystal usually leaves no point to query. However
        many points crowd together, memory stays O(n).
        """
        pts = self.points
        if np.all(pts[1:] == pts[:-1], axis=1).any():
            return True
        u = np.sqrt(np.arange(2.0, self.dim + 2.0))
        proj = pts @ (u / np.linalg.norm(u))
        order = np.argsort(proj)
        rounding = 4 * (self.dim + 1) * np.finfo(np.float64).eps
        slack = TOL_EQ * (1 + 1e-9) + rounding * float(self._norms.max())
        close = np.diff(proj[order]) <= slack
        if not close.any():
            return False
        member = np.zeros(len(pts), dtype=bool)
        member[order[:-1][close]] = True
        member[order[1:][close]] = True
        chain = pts[member]
        d, _ = cKDTree(chain).query(
            chain, k=2, distance_upper_bound=TOL_EQ * (1 + 1e-9),
            workers=query_workers(),
        )
        return bool(d[:, 1].min() < TOL_EQ)

    # -- cached geometry ------------------------------------------------

    def tree(self) -> cKDTree:
        """KD-tree over the points, built on first use and then shared by
        every query that asks for it."""
        if self._tree is None:
            self._tree = cKDTree(self.points)
        return self._tree

    def nn_distances(self) -> np.ndarray:
        """Distance from each point to its nearest distinct neighbour."""
        if self._nn is None:
            if len(self.points) < 2:
                raise TooFewPoints("nearest-neighbour distances need >= 2 points")
            d, _ = self.tree().query(self.points, k=2, workers=query_workers())
            nn = d[:, 1].copy()
            nn.flags.writeable = False
            self._nn = nn
        return self._nn

    def norms(self) -> np.ndarray:
        return self._norms

    # -- conveniences ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return (
            f"WindowedSet(n={len(self)}, dim={self.dim}, "
            f"radius={self.radius:g}, label={self.label!r})"
        )

    def equals(self, other: "WindowedSet") -> bool:
        """Exact equality: same points bit-for-bit, radius, and label."""
        return (
            self.dim == other.dim
            and self.radius == other.radius
            and self.label == other.label
            and self.points.shape == other.points.shape
            and bool(np.array_equal(self.points, other.points))
        )


# -- ingestion and serialization ------------------------------------------


def _as_text(source: Union[bytes, str, IO]) -> str:
    """The text of a str, bytes or file source; bytes must be UTF-8."""
    if isinstance(source, str):
        return source
    try:
        data = source if isinstance(source, bytes) else source.read()
        return data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as e:
        raise ParseError(
            f"input is not UTF-8 text ({e.reason} at byte {e.start})"
        ) from None


def load_points(source, format: str = "csv") -> WindowedSet:
    """Parse a point-set file.

    CSV: one point per line, comma-separated decimals, ``#`` comments.
    The window radius is inferred as ``max |a|`` (CSV carries no metadata).
    JSON: object ``{"dim", "radius", "label", "points"}``; extra keys are
    ignored so generator metadata can ride along.
    """
    if format not in ("csv", "json"):
        raise ConfigError(f"unknown format {format!r} (expected 'csv' or 'json')")
    text = _as_text(source)
    try:
        return _load_csv(text) if format == "csv" else _load_json(text)
    except ConfigError as e:  # the window the text describes is invalid
        raise ParseError(str(e))


def _load_csv(text: str) -> WindowedSet:
    rows = []
    arity = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split(",")
        try:
            row = [float(f) for f in fields]
        except ValueError:
            raise ParseError(f"line {lineno}: malformed row {stripped!r}")
        if not all(np.isfinite(row)):
            raise ParseError(f"line {lineno}: non-finite coordinate")
        if arity is None:
            arity = len(row)
        elif len(row) != arity:
            raise DimensionMismatch(
                f"line {lineno}: expected {arity} coordinates, got {len(row)}"
            )
        rows.append(row)
    if not rows:
        raise ParseError("no data rows found")
    return WindowedSet(np.array(rows, dtype=np.float64))


def _load_json(text: str) -> WindowedSet:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as e:
        # JSONDecodeError, the interpreter's int-digit limit, deep nesting
        raise ParseError(f"invalid JSON: {e}")
    if not isinstance(obj, dict) or "points" not in obj:
        raise ParseError("JSON point set must be an object with a 'points' key")
    raw = obj["points"]
    if not isinstance(raw, list):
        raise ParseError("'points' must be a list of coordinate rows")
    dim = obj.get("dim")
    if dim is not None and (
        isinstance(dim, bool) or not isinstance(dim, int) or dim < 1
    ):
        raise ParseError("'dim' must be a positive integer")
    pts = _json_rows(raw, dim)
    radius = obj.get("radius")
    if radius is not None:
        try:
            radius = float(radius)
        except (TypeError, ValueError, OverflowError):
            raise ParseError("'radius' must be a number")
    return WindowedSet(pts, radius, str(obj.get("label", "")))


def _json_rows(raw: list, dim: int | None) -> np.ndarray:
    """The JSON point list as an (n, dim) float64 array.

    A rectangular list of numbers converts in one numpy call. Anything
    else (ragged or nested rows, non-numbers, integers numpy keeps as
    Python objects) is scanned row by row, which names the first bad row
    or converts each coordinate with ``float``.
    """
    try:
        arr = np.array(raw)
    except ValueError:  # ragged or too deeply nested
        arr = None
    if (arr is not None and arr.ndim == 2 and arr.dtype.kind in "biuf"
            and dim in (None, arr.shape[1])):
        return arr.astype(np.float64, copy=False)
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or not all(
            isinstance(c, (int, float)) for c in row
        ):
            raise ParseError(f"points[{i}] is not a numeric row")
        if dim is None:
            dim = len(row)
        if len(row) != dim:
            raise DimensionMismatch(
                f"points[{i}] has {len(row)} coordinates, expected {dim}"
            )
        try:
            rows.append([float(c) for c in row])
        except OverflowError:
            raise ParseError(f"points[{i}] has a coordinate beyond the float range")
    if not rows:
        raise ParseError("no points in JSON input")
    return np.array(rows, dtype=np.float64)


def serialize(S: WindowedSet, format: str = "csv", metadata: dict | None = None) -> str:
    """Render a point set back to text. ``load_points(serialize(S)) == S``
    (for CSV up to the inferred radius; JSON round-trips exactly).

    ``metadata`` is an optional JSON-serializable record stored under the
    ``"generator"`` key (JSON) or echoed as ``#`` comments (CSV).
    """
    if format == "csv":
        out = io.StringIO()
        if S.label:
            # escaped, so no line break in the label can start a data row
            out.write(f"# label: {json.dumps(S.label)}\n")
        if metadata:
            out.write(f"# generator: {json.dumps(metadata, sort_keys=True)}\n")
        for row in S.points:
            out.write(",".join(repr(float(c)) for c in row))
            out.write("\n")
        return out.getvalue()
    if format == "json":
        obj = {
            "dim": S.dim,
            "radius": S.radius,
            "label": S.label,
            "points": S.points.tolist(),
        }
        if metadata:
            obj["generator"] = metadata
        return json.dumps(obj) + "\n"
    raise ConfigError(f"unknown format {format!r} (expected 'csv' or 'json')")


# -- elementary operations --------------------------------------------------


def window_restrict(S: WindowedSet, r: float) -> WindowedSet:
    """The subset ``{a in S : |a| <= r}`` as a window of radius ``r``."""
    r = float(r)
    if not 0 < r <= S.radius + TOL_EQ:
        raise ConfigError(f"restriction radius {r:g} outside (0, {S.radius:g}]")
    mask = S.norms() <= r + TOL_EQ
    if not mask.any():
        raise EmptyWindow(f"no points with |a| <= {r:g}")
    return WindowedSet(S.points[mask], min(r, S.radius), S.label, _trusted=True)


def min_separation(S: WindowedSet) -> float:
    """Smallest distance between two distinct points of the window."""
    if len(S) < 2:
        raise TooFewPoints("min_separation needs at least 2 points")
    return float(S.nn_distances().min())
