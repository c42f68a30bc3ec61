"""Point-set container, file ingestion, and elementary metrics.

Everything downstream operates on finite windows: a set of points known to
be the restriction of some larger point set to the ball ``|x| <= radius``
about the origin. The container is immutable, keeps its points in
canonical lexicographic order (so every tie-break in the package is
deterministic), and builds its KD-tree (``tree``) only when a query asks
for one. Construction sorts the points by one stable argsort of the
first coordinate; only runs of tied first coordinates whose rows are out
of order on the others are sorted again (``_canonical_order``). It then
refuses two points within tol_eq by reading the gaps between the sorted
first coordinates; only the points next to a gap within tol_eq go on to a
sweep along one direction, and a tree query is made only among the points
that sweep cannot separate. The nearest-neighbour distance of every point
(``nn_distances``, behind ``min_separation``) is computed only when asked
for; a non-finite radius is refused.

JSON text is parsed by orjson, whose correctly rounded number parser
gives the floats the standard library's ``json`` gives, several times
faster. A point file as ``serialize`` or ``json.dumps`` writes it is read
in blocks (``_json_blocks``): the rows of the ``points`` list, about
``_ROWS_BLOCK`` characters at a time, each cut after a row's ``],``, go to
orjson and numpy one block at a time, so no Python object tree of the
whole list is ever built. orjson sees a block only once its brackets and
quotes are ``[]`` repeated: rows of scalars, two levels deep. Each block
must give a 2-D numeric array of the window's width. The text outside the
list is read twice, with ``0`` and then ``1`` in the list's place, and
``points`` must read 0 and then 1: so the blocks are exactly the value of
the last top-level ``points`` key, and the document is valid JSON, which
the whole-document reading turns into the same window. Any other document,
and any the block reader doubts, is read whole (``_json_document``), the
only reading that raises: a document nested deeper than ``_MAX_DEPTH`` is
refused before any parser sees it (measured on the text, as orjson's
recursion has no limit); one orjson refuses is read by ``json.loads``,
which also takes NaN, Infinity, integers past the float range and lone
surrogates. ``dim`` is an integer from 1 to 2**63 - 1; the label and the
radius are checked by ``WindowedSet`` alone, as a ``str`` and a real
number, so a document gives one window, or one error, whichever reading
takes it. The whole-document reading converts the point list with one
numpy call, and only a list it cannot take is scanned row by row, to name
the first bad row.

Both formats are written from one rendering of the rows
(``_render_rows``): orjson formats the float64 array in blocks of
``_BLOCK_ROWS`` rows, with no Python float per coordinate, in the shortest
round-trip digits that ``repr`` writes. It writes another notation only
for a coordinate with 0 < |x| < 1e-4 or |x| >= 1e16 (``0.00001`` and
``1e16`` for ``repr``'s ``1e-05`` and ``1e+16``), so the rows holding one
go through ``json.dumps`` instead, and the text is the one a
per-coordinate ``repr`` gives. Each block is cut to the format as bytes,
and the blocks are joined and decoded once.

Parsing (both formats) and the ``json.dumps`` rows of rendering run with
Python's cyclic garbage collector paused (``_util.gc_paused``). The
containers they build, a list of floats per row and the list and JSON
object that hold them, cannot form a reference cycle, so each collection
their allocations would set off scans the whole heap and frees nothing.
Reference counting still frees the lists, and the collector's previous
state, enabled or disabled, is restored on return and on every error.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from typing import IO, Union

import numpy as np
import orjson
from scipy.spatial import cKDTree

from ._util import gc_paused
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
    """Indices sorting finite rows lexicographically, first coordinate
    primary: exactly the permutation of ``np.lexsort`` with the first
    column as its last key.

    One stable argsort of the first coordinate places every row whose first
    coordinate no other row shares. Rows that share one stay in input
    order, as in lexsort, so a run of them needs no more work when its
    rows already rise on the other coordinates, as an axis-aligned grid's
    do when it is written in canonical order. Only the runs that do not are
    sorted again, by one lexsort of their rows with the run as primary key.
    """
    if len(pts) == 0:
        return np.zeros(0, dtype=np.intp)
    first = pts[:, 0]
    order = np.argsort(first, kind="stable")
    first = first.take(order)
    tied = first[1:] == first[:-1]
    if pts.shape[1] == 1 or not tied.any():
        return order
    # the rows in that order (input already in it is read in place) and
    # the tied neighbours among them whose other coordinates fall
    rows = (pts if np.array_equal(order, np.arange(len(order)))
            else pts.take(order, axis=0))
    past = np.zeros(len(tied), dtype=bool)
    for k in range(pts.shape[1] - 1, 0, -1):
        a, b = rows[:-1, k], rows[1:, k]
        past = (a > b) | ((a == b) & past)
    past &= tied
    if not past.any():
        return order
    run = np.concatenate([[0], np.cumsum(~tied)])
    redo = np.flatnonzero(np.isin(run, run[1:][past]))
    keys = [rows[redo, k] for k in range(pts.shape[1] - 1, 0, -1)]
    order[redo] = order[redo][np.lexsort([*keys, run[redo]])]
    return order


def _row_norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm(v, axis=1) bit for bit, with one temporary of one
    column: the same left-to-right sum of squares, which numpy's row
    reduction uses for fewer than 8 columns (it sums pairwise from 8)."""
    if v.shape[1] >= 8:
        return np.linalg.norm(v, axis=1)
    s = v[:, 0] * v[:, 0]
    for k in range(1, v.shape[1]):
        s += v[:, k] * v[:, k]
    return np.sqrt(s, out=s)


class WindowedSet:
    """Finite point set in R^p restricted to a ball about the origin.

    Parameters
    ----------
    points : array-like, shape (n, p)
        Coordinates. One-dimensional input is treated as n points in R^1.
    radius : real number, optional
        Window radius, finite and non-negative; a ``bool``, a string or
        any other value that is not a real number raises ConfigError.
        Defaults to ``max |a|`` over the points.
    label : str
        Free-form provenance string, carried through restriction and
        serialization; any other type raises ConfigError.

    The points are stored in canonical lexicographic order, in an array
    the container owns, gathered by the permutation of
    ``_canonical_order``: one stable argsort of the first coordinate, and
    a second sort only for runs of tied first coordinates out of order on
    the others. The caller's array is never aliased or frozen. Two points
    closer than tol_eq raise DuplicatePoint; the check reads the gaps
    between the sorted first coordinates, which settle a window whose
    first coordinates are spread out, and sweeps along a second direction
    only the points next to a gap within tol_eq. It takes O(n) memory and
    builds neither a tree over the whole window nor a nearest-neighbour
    table unless the points crowd together along both directions.
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
            pts = pts.take(_canonical_order(pts), axis=0)
        pts = np.ascontiguousarray(pts)
        pts.flags.writeable = False
        self.points = pts
        self.dim = int(pts.shape[1]) if pts.shape[0] else max(int(pts.shape[1]), 1)
        if not isinstance(label, str):
            raise ConfigError("label must be a string")
        self.label = label

        with np.errstate(over="ignore"):  # inf fails the radius check
            norms = _row_norms(pts) if len(pts) else np.zeros(0)
            # squares past the float range: such a row alone is scaled by
            # its largest coordinate, so no other norm changes a bit
            big = np.flatnonzero(np.isinf(norms))
            if len(big):
                top = np.abs(pts[big]).max(axis=1)
                norms[big] = top * _row_norms(pts[big] / top[:, None])
        norms.flags.writeable = False
        self._norms = norms

        if radius is None:
            radius = float(norms.max()) if len(pts) else 0.0
        elif isinstance(radius, bool) or not isinstance(radius, numbers.Real):
            raise ConfigError("radius must be a real number")
        try:
            radius = float(radius)
        except OverflowError:  # an integer past the float range
            radius = math.inf if radius > 0 else -math.inf
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

        The first coordinates, in canonical order, are read first. Two
        points closer than tol_eq have first coordinates closer than
        tol_eq, so every gap between consecutive first coordinates from one
        to the other is at most tol_eq (rounding of a difference cannot
        carry it past). When every gap exceeds the slack below, the check
        is done; a crystal in general position ends here. Otherwise only
        the rows next to a small gap can hold such a pair, and they go on
        in canonical order.

        Exact copies among them are adjacent rows and are found next: the
        tree cannot split copies apart, so a query among m of them would
        scan all m once per copy. The rest are projected on the unit vector
        u along (sqrt 2, sqrt 3, ..., sqrt(p + 1)), whose components are
        rationally independent, so no integer vector projects to zero and
        an axis-aligned grid, whose rows share whole slabs of coordinates,
        spreads out along u. The same gap argument holds along u, plus the
        rounding of the projections (a few ulps of max |a|). Only the
        points next to such a gap go into a tree, with one query bounded
        at tol_eq: a pair that query finds has the distance the unbounded
        query of nn_distances gives it. However many points crowd
        together, memory stays O(n).
        """
        rounding = 4 * (self.dim + 1) * np.finfo(np.float64).eps
        slack = TOL_EQ * (1 + 1e-9) + rounding * float(self._norms.max())
        pts = self.points
        close = np.diff(pts[:, 0]) <= slack
        if not close.any():
            return False
        near = np.zeros(len(pts), dtype=bool)
        near[:-1] = close
        near[1:] |= close
        pts = pts.compress(near, axis=0)
        copy = pts[1:, 0] == pts[:-1, 0]
        for k in range(1, self.dim):
            copy &= pts[1:, k] == pts[:-1, k]
        if copy.any():
            return True
        u = np.sqrt(np.arange(2.0, self.dim + 2.0))
        proj = pts @ (u / np.linalg.norm(u))
        order = np.argsort(proj)
        close = np.diff(proj[order]) <= slack
        if not close.any():
            return False
        member = np.zeros(len(pts), dtype=bool)
        member[order[:-1][close]] = True
        member[order[1:][close]] = True
        chain = pts.compress(member, axis=0)
        d, _ = cKDTree(chain).query(
            chain, k=2, distance_upper_bound=TOL_EQ * (1 + 1e-9)
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
            d, _ = self.tree().query(self.points, k=2)
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
    A ``# label: "..."`` comment before the first row whose rest is one
    JSON string sets the label; the window radius is inferred as ``max |a|``.
    JSON: object ``{"dim", "radius", "label", "points"}``; extra keys are
    ignored so generator metadata can ride along.
    """
    if format not in ("csv", "json"):
        raise ConfigError(f"unknown format {format!r} (expected 'csv' or 'json')")
    text = _as_text(source)
    try:
        with gc_paused():
            return _load_csv(text) if format == "csv" else _load_json(text)
    except ConfigError as e:  # the window the text describes is invalid
        raise ParseError(str(e))


#: The comment ``serialize`` writes the label in, followed by a JSON string.
_CSV_LABEL = "# label: "


def _load_csv(text: str) -> WindowedSet:
    rows = []
    arity = None
    label = ""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not rows and stripped.startswith(_CSV_LABEL + '"'):
            try:
                label = json.loads(stripped[len(_CSV_LABEL):])
            except ValueError:  # not one JSON string: a plain comment
                pass
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
    return WindowedSet(np.array(rows, dtype=np.float64), label=label)


#: The deepest nesting a JSON point file may have. orjson 3.8 converts a
#: document to Python objects by recursion without a limit, so nesting tens
#: of thousands of levels deep overflows the C stack; json.loads refuses
#: nesting past the interpreter's remaining recursion depth, which depends
#: on the caller. Below this limit neither happens.
_MAX_DEPTH = 32
#: Characters per block of the nesting scan: 256 KiB of ASCII text.
_SCAN_BLOCK = 1 << 18
#: Every byte but the brackets and the quote, deleted before the nesting scan.
_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b'[]{}"')))


#: Characters per block of the block reader (``_json_blocks``): a block's
#: text, its row lists and their array stay in cache while they are made.
_ROWS_BLOCK = 1 << 15
#: The ``points`` key and the opening bracket of its list.
_POINTS_KEY = re.compile(r'"points"[ \t\n\r]*:[ \t\n\r]*\[')
#: The last row's closing bracket and the list's, JSON whitespace between.
_LIST_END = re.compile(r'\][ \t\n\r]*\]')


def _load_json(text: str) -> WindowedSet:
    """The window of a JSON document.

    The block reader (``_json_blocks``) reads a document whose point list
    is flat rows of numbers and whose text outside the list orjson takes.
    Any other document, and any it has a doubt about, is read whole by
    ``_json_document``, the only reading that raises.
    """
    fields = _json_blocks(text)
    if fields is None:
        fields = _json_document(text)
    return WindowedSet(*fields)


def _json_document(text: str):
    """(points, radius, label) of a JSON document read whole.

    A document nested deeper than ``_MAX_DEPTH`` is refused, measured on
    the text before either parser sees it. orjson reads the rest; one it
    refuses (NaN, Infinity, integers past the float range, lone
    surrogates) is read by ``json.loads``. orjson reads an integer outside
    the int64 and uint64 ranges as the float json rounds it to, so the
    readings part only in types that the field checks refuse either way:
    ``dim`` must be an int from 1 to 2**63 - 1, and ``WindowedSet`` takes
    only a ``str`` label and a real radius. Every document thus gives one
    window, or one error type and message, whichever parser read it.
    """
    if _nesting_depth(text) > _MAX_DEPTH:
        raise ParseError(f"JSON nested deeper than {_MAX_DEPTH} levels")
    try:
        obj = orjson.loads(text)
    except orjson.JSONDecodeError:
        try:
            obj = json.loads(text)
        except ValueError as e:  # JSONDecodeError, the int-digit limit
            raise ParseError(f"invalid JSON: {e}")
    if not isinstance(obj, dict) or "points" not in obj:
        raise ParseError("JSON point set must be an object with a 'points' key")
    raw = obj["points"]
    if not isinstance(raw, list):
        raise ParseError("'points' must be a list of coordinate rows")
    dim = obj.get("dim")
    if dim is not None and (isinstance(dim, bool) or not isinstance(dim, int)
                            or not 1 <= dim < 2**63):
        raise ParseError("'dim' must be an integer from 1 to 2**63 - 1")
    return _json_rows(raw, dim), obj.get("radius"), obj.get("label", "")


def _json_blocks(text: str):
    """(points, radius, label) of a JSON document read block by block, the
    values ``_json_document`` gives; None where that is not certain.

    The first ``"points": [`` opens the list. Its rows are read in blocks
    of about ``_ROWS_BLOCK`` characters, each cut just after a row's
    ``],``. orjson reads a block only once its brackets and quotes are
    ``[]`` repeated (``_flat_rows``): rows of scalars, two levels deep.
    Each block must give a 2-D numeric array of one width. A block that is
    not flat rows, or the rest of the text when no ``],`` follows, holds
    the list's end: the first ``]`` followed, past JSON whitespace, by
    another. The last block ends there. The text outside the list, with
    ``0`` and then ``1`` in its place, is checked by ``_nesting_depth``,
    then read by orjson, and ``points`` must read 0 and then 1: so the list
    is the value of the last top-level ``points`` key, the document is
    valid JSON, at most ``_MAX_DEPTH`` deep, and orjson would read it to
    the same values. ``dim``, ``radius`` and ``label`` come from that
    reading; ``dim`` must be absent or the rows' width. The blocks'
    numbers convert to float64 as the whole list's would: a Python int or
    bool and a numpy integer or bool give the same correctly rounded float.
    """
    key = _POINTS_KEY.search(text)
    if key is None:
        return None
    arrays, pos, end = [], key.end(), None
    while end is None:
        cut = text.find("],", pos + _ROWS_BLOCK)
        block = text[pos:cut + 1]
        if cut < 0 or not _flat_rows(block):
            end = _LIST_END.search(text, pos)
            if end is None:
                return None
            block = text[pos:end.start() + 1]
            if not _flat_rows(block):
                return None
        try:
            rows = np.array(orjson.loads(f"[{block}]"))
        except ValueError:  # not JSON; ragged rows
            return None
        if rows.ndim != 2 or rows.dtype.kind not in "biuf":
            return None
        arrays.append(rows)
        pos = cut + 2

    head, tail = text[:key.end() - 1], text[end.end():]
    if _nesting_depth(f"{head} 0 {tail}") > _MAX_DEPTH:
        return None
    try:
        obj, other = [orjson.loads(f"{head} {v} {tail}") for v in (0, 1)]
    except orjson.JSONDecodeError:
        return None
    if not (isinstance(obj, dict) and isinstance(other, dict)
            and (obj.get("points"), other.get("points")) == (0, 1)):
        return None
    width = arrays[0].shape[1]
    dim = obj.get("dim")
    if (any(rows.shape[1] != width for rows in arrays) or width < 1
            or dim is not None and not (type(dim) is int and dim == width)):
        return None
    return (np.concatenate(arrays, dtype=np.float64), obj.get("radius"),
            obj.get("label", ""))


def _flat_rows(block: str) -> bool:
    """Whether the brackets and quotes of block are ``[]`` repeated, the
    nesting scan's cut (``bytes.translate``) of rows of scalars."""
    marks = block.encode("utf-8", "surrogatepass").translate(
        None, _NOT_STRUCTURE)
    return marks == b"[]" * (len(marks) // 2)


def _nesting_depth(text: str) -> int:
    """How deep the lists and objects of JSON text nest, exact for valid
    JSON whatever its strings hold. (orjson converts only a document it
    has validated, so an invalid one cannot overflow its stack.)

    Escaped backslashes and quotes are dropped first, so every quote left
    opens or closes a string. Each block of the text is then cut down to
    its brackets and quotes (``bytes.translate``, one pass in C), and the
    depth is the running count of opening less closing brackets outside
    strings over that far shorter sequence.
    """
    if "\\" in text:
        text = text.replace("\\\\", "").replace('\\"', "")
    marks = np.frombuffer(b"".join(
        text[start:start + _SCAN_BLOCK].encode("utf-8", "surrogatepass")
        .translate(None, _NOT_STRUCTURE)
        for start in range(0, len(text), _SCAN_BLOCK)), dtype=np.uint8)
    outside = np.cumsum(marks == ord('"')) % 2 == 0
    opening = (marks == ord("[")) | (marks == ord("{"))
    closing = (marks == ord("]")) | (marks == ord("}"))
    depth = np.cumsum((opening & outside).view(np.int8)
                      - (closing & outside).view(np.int8))
    return int(depth.max()) if len(depth) else 0


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


#: orjson and ``repr`` write the same shortest round-trip digits, but for
#: a coordinate with 0 < |x| < 1e-4 or |x| >= 1e16 in different notation:
#: orjson writes ``0.00001`` and ``1e16`` where ``repr`` writes ``1e-05``
#: and ``1e+16``.
_REPR_BELOW, _REPR_FROM = 1e-4, 1e16


#: Rows per orjson call when rendering. The text of one block stays in
#: cache while it is cut to the format, where a pass over the whole text of
#: a large window would not.
_BLOCK_ROWS = 4096


def _render_rows(pts: np.ndarray, format: str) -> str:
    """The rows of ``pts`` as text, each coordinate written as ``repr``
    writes it: the JSON list items ``[x, y], [x, y]`` for ``"json"``, the
    lines ``x,y`` between line breaks for ``"csv"``.

    orjson renders the array in blocks of ``_BLOCK_ROWS`` rows (it takes
    C-contiguous float64 rows, as ``WindowedSet`` keeps them). Each run of
    rows holding a coordinate it would write in another notation than
    ``repr`` is rendered by ``json.dumps`` instead, from row lists built
    with the collector paused. Each block's text, ``[[x,y],[x,y]]``, is cut
    to the format as bytes; the blocks are joined and decoded once.
    """
    a = np.abs(pts)
    odd = (((a < _REPR_BELOW) & (a != 0)) | (a >= _REPR_FROM)).any(axis=1)
    del a
    cuts = np.union1d(np.arange(0, len(pts), _BLOCK_ROWS),
                      np.flatnonzero(odd[1:] != odd[:-1]) + 1).tolist()
    csv = format == "csv"
    blocks = []
    with gc_paused():
        for start, stop in zip(cuts, cuts[1:] + [len(pts)]):
            block = pts[start:stop]
            if odd[start]:
                text = json.dumps(block.tolist(), separators=(",", ":")).encode()
            else:
                text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
            blocks.append(text[2:-2].replace(b"],[", b"\n") if csv
                          else text[1:-1].replace(b",", b", "))
    text = (b"\n" if csv else b", ").join(blocks)
    del blocks
    return text.decode()


def serialize(S: WindowedSet, format: str = "csv", metadata: dict | None = None) -> str:
    """Render a point set back to text. ``load_points(serialize(S, "json"),
    "json")`` returns the points, radius and label of S exactly. CSV keeps
    the points and the label: the label is written as a ``# label:``
    comment holding a JSON string, which the reader takes back; the radius
    loads as the inferred ``max |a|``.

    ``metadata`` is an optional JSON-serializable record stored under the
    ``"generator"`` key (JSON) or echoed as ``#`` comments (CSV).

    Every coordinate is written in ``repr``'s shortest round-trip digits,
    the text ``json.dumps`` gives for a list of floats. The rows come from
    orjson calls on blocks of ``_BLOCK_ROWS`` rows of the array
    (``_render_rows``), each cut to the format as bytes, then joined and
    decoded once; only the rows holding a coordinate with 0 < |x| < 1e-4
    or |x| >= 1e16, which orjson writes in another notation, go through
    ``json.dumps``. The header and the ``generator`` record are
    ``json.dumps`` text: orjson refuses labels with lone surrogates and
    renders some metadata (non-string keys, integers past 64 bits, NaN)
    differently.
    """
    if format not in ("csv", "json"):
        raise ConfigError(f"unknown format {format!r} (expected 'csv' or 'json')")
    rows = _render_rows(S.points, format)
    if format == "csv":
        head = ""
        if S.label:
            # escaped, so no line break in the label can start a data row
            head += f"{_CSV_LABEL}{json.dumps(S.label)}\n"
        if metadata:
            head += f"# generator: {json.dumps(metadata, sort_keys=True)}\n"
        if len(S.points) == 0:
            return head
        return f"{head}{rows}\n"
    # the header object less its closing brace, then the rows and the record
    head = json.dumps({"dim": S.dim, "radius": S.radius, "label": S.label})
    record = f', "generator": {json.dumps(metadata)}' if metadata else ""
    return f'{head[:-1]}, "points": [{rows}]{record}}}\n'


# -- elementary operations --------------------------------------------------


def window_restrict(S: WindowedSet, r: float) -> WindowedSet:
    """The subset ``{a in S : |a| <= r}`` as a window of radius ``r``."""
    r = float(r)
    if not 0 < r <= S.radius + TOL_EQ:
        raise ConfigError(f"restriction radius {r:g} outside (0, {S.radius:g}]")
    mask = S.norms() <= r + TOL_EQ
    if not mask.any():
        raise EmptyWindow(f"no points with |a| <= {r:g}")
    return WindowedSet(S.points.compress(mask, axis=0), min(r, S.radius),
                       S.label, _trusted=True)


def min_separation(S: WindowedSet) -> float:
    """Smallest distance between two distinct points of the window."""
    if len(S) < 2:
        raise TooFewPoints("min_separation needs at least 2 points")
    return float(S.nn_distances().min())
