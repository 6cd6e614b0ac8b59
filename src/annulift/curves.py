"""Closed polyline curves, robust winding numbers, orientation.

A ClosedCurve is a cyclic sample list; the polyline through the samples is
the curve every operation acts on, and every polyline predicate here takes
it closed. When a continuous parametrization is attached, adaptive
refinement queries it instead of chord midpoints, so a coarsely sampled
analytic curve still gets exact integer winding numbers.

Checks on curves hold at sample resolution. A ClosedCurve rejects non-finite
samples and params, and consecutive samples that coincide; circle(), always
centred at 0, and rectangle() prove their scaled templates free of both
from a few scalars, and scan the samples only when that proof fails.
Simplicity means that no two non-adjacent segments of the polyline cross or
touch, decided with exact orientation signs; the orientation of a simple
curve is the exact turn at its lexicographically smallest sample, and
point_in_polygon decides containment by the same signs.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DistanceViolation,
    NonFiniteDisplacement,
    NotSimple,
    RefinementBudgetExceeded,
    WindingResidualError,
)

TWO_PI = 2.0 * np.pi
HALF_PI = 0.5 * np.pi

_REFINEMENT_BUDGET = 2 ** 16  # points inserted into one turning count's grid
_WINDING_RESIDUAL = 0.1       # max |total/2pi - nearest integer|
_MIN_NORM = 1e-10             # a turning count's vector must be longer than this
# Shewchuk's static filter for the sign of the float orientation determinant
# l - r: it is exact when |l - r| > (3 + 16 eps) eps (|l| + |r|), eps = 2^-53,
# as long as nothing underflows; the tiny absolute term covers products that
# fall below the normal range
_ORIENT_ERRBOUND = (3.0 + 16.0 * 2.0 ** -53) * 2.0 ** -53
_ORIENT_TINY = 2.0 ** -1070


def _cyclic_next(a: np.ndarray) -> np.ndarray:
    """Each row's cyclic successor: np.roll(a, -1, axis=0), bit for bit, at
    about a quarter of its call overhead (these kernels run on every index
    query)."""
    return np.concatenate([a[1:], a[:1]])


def _as_point(p) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.shape != (2,) or not np.all(np.isfinite(arr)):
        raise ValueError(f"expected a finite plane point, got {p!r}")
    return arr


@dataclass(frozen=True)
class ClosedCurve:
    """Cyclic ordered samples of a closed curve (closure implicit).

    Samples must be finite and consecutive samples distinct; refinement only
    ever inserts points on parameter intervals, never reorders. ``params``
    are ascending parameters in [0, 1); ``curve_fn`` is an optional exact
    parametrization t -> point used during refinement. Every curve built
    here is checked by scanning its samples, except the circles and
    rectangles that ``_scaled_template`` builds once a scalar bound has
    proved the scan would pass.
    """

    samples: np.ndarray
    params: Optional[np.ndarray] = None
    curve_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        pts = np.asarray(self.samples, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("samples must be an (n, 2) array")
        n = len(pts)
        if n < 3:
            raise ValueError("a closed curve needs at least 3 samples")
        if not np.isfinite(pts).all():
            raise ValueError("samples must be finite")
        z = _as_complex(pts)   # complex == compares both parts, so -0.0 == 0.0
        same = z[1:] == z[:-1]
        if same.any() or z[-1] == z[0]:
            i = int(same.argmax()) if same.any() else n - 1
            raise ValueError(f"consecutive samples {i} and {(i + 1) % n} coincide")
        object.__setattr__(self, "samples", pts)
        if self.params is None:   # circle() relies on these being its i / n
            t = np.arange(n, dtype=float) / n
        else:
            t = np.asarray(self.params, dtype=float)
            if t.shape != (n,):
                raise ValueError("params must match samples in length")
            if not np.isfinite(t).all():
                raise ValueError("params must be finite")
            if (t[1:] <= t[:-1]).any():
                raise ValueError("params must be strictly ascending")
            if t[0] < 0.0 or t[-1] >= t[0] + 1.0:
                raise ValueError("params must fit in one period [t0, t0+1)")
        object.__setattr__(self, "params", t)

    @classmethod
    def _scaled_template(cls, samples: np.ndarray, curve_fn=None) -> "ClosedCurve":
        """The curve __post_init__ would build from an (n, 2) float array of
        n >= 3 samples, without its scan: the caller has proved the samples
        finite and consecutive samples distinct. Params are i / n, derived as
        __post_init__ derives them."""
        curve = object.__new__(cls)
        n = len(samples)
        object.__setattr__(curve, "samples", samples)
        object.__setattr__(curve, "params", np.arange(n, dtype=float) / n)
        object.__setattr__(curve, "curve_fn", curve_fn)
        return curve

    def __len__(self) -> int:
        return len(self.samples)

    def point_at(self, t) -> np.ndarray:
        """Evaluate the curve at parameters t (vectorized, period 1)."""
        t = np.asarray(t, dtype=float)
        if self.curve_fn is not None:
            return np.asarray(self.curve_fn(np.mod(t, 1.0)), dtype=float)
        px, xs, ys = self._closed
        t0 = px[0]
        tt = t0 + np.mod(t - t0, 1.0)
        out = np.empty(tt.shape + (2,))
        out[..., 0] = np.interp(tt, px, xs)
        out[..., 1] = np.interp(tt, px, ys)
        return out

    @functools.cached_property
    def _closed(self):
        """Parameters and coordinates of the polyline closed by its first
        sample, at parameter params[0] + 1."""
        px = np.append(self.params, self.params[0] + 1.0)
        closed = np.concatenate([self.samples, self.samples[:1]])
        return px, closed[:, 0], closed[:, 1]

    def refined(self, extra_t) -> "ClosedCurve":
        """Insert samples at the given parameters (refinement never reorders)."""
        extra = np.mod(np.asarray(extra_t, dtype=float), 1.0)
        t = np.unique(np.concatenate([self.params, extra]))
        return ClosedCurve(self.point_at(t), params=t, curve_fn=self.curve_fn)

    def reversed(self) -> "ClosedCurve":
        c = float(self.params[-1])
        rev_fn = None
        if self.curve_fn is not None:
            fwd = self.curve_fn
            rev_fn = lambda t: fwd(np.mod(c - t, 1.0))  # noqa: E731
        return ClosedCurve(self.samples[::-1], params=c - self.params[::-1],
                           curve_fn=rev_fn)

    @property
    def diameter(self) -> float:
        spans = self.samples.max(axis=0) - self.samples.min(axis=0)
        return float(np.hypot(spans[0], spans[1]))


def _separated(step: float, scale: float, magnitude: float) -> bool:
    """Whether the samples corner + scale * coef of a template, each
    coordinate rounded twice (product, then sum), are finite with no two
    consecutive samples equal. ``step`` is scale times a lower bound on the
    max-norm gap between consecutive coefficients; ``magnitude`` bounds the
    corner coordinates, or is the radius for a circle, whose samples are
    products alone.

    In the coordinate of that gap the exact values differ by at least step.
    Rounding moves each product by at most scale 2^-53 + 2^-1075 (half an
    ulp, or half the least subnormal) and each sum by at most half an ulp of
    a value below magnitude (1 + 2^-52) (N. J. Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, ch. 2); where a rectangle's
    corner sample replaces a product, the rounded span errs by at most
    scale 2^-53 instead. So two samples stay apart when step exceeds the
    sum of these. A magnitude that overflows, or a NaN, makes the ulp
    infinite or NaN and the check false; a false check proves nothing, and
    the caller scans the samples."""
    return step > scale * 2.0 ** -52 + 2.0 ** -1074 + math.ulp(magnitude * (1.0 + 2.0 ** -52))


def _real(value) -> float:
    """float(value) of a circle radius, refusing a complex value with
    TypeError: float() of a NumPy complex warns and drops the imaginary
    part. An int or a float (np.float64 too) skips the dtype check."""
    if not isinstance(value, (float, int)) and np.iscomplexobj(value):
        raise TypeError(f"circle radius must be a real number, got {value!r}")
    return float(value)


def circle(radius: float, n: int = 256) -> ClosedCurve:
    """Counterclockwise circle about the origin with the exact
    parametrization attached.

    Its samples are the cached unit template scaled by ``radius``, and its
    params are i / n. When the template's least gap times |radius| clears
    the rounding bound of ``_separated``, the samples are finite and
    distinct by construction and are not scanned; otherwise ClosedCurve
    scans them and raises its ValueError. ``radius`` must be a real number
    (float(radius)); an array or a complex value, a NumPy complex scalar or
    0-d array too, is a TypeError."""
    r = _real(radius)

    def fn(t):
        ang = TWO_PI * np.asarray(t, dtype=float)
        out = np.empty(ang.shape + (2,))
        x, y = out[..., 0], out[..., 1]
        np.cos(ang, out=x)
        x *= r
        np.sin(ang, out=y)
        y *= r
        return out

    unit, gap = _circle_template(n)
    samples = unit * r
    size = abs(r)
    if _separated(size * gap, size, size):
        return ClosedCurve._scaled_template(samples, curve_fn=fn)
    return ClosedCurve(samples, curve_fn=fn)


@functools.lru_cache(maxsize=16)
def _circle_template(n: int) -> tuple[np.ndarray, float]:
    """Read-only unit samples (cos 2 pi t, sin 2 pi t) of an n-sample circle
    at t = i / n, computed as circle's fn computes them, so that
    unit * radius is bit for bit fn(t); and a lower bound on the
    least max-norm gap between cyclically consecutive unit samples, 0.0
    below 3 samples. Each float difference is rounded to nearest, so the
    float below the least of them bounds the exact gap from below."""
    ang = TWO_PI * (np.arange(n, dtype=float) / n)
    unit = np.empty((n, 2))
    np.cos(ang, out=unit[:, 0])
    np.sin(ang, out=unit[:, 1])
    unit.flags.writeable = False
    gap = 0.0
    if n >= 3:
        gap = float(np.nextafter(np.abs(_cyclic_next(unit) - unit).max(axis=1).min(), 0.0))
    return unit, gap


def check_rectangle(x0: float, x1: float, y0: float, y1: float
                    ) -> tuple[float, float, float, float]:
    """(x0, x1, y0, y1) as floats, or ValueError unless x1 > x0 and y1 > y0
    (NaN fails) with finite side lengths; the check of rectangle(), without
    building a curve."""
    x0, x1, y0, y1 = float(x0), float(x1), float(y0), float(y1)
    if not (x1 > x0 and y1 > y0):
        raise ValueError("rectangle needs x1 > x0 and y1 > y0")
    if not (math.isfinite(x1 - x0) and math.isfinite(y1 - y0)):
        # checked in Python floats, so an overflowing span warns nowhere
        raise ValueError("rectangle side lengths x1 - x0 and y1 - y0 must be finite")
    return x0, x1, y0, y1


def rectangle(x0: float, x1: float, y0: float, y1: float, per_side: int = 16) -> ClosedCurve:
    """Counterclockwise rectangle boundary; corners are always samples.

    ``per_side`` must be an integer (operator.index, else TypeError) of at
    least 1 (else ValueError). When each side's sample spacing, side * gap
    (side / per_side for a power of two), clears the rounding bound of
    ``_separated`` against the corners' magnitude on its axis, the samples
    are distinct by construction and are not scanned; otherwise ClosedCurve
    scans them."""
    x0, x1, y0, y1 = check_rectangle(x0, x1, y0, y1)
    k = operator.index(per_side)
    if k < 1:
        raise ValueError(f"rectangle needs per_side >= 1, got {k}")
    base, coef, gap = _rectangle_template(k)
    c = np.array([x0, x1, y0, y1], dtype=float)
    samples = c[base] + (c[1::2] - c[0::2]) * coef
    sx, sy = x1 - x0, y1 - y0   # the spans above, rounded alike
    if (_separated(sx * gap, sx, max(abs(x0), abs(x1)))
            and _separated(sy * gap, sy, max(abs(y0), abs(y1)))):
        return ClosedCurve._scaled_template(samples)
    return ClosedCurve(samples)


@functools.lru_cache(maxsize=None)
def _rectangle_template(k: int):
    """Corner indices into (x0, x1, y0, y1) and span coefficients of the 4k
    rectangle samples: sample = corner + (x1 - x0, y1 - y0) * coef. Sides run
    bottom, right, top, left with u = i / k; a side's varying coordinate is
    its start plus or minus span * u, and its constant one gets coefficient
    -0.0, which adds nothing even to a zero of either sign. Also the least
    gap between consecutive u, the last one to 1 included: each difference
    is exact (Sterbenz: u[i + 1] <= 2 u[i] for i >= 1, and u[k - 1] >= 1/2
    for k >= 2), and it is 1 / k for a power of two."""
    u = np.arange(k, dtype=float) / k
    z = np.full(k, -0.0)
    coef = np.concatenate([np.stack(pair, axis=-1) for pair in
                           ((u, z), (z, u), (-u, z), (z, -u))])
    base = np.repeat([[0, 2], [1, 2], [1, 3], [0, 3]], k, axis=0)
    base.flags.writeable = coef.flags.writeable = False
    return base, coef, float(np.diff(u, append=1.0).min())


def curve_to_json(curve: ClosedCurve) -> list:
    """JSON form: array of [x, y] pairs, closure implicit."""
    return [[float(x), float(y)] for x, y in curve.samples]


def curve_from_json(data) -> ClosedCurve:
    pts = np.asarray(data, dtype=float)
    return ClosedCurve(pts)


# -- winding numbers ----------------------------------------------------------

def _turning_counts(vectors, params, vec_fn, too_close_cls,
                    too_close_msg: str) -> tuple[list, Optional[Exception]]:
    """Exact integer turning counts of an (m, n, 2) stack of cyclic vector
    loops that share one ascending parameter grid ``params``.

    The grid is refined for all rows together: a segment where any row's
    principal-value angle step is pi/2 or more is bisected for every row,
    with one ``vec_fn(t, rows)`` call a round, which returns the first
    ``rows`` loops at the new parameters t as a (rows, len(t), 2) array.
    Each row's steps are summed once no step of any row reaches pi/2.

    Shared-grid rows stay right. A point inserted for another row splits a
    step of this row that is below pi/2 into two: the row's count can then
    change only where its loop really turns more inside that segment, which
    moves it toward the true count, and a new sample within ``_MIN_NORM`` of
    0 fails the row there, as it should. ``_REFINEMENT_BUDGET`` bounds the
    insertions into the shared grid, as it bounds one loop's. At m = 1 the
    samples, refinements, budget and errors are those of one loop alone.

    Returns (counts, error): every row's count and None, or the counts of
    the rows before the earliest failing row and that row's exception. A
    row fails on a NaN or infinite vector (NonFiniteDisplacement), on a
    vector no longer than ``_MIN_NORM`` (``too_close_cls``, with
    ``too_close_msg``) and on a turning not near an integer
    (WindingResidualError). Rows after a failing row are dropped, as their
    outcome cannot change which failure is the earliest. Running out of
    budget fails the grid: RefinementBudgetExceeded comes with no counts.
    """
    t = np.asarray(params, dtype=float)
    # sample-major and flat: entry i * rows + r is row r's vector at t[i], so
    # a round's elementwise work runs on one contiguous array at any m
    rows = len(vectors)
    z = _as_complex(vectors).T.ravel()
    error = None
    inserted = 0
    while rows:
        norms = np.abs(z)
        if not norms.max() < np.inf or norms.min() <= _MIN_NORM:  # NaN fails < too
            norms = norms.reshape(-1, rows)
            j = int((~(norms.max(axis=0) < np.inf) | (norms.min(axis=0) <= _MIN_NORM)).argmax())
            row = norms[:, j]
            if not row.max() < np.inf:
                i = int(np.argmin(np.isfinite(row)))
                error = NonFiniteDisplacement(f"non-finite vector ({z.real[i * rows + j]}, "
                                              f"{z.imag[i * rows + j]}) at t={t[i] % 1.0:.6f}")
            else:
                i = int(row.argmin())
                error = too_close_cls(
                    f"{too_close_msg}: |v|={row[i]:.3e} <= {_MIN_NORM:.3e} at t={t[i] % 1.0:.6f}")
            z = z.reshape(-1, rows)[:, :j].ravel()
            rows = j
            if not rows:
                break
        ratio = np.concatenate([z[rows:], z[:rows]]) / z
        steps = np.arctan2(ratio.imag, ratio.real)   # np.angle
        big = np.abs(steps) >= HALF_PI
        if rows > 1:   # a parameter's segment is bisected when any row's step is big
            big = big.reshape(-1, rows).any(axis=1)
        bad = big.nonzero()[0]
        if bad.size == 0:
            counts = []
            for total in steps.reshape(-1, rows).sum(axis=0).tolist():
                total /= TWO_PI
                nearest = round(total)
                if abs(total - nearest) > _WINDING_RESIDUAL:
                    return counts, WindingResidualError(
                        f"turning {total:.6f} not within {_WINDING_RESIDUAL} of an integer")
                counts.append(nearest)
            return counts, error
        inserted += bad.size
        if inserted > _REFINEMENT_BUDGET:
            return [], RefinementBudgetExceeded(
                f"needed more than {_REFINEMENT_BUDGET} refinement points")
        t_ext = np.append(t, t[0] + 1.0)
        t_mid = 0.5 * (t_ext[bad] + t_ext[bad + 1])
        z_mid = _as_complex(np.asarray(vec_fn(t_mid, rows), dtype=float).reshape(rows, -1, 2))
        # sample i + 1 goes after sample i, so the new sample j lands at bad[j] + j + 1
        old = np.ones(len(t) + bad.size, dtype=bool)
        old[bad + np.arange(1, bad.size + 1)] = False
        new = ~old
        t_out = np.empty(len(old))
        t_out[old], t_out[new] = t, t_mid
        if rows > 1:   # each parameter's entries, one a row, move together
            old, new = np.repeat(old, rows), np.repeat(new, rows)
        z_out = np.empty(len(old), dtype=complex)
        z_out[old], z_out[new] = z, z_mid.T.ravel()
        t, z = t_out, z_out
    return [], error


def _turning_count(vectors, params, vec_fn, too_close_cls, too_close_msg: str) -> int:
    """The turning count of one (n, 2) loop, where vec_fn(t) gives its
    vectors at parameters t: _turning_counts on a stack of one, raising
    its error."""
    counts, error = _turning_counts(np.asarray(vectors, dtype=float)[None], params,
                                    lambda t, rows: vec_fn(t), too_close_cls, too_close_msg)
    if error is not None:
        raise error
    return counts[0]


def _as_complex(vectors) -> np.ndarray:
    """An (..., n, 2) float array of vectors as (..., n) complex numbers
    x + iy (a view when the array is C-contiguous)."""
    return np.ascontiguousarray(vectors, dtype=float).view(complex)[..., 0]


def winding_number(curve: ClosedCurve, basepoint) -> int:
    """Signed number of turns of the curve around the basepoint.

    Every sample and every refinement point must stay farther than
    ``_MIN_NORM`` from the basepoint, otherwise the result would be
    numerically unsafe and DistanceViolation is raised.
    """
    p = _as_point(basepoint)
    vec_fn = lambda t: curve.point_at(t) - p  # noqa: E731
    return _turning_count(curve.samples - p, curve.params, vec_fn,
                          DistanceViolation, "sample too close to basepoint")


# -- predicates on polylines --------------------------------------------------

def _orient_signs(a, b, c) -> np.ndarray:
    """Signs (-1, 0 or 1) of twice the signed area of the triangles (a, b, c)
    for (n, 2) point arrays, exact for finite points: a float sign the static
    filter cannot vouch for is recomputed by _exact_orient_sign."""
    u, v = b - a, c - a
    with np.errstate(under="ignore"):   # _ORIENT_TINY covers what underflows
        left = u[:, 0] * v[:, 1]
        right = u[:, 1] * v[:, 0]
        det = left - right
        bound = _ORIENT_ERRBOUND * (np.abs(left) + np.abs(right)) + _ORIENT_TINY
    sign = np.sign(det)
    for k in (np.abs(det) <= bound).nonzero()[0].tolist():
        coords = a[k].tolist() + b[k].tolist() + c[k].tolist()
        if all(map(math.isfinite, coords)):
            sign[k] = _exact_orient_sign(coords)
    return sign


def _integer_coords(coords) -> list[int]:
    """Finite floats as integers in one exact common scale: each float is
    n / 2^e, so all scale to integers over their largest denominator
    (fractions.Fraction gives the same answers at about five times the cost)."""
    ratios = [v.as_integer_ratio() for v in coords]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios]


def _exact_orient_sign(coords) -> int:
    """Sign of the orientation determinant of finite (ax, ay, bx, by, cx, cy)
    in exact rational arithmetic."""
    ax, ay, bx, by, cx, cy = _integer_coords(coords)
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def _collinear_on(a, b, c):
    """Given orient2(a,b,c) == 0, is c inside the bbox of segment ab?"""
    return ((np.minimum(a[..., 0], b[..., 0]) <= c[..., 0])
            & (c[..., 0] <= np.maximum(a[..., 0], b[..., 0]))
            & (np.minimum(a[..., 1], b[..., 1]) <= c[..., 1])
            & (c[..., 1] <= np.maximum(a[..., 1], b[..., 1])))


def _segments_meet(p1, p2, q1, q2):
    """Whether the segments (p1[k], p2[k]) and (q1[k], q2[k]) cross or touch,
    and the exact orientation signs behind the answer as a (4, k) array:
    the sides of q1 and q2 of line p1 p2, then of p1 and p2 of line q1 q2."""
    a, b = np.concatenate([p1, p1, q1, q1]), np.concatenate([p2, p2, q2, q2])
    c = np.concatenate([q1, q2, p1, p2])
    signs = _orient_signs(a, b, c)
    touch = ((signs == 0) & _collinear_on(a, b, c)).reshape(4, -1).any(axis=0)
    signs = signs.reshape(4, -1)
    proper = (signs[0] * signs[1] < 0) & (signs[2] * signs[3] < 0)
    return proper | touch, signs


def polyline_self_intersects(samples: np.ndarray) -> bool:
    """Whether two non-adjacent segments of the closed polyline through the
    samples cross or touch, at sample resolution.

    Only pairs whose closed bounding boxes meet are tested: a shared point
    lies in both boxes, so no crossing or touch is lost. Orientation signs
    are exact for finite samples (``_orient_signs``), so nearly collinear
    segments neither cross nor touch by rounding.
    Candidate pairs come from a vectorised sort-and-sweep over the x-extents
    (Shamos & Hoey, FOCS 1976): sorted by left end, each segment meets in x
    a contiguous run of the segments after it. The pair count is near linear
    for sampled smooth curves and never exceeds all pairs.
    """
    pts = np.asarray(samples, dtype=float)
    if len(pts) < 4:
        return False
    a, b = pts, _cyclic_next(pts)
    m = len(a)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    order = np.argsort(lo[:, 0], kind="stable")
    # sorted position r meets in x exactly the positions start[r] .. end[r]-1
    start = np.arange(1, m + 1)
    end = np.searchsorted(lo[order, 0], hi[order, 0], side="right")
    count = end - start
    first = np.cumsum(count) - count   # offset of r's run among all pairs
    r = np.repeat(np.arange(m), count)
    s = np.arange(len(r)) + np.repeat(start - first, count)
    i, j = order[r], order[s]
    gap = np.abs(i - j)
    # the closing segment m - 1 is adjacent to segment 0
    keep = (lo[i, 1] <= hi[j, 1]) & (lo[j, 1] <= hi[i, 1]) & (gap > 1) & (gap != m - 1)
    i, j = i[keep], j[keep]
    if i.size == 0:
        return False
    return bool(_segments_meet(a[i], b[i], a[j], b[j])[0].any())


def point_in_polygon(point, samples: np.ndarray) -> bool:
    """Even-odd parity of a horizontal ray toward +x, decided exactly: the ray
    crosses an edge (a, b) that straddles its height when the orientation
    sign of (a, b, p) is the edge's direction, +1 upward and -1 downward.
    A point on an edge does not cross it."""
    p = _as_point(point)
    a = np.asarray(samples, dtype=float)
    below = a[:, 1] <= p[1]
    k = (below != _cyclic_next(below)).nonzero()[0]   # edges (a[k], a[k + 1]) that straddle
    sign = _orient_signs(a[k], a[(k + 1) % len(a)], np.full((len(k), 2), p))
    return int(np.count_nonzero(sign == np.where(below[k], 1.0, -1.0))) % 2 == 1


def _segment_distances(points, a, b) -> np.ndarray:
    """(n, m) distances from each of the n points to each segment (a[j],
    b[j]). The nearest segment, argmin along a row, is a float choice; ties
    go to the lowest j."""
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    denom = np.where(denom == 0.0, 1.0, denom)
    ap = points[:, None, :] - a
    u = np.clip(np.einsum("nmj,mj->nm", ap, ab) / denom, 0.0, 1.0)
    foot = a + u[..., None] * ab
    return np.hypot(foot[..., 0] - points[:, None, 0], foot[..., 1] - points[:, None, 1])


def distance_to_polyline(point, samples: np.ndarray) -> float:
    """Min distance from a point to the closed polyline through the samples."""
    a = np.asarray(samples, dtype=float)
    return float(_segment_distances(_as_point(point)[None], a, _cyclic_next(a)).min())


def _extreme_corner(pts: np.ndarray) -> list:
    """Indices (v - 1, v, v + 1), cyclic, of the lexicographically smallest
    sample v and its neighbours: v is a convex corner of any simple polygon."""
    v = int(np.argmin(_as_complex(pts)))   # complex numbers order by real part first
    return [(v - 1) % len(pts), v, (v + 1) % len(pts)]


def is_positively_oriented(curve: ClosedCurve) -> bool:
    """True when the curve runs counterclockwise around its interior.

    Requires the sampled curve to be simple; polyline_self_intersects checks
    that at sample resolution only, testing the segment pairs whose bounding
    boxes meet, which is near linear in the sample count for smooth curves.
    The orientation is the exact turn at the lexicographically smallest
    sample, a convex corner of any simple polygon. A zero turn there means
    its two segments overlap, and raises NotSimple.
    """
    pts = curve.samples
    if polyline_self_intersects(pts):
        raise NotSimple("sampled segments cross")
    idx = _extreme_corner(pts)
    turn = _orient_signs(*pts[idx, None])[0]
    if turn == 0:
        raise NotSimple(f"the segments at sample {idx[1]} overlap; curve is not simple")
    return bool(turn > 0)
