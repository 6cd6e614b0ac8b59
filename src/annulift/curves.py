"""Closed polyline curves, robust winding numbers, orientation.

A ClosedCurve is a cyclic sample list; the polyline through the samples is
the curve every operation acts on. When a continuous parametrization is
attached, adaptive refinement queries it instead of chord midpoints, so a
coarsely sampled analytic curve still gets exact integer winding numbers.

Checks on curves hold at sample resolution. A ClosedCurve rejects non-finite
samples and params. Simplicity means that no two non-adjacent segments of
the polyline cross or touch, decided with exact orientation signs; the
orientation of a simple curve is the exact turn at its lexicographically
smallest sample.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DistanceViolation,
    InteriorPointNotFound,
    NonFiniteDisplacement,
    NotSimple,
    RefinementBudgetExceeded,
    WindingResidualError,
)

TWO_PI = 2.0 * np.pi
HALF_PI = 0.5 * np.pi

_REFINEMENT_BUDGET = 2 ** 16  # inserted points per turning count
_WINDING_RESIDUAL = 0.1       # max |total/2pi - nearest integer|
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


@dataclass(frozen=True)
class PlanePoint:
    """A point of the universal cover; x is the angular lift, y the radial."""

    x: float
    y: float

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


def _as_point(p) -> np.ndarray:
    if isinstance(p, PlanePoint):
        return p.as_array()
    arr = np.asarray(p, dtype=float)
    if arr.shape != (2,) or not np.all(np.isfinite(arr)):
        raise ValueError(f"expected a finite plane point, got {p!r}")
    return arr


@dataclass(frozen=True)
class ClosedCurve:
    """Cyclic ordered samples of a closed curve (closure implicit).

    Consecutive samples must be distinct; refinement only ever inserts
    points on parameter intervals, never reorders. ``params`` are ascending
    parameters in [0, 1); ``curve_fn`` is an optional exact parametrization
    t -> point used during refinement.
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
        if self.params is None:
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


def circle(radius: float, n: int = 256, center=(0.0, 0.0)) -> ClosedCurve:
    """Counterclockwise circle with the exact parametrization attached."""
    cx, cy = float(center[0]), float(center[1])

    def fn(t):
        ang = TWO_PI * np.asarray(t, dtype=float)
        out = np.empty(ang.shape + (2,))
        x, y = out[..., 0], out[..., 1]
        np.cos(ang, out=x)
        x *= radius
        x += cx
        np.sin(ang, out=y)
        y *= radius
        y += cy
        return out

    t, unit = _circle_template(n)
    samples = unit * radius
    # adding a complex number adds each part on its own, as unit * radius +
    # (cx, cy) would, but in one contiguous pass instead of a broadcast one
    z = samples.view(complex)
    z += complex(cx, cy)
    return ClosedCurve(samples, params=t, curve_fn=fn)


@functools.lru_cache(maxsize=16)
def _circle_template(n: int):
    """Read-only params t = i / n and unit samples (cos 2 pi t, sin 2 pi t) of
    an n-sample circle, computed as circle's fn computes them, so that
    unit * radius + center is bit for bit fn(t)."""
    t = np.arange(n, dtype=float) / n
    ang = TWO_PI * t
    unit = np.empty((len(t), 2))
    np.cos(ang, out=unit[:, 0])
    np.sin(ang, out=unit[:, 1])
    t.flags.writeable = unit.flags.writeable = False
    return t, unit


def rectangle(x0: float, x1: float, y0: float, y1: float, per_side: int = 16) -> ClosedCurve:
    """Counterclockwise rectangle boundary; corners are always samples."""
    x0, x1, y0, y1 = float(x0), float(x1), float(y0), float(y1)
    if not (x1 > x0 and y1 > y0):
        raise ValueError("rectangle needs x1 > x0 and y1 > y0")
    if not (math.isfinite(x1 - x0) and math.isfinite(y1 - y0)):
        # checked in Python floats, so an overflowing span warns nowhere
        raise ValueError("rectangle side lengths x1 - x0 and y1 - y0 must be finite")
    base, coef = _rectangle_template(max(1, int(per_side)))
    c = np.array([x0, x1, y0, y1], dtype=float)
    return ClosedCurve(c[base] + (c[1::2] - c[0::2]) * coef)


@functools.lru_cache(maxsize=None)
def _rectangle_template(k: int):
    """Corner indices into (x0, x1, y0, y1) and span coefficients of the 4k
    rectangle samples: sample = corner + (x1 - x0, y1 - y0) * coef. Sides run
    bottom, right, top, left with u = i / k; a side's varying coordinate is
    its start plus or minus span * u, and its constant one gets coefficient
    -0.0, which adds nothing even to a zero of either sign."""
    u = np.arange(k, dtype=float) / k
    z = np.full(k, -0.0)
    coef = np.concatenate([np.stack(pair, axis=-1) for pair in
                           ((u, z), (z, u), (-u, z), (z, -u))])
    base = np.repeat([[0, 2], [1, 2], [1, 3], [0, 3]], k, axis=0)
    base.flags.writeable = coef.flags.writeable = False
    return base, coef


def curve_to_json(curve: ClosedCurve) -> list:
    """JSON form: array of [x, y] pairs, closure implicit."""
    return [[float(x), float(y)] for x, y in curve.samples]


def curve_from_json(data) -> ClosedCurve:
    pts = np.asarray(data, dtype=float)
    return ClosedCurve(pts)


# -- winding numbers ----------------------------------------------------------

def _turning_count(vectors, params, vec_fn, min_norm, too_close_cls,
                   too_close_msg: str) -> int:
    """Sum principal-value angle steps of a cyclic vector loop, refining until
    every step is below pi/2. Returns the exact integer turning count.
    A NaN or infinite vector, given or inserted, raises NonFiniteDisplacement."""
    t = np.asarray(params, dtype=float)
    z = _as_complex(vectors)
    inserted = 0
    while True:
        norms = np.hypot(z.real, z.imag)
        if not norms.max() < np.inf:  # NaN fails the comparison too
            i = int(np.argmin(np.isfinite(norms)))
            raise NonFiniteDisplacement(
                f"non-finite vector ({z.real[i]}, {z.imag[i]}) at t={t[i] % 1.0:.6f}")
        if norms.min() <= min_norm:
            i = int(norms.argmin())
            raise too_close_cls(
                f"{too_close_msg}: |v|={norms[i]:.3e} <= {min_norm:.3e} at t={t[i] % 1.0:.6f}")
        ratio = _cyclic_next(z) / z
        steps = np.arctan2(ratio.imag, ratio.real)   # np.angle
        bad = (np.abs(steps) >= HALF_PI).nonzero()[0]
        if bad.size == 0:
            total = float(steps.sum()) / TWO_PI
            nearest = round(total)
            if abs(total - nearest) > _WINDING_RESIDUAL:
                raise WindingResidualError(
                    f"turning {total:.6f} not within {_WINDING_RESIDUAL} of an integer")
            return int(nearest)
        inserted += bad.size
        if inserted > _REFINEMENT_BUDGET:
            raise RefinementBudgetExceeded(
                f"needed more than {_REFINEMENT_BUDGET} refinement points")
        t_ext = np.append(t, t[0] + 1.0)
        t_mid = 0.5 * (t_ext[bad] + t_ext[bad + 1])
        z_mid = _as_complex(np.asarray(vec_fn(t_mid), dtype=float).reshape(-1, 2))
        # sample i + 1 goes after sample i, so the new sample j lands at bad[j] + j + 1
        old = np.ones(len(t) + bad.size, dtype=bool)
        old[bad + np.arange(1, bad.size + 1)] = False
        new = ~old
        t_out = np.empty(len(old))
        t_out[old], t_out[new] = t, t_mid
        z_out = np.empty(len(old), dtype=complex)
        z_out[old], z_out[new] = z, z_mid
        t, z = t_out, z_out


def _as_complex(vectors) -> np.ndarray:
    """An (n, 2) float array of vectors as n complex numbers x + iy (a view
    when the array is C-contiguous)."""
    return np.ascontiguousarray(vectors, dtype=float).view(complex)[:, 0]


def winding_number(curve: ClosedCurve, basepoint, min_dist: float = 1e-9) -> int:
    """Signed number of turns of the curve around the basepoint.

    Every sample and every refinement point must stay farther than
    ``min_dist`` from the basepoint, otherwise the result would be
    numerically unsafe and DistanceViolation is raised.
    """
    p = _as_point(basepoint)
    vec_fn = lambda t: curve.point_at(t) - p  # noqa: E731
    return _turning_count(curve.samples - p, curve.params, vec_fn, min_dist,
                          DistanceViolation, "sample too close to basepoint")


# -- predicates on polylines --------------------------------------------------

def _orient_signs(a, b, c) -> np.ndarray:
    """Signs (-1, 0 or 1) of twice the signed area of the triangles (a, b, c)
    for (n, 2) point arrays, exact for finite points: a float sign the static
    filter cannot vouch for is recomputed by _exact_orient_sign."""
    left = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
    right = (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    det = left - right
    sign = np.sign(det)
    bound = _ORIENT_ERRBOUND * (np.abs(left) + np.abs(right)) + _ORIENT_TINY
    for k in (np.abs(det) <= bound).nonzero()[0].tolist():
        coords = a[k].tolist() + b[k].tolist() + c[k].tolist()
        if all(map(math.isfinite, coords)):
            sign[k] = _exact_orient_sign(coords)
    return sign


def _exact_orient_sign(coords) -> int:
    """Sign of the orientation determinant of finite (ax, ay, bx, by, cx, cy)
    in exact rational arithmetic: each float is n / 2^e, so all six scale to
    integers over their largest denominator (fractions.Fraction gives the
    same sign at about five times the cost)."""
    ratios = [v.as_integer_ratio() for v in coords]
    den = max(d for _, d in ratios)
    ax, ay, bx, by, cx, cy = [n * (den // d) for n, d in ratios]
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def _collinear_on(a, b, c):
    """Given orient2(a,b,c) == 0, is c inside the bbox of segment ab?"""
    return ((np.minimum(a[..., 0], b[..., 0]) <= c[..., 0])
            & (c[..., 0] <= np.maximum(a[..., 0], b[..., 0]))
            & (np.minimum(a[..., 1], b[..., 1]) <= c[..., 1])
            & (c[..., 1] <= np.maximum(a[..., 1], b[..., 1])))


def polyline_self_intersects(samples: np.ndarray, closed: bool = True) -> bool:
    """Whether two non-adjacent segments cross or touch, at sample resolution.

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
    a, b = (pts, _cyclic_next(pts)) if closed else (pts[:-1], pts[1:])
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
    keep = (lo[i, 1] <= hi[j, 1]) & (lo[j, 1] <= hi[i, 1]) & (gap > 1)
    if closed:
        keep &= gap != m - 1   # the closing segment meets segment 0
    i, j = i[keep], j[keep]
    if i.size == 0:
        return False
    p1, p2 = a[i], b[i]
    q1, q2 = a[j], b[j]
    s1 = _orient_signs(p1, p2, q1)
    s2 = _orient_signs(p1, p2, q2)
    s3 = _orient_signs(q1, q2, p1)
    s4 = _orient_signs(q1, q2, p2)
    proper = (s1 * s2 < 0) & (s3 * s4 < 0)
    touch = (((s1 == 0) & _collinear_on(p1, p2, q1))
             | ((s2 == 0) & _collinear_on(p1, p2, q2))
             | ((s3 == 0) & _collinear_on(q1, q2, p1))
             | ((s4 == 0) & _collinear_on(q1, q2, p2)))
    return bool(np.any(proper | touch))


def point_in_polygon(point, samples: np.ndarray) -> bool:
    """Even-odd ray parity with a horizontal ray toward +x."""
    p = _as_point(point)
    x0, y0 = samples[:, 0], samples[:, 1]
    x1, y1 = _cyclic_next(samples).T
    straddles = (y0 <= p[1]) != (y1 <= p[1])
    dy = np.where(y1 != y0, y1 - y0, 1.0)
    x_hit = x0 + (p[1] - y0) * (x1 - x0) / dy
    return int(np.count_nonzero(straddles & (x_hit > p[0]))) % 2 == 1


def distance_to_polyline(point, samples: np.ndarray, closed: bool = True) -> float:
    """Min distance from a point to a (closed) polyline."""
    p = _as_point(point)
    a = np.asarray(samples, dtype=float)
    b = _cyclic_next(a) if closed else a[1:]
    if not closed:
        a = a[:-1]
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    denom = np.where(denom == 0.0, 1.0, denom)
    u = np.clip(np.einsum("ij,ij->i", p - a, ab) / denom, 0.0, 1.0)
    foot = a + u[:, None] * ab
    return float(np.hypot(*(foot - p).T).min())


def interior_point(curve: ClosedCurve) -> np.ndarray:
    """A certified interior point: step inward along the bisector at the
    leftmost sample, validated by ray-casting parity and edge clearance."""
    pts = curve.samples
    n = len(pts)
    v_i = int(np.lexsort((pts[:, 1], pts[:, 0]))[0])
    v = pts[v_i]
    prev_pt, next_pt = pts[v_i - 1], pts[(v_i + 1) % n]
    u1 = prev_pt - v
    u2 = next_pt - v
    u1 = u1 / np.hypot(*u1)
    u2 = u2 / np.hypot(*u2)
    bis = u1 + u2
    if np.hypot(*bis) < 1e-12:
        bis = np.array([-u2[1], u2[0]])
        if bis[0] < 0:
            bis = -bis  # interior lies toward +x at the leftmost vertex
    bis = bis / np.hypot(*bis)
    base = min(np.hypot(*(prev_pt - v)), np.hypot(*(next_pt - v)))
    for k in range(60):
        delta = 0.5 * base / 2.0 ** k
        cand = v + delta * bis
        if distance_to_polyline(cand, pts) < 0.1 * delta:
            continue
        if point_in_polygon(cand, pts):
            return cand
    raise InteriorPointNotFound(f"no certified interior point near sample {v_i}")


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
    # complex numbers order by real part, then imaginary part
    v = int(np.argmin(_as_complex(pts)))
    turn = _orient_signs(pts[[v - 1]], pts[[v]], pts[[(v + 1) % len(pts)]])[0]
    if turn == 0:
        raise NotSimple(f"the segments at sample {v} overlap; curve is not simple")
    return bool(turn > 0)
