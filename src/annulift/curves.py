"""Closed polyline curves, robust winding numbers, orientation.

A ClosedCurve is a cyclic sample list; the polyline through the samples is
the curve every operation acts on. When a continuous parametrization is
attached, adaptive refinement queries it instead of chord midpoints, so a
coarsely sampled analytic curve still gets exact integer winding numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    oriented: Optional[bool] = field(default=None, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.samples, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("samples must be an (n, 2) array")
        if len(pts) < 3:
            raise ValueError("a closed curve needs at least 3 samples")
        if not np.all(np.isfinite(pts)):
            raise ValueError("samples must be finite")
        gaps = np.hypot(*(np.roll(pts, -1, axis=0) - pts).T)
        if np.any(gaps == 0.0):
            i = int(np.flatnonzero(gaps == 0.0)[0])
            raise ValueError(f"consecutive samples {i} and {(i + 1) % len(pts)} coincide")
        object.__setattr__(self, "samples", pts)
        if self.params is None:
            t = np.arange(len(pts), dtype=float) / len(pts)
        else:
            t = np.asarray(self.params, dtype=float)
            if t.shape != (len(pts),):
                raise ValueError("params must match samples in length")
            if np.any(np.diff(t) <= 0.0):
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
        t0 = self.params[0]
        tt = t0 + np.mod(t - t0, 1.0)
        px = np.append(self.params, t0 + 1.0)
        closed = np.vstack([self.samples, self.samples[:1]])
        return np.stack(
            [np.interp(tt, px, closed[:, 0]), np.interp(tt, px, closed[:, 1])],
            axis=-1,
        )

    def refined(self, extra_t) -> "ClosedCurve":
        """Insert samples at the given parameters (refinement never reorders)."""
        extra = np.mod(np.asarray(extra_t, dtype=float), 1.0)
        t = np.unique(np.concatenate([self.params, extra]))
        return ClosedCurve(self.point_at(t), params=t, curve_fn=self.curve_fn,
                           oriented=self.oriented)

    def reversed(self) -> "ClosedCurve":
        c = float(self.params[-1])
        rev_fn = None
        if self.curve_fn is not None:
            fwd = self.curve_fn
            rev_fn = lambda t: fwd(np.mod(c - t, 1.0))  # noqa: E731
        return ClosedCurve(self.samples[::-1], params=c - self.params[::-1],
                           curve_fn=rev_fn,
                           oriented=None if self.oriented is None else not self.oriented)

    @property
    def diameter(self) -> float:
        spans = self.samples.max(axis=0) - self.samples.min(axis=0)
        return float(np.hypot(spans[0], spans[1]))


def circle(radius: float, n: int = 256, center=(0.0, 0.0)) -> ClosedCurve:
    """Counterclockwise circle with the exact parametrization attached."""
    cx, cy = float(center[0]), float(center[1])

    def fn(t):
        ang = TWO_PI * np.asarray(t, dtype=float)
        return np.stack([cx + radius * np.cos(ang), cy + radius * np.sin(ang)], axis=-1)

    t = np.arange(n, dtype=float) / n
    return ClosedCurve(fn(t), params=t, curve_fn=fn, oriented=True)


def rectangle(x0: float, x1: float, y0: float, y1: float, per_side: int = 16) -> ClosedCurve:
    """Counterclockwise rectangle boundary; corners are always samples."""
    if not (x1 > x0 and y1 > y0):
        raise ValueError("rectangle needs x1 > x0 and y1 > y0")
    k = max(1, int(per_side))
    u = np.arange(k, dtype=float) / k
    bottom = np.stack([x0 + (x1 - x0) * u, np.full(k, y0)], axis=-1)
    right = np.stack([np.full(k, x1), y0 + (y1 - y0) * u], axis=-1)
    top = np.stack([x1 - (x1 - x0) * u, np.full(k, y1)], axis=-1)
    left = np.stack([np.full(k, x0), y1 - (y1 - y0) * u], axis=-1)
    return ClosedCurve(np.vstack([bottom, right, top, left]), oriented=True)


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
    v = np.asarray(vectors, dtype=float)
    inserted = 0
    while True:
        norms = np.hypot(v[:, 0], v[:, 1])
        if not norms.max() < np.inf:  # NaN fails the comparison too
            i = int(np.argmin(np.isfinite(norms)))
            raise NonFiniteDisplacement(
                f"non-finite vector ({v[i, 0]}, {v[i, 1]}) at t={t[i] % 1.0:.6f}")
        if norms.min() <= min_norm:
            i = int(norms.argmin())
            raise too_close_cls(
                f"{too_close_msg}: |v|={norms[i]:.3e} <= {min_norm:.3e} at t={t[i] % 1.0:.6f}")
        z = v[:, 0] + 1j * v[:, 1]
        steps = np.angle(np.roll(z, -1) / z)
        bad = np.flatnonzero(np.abs(steps) >= HALF_PI)
        if bad.size == 0:
            total = steps.sum() / TWO_PI
            nearest = round(total)
            if abs(total - nearest) > _WINDING_RESIDUAL:
                raise WindingResidualError(
                    f"turning {total:.6f} not within {_WINDING_RESIDUAL} of an integer")
            return int(nearest)
        inserted += bad.size
        if inserted > _REFINEMENT_BUDGET:
            raise RefinementBudgetExceeded(
                f"needed more than {_REFINEMENT_BUDGET} refinement points")
        t_next = np.concatenate([t[1:], t[:1] + 1.0])
        t_mid = 0.5 * (t[bad] + t_next[bad])
        v_mid = np.asarray(vec_fn(t_mid), dtype=float).reshape(-1, 2)
        t = np.insert(t, bad + 1, t_mid)
        v = np.insert(v, bad + 1, v_mid, axis=0)


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

def _orient2(a, b, c):
    """Twice the signed area of triangle (a, b, c); broadcasts."""
    return ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
            - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))


def _collinear_on(a, b, c):
    """Given orient2(a,b,c) == 0, is c inside the bbox of segment ab?"""
    return ((np.minimum(a[..., 0], b[..., 0]) <= c[..., 0])
            & (c[..., 0] <= np.maximum(a[..., 0], b[..., 0]))
            & (np.minimum(a[..., 1], b[..., 1]) <= c[..., 1])
            & (c[..., 1] <= np.maximum(a[..., 1], b[..., 1])))


def polyline_self_intersects(samples: np.ndarray, closed: bool = True) -> bool:
    """Exact segment-pair crossing test at sample resolution (O(n^2), vectorized)."""
    pts = np.asarray(samples, dtype=float)
    n = len(pts)
    if n < 4:
        return False
    a = pts
    b = np.roll(pts, -1, axis=0) if closed else None
    if not closed:
        a = pts[:-1]
        b = pts[1:]
    m = len(a)
    i_idx, j_idx = np.triu_indices(m, k=2)
    if closed:
        keep = ~((i_idx == 0) & (j_idx == m - 1))
        i_idx, j_idx = i_idx[keep], j_idx[keep]
    if i_idx.size == 0:
        return False
    p1, p2 = a[i_idx], b[i_idx]
    q1, q2 = a[j_idx], b[j_idx]
    d1 = _orient2(p1, p2, q1)
    d2 = _orient2(p1, p2, q2)
    d3 = _orient2(q1, q2, p1)
    d4 = _orient2(q1, q2, p2)
    proper = (d1 * d2 < 0) & (d3 * d4 < 0)
    touch = (((d1 == 0) & _collinear_on(p1, p2, q1))
             | ((d2 == 0) & _collinear_on(p1, p2, q2))
             | ((d3 == 0) & _collinear_on(q1, q2, p1))
             | ((d4 == 0) & _collinear_on(q1, q2, p2)))
    return bool(np.any(proper | touch))


def point_in_polygon(point, samples: np.ndarray) -> bool:
    """Even-odd ray parity with a horizontal ray toward +x."""
    p = _as_point(point)
    x0, y0 = samples[:, 0], samples[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    straddles = (y0 <= p[1]) != (y1 <= p[1])
    dy = np.where(y1 != y0, y1 - y0, 1.0)
    x_hit = x0 + (p[1] - y0) * (x1 - x0) / dy
    return int(np.count_nonzero(straddles & (x_hit > p[0]))) % 2 == 1


def distance_to_polyline(point, samples: np.ndarray, closed: bool = True) -> float:
    """Min distance from a point to a (closed) polyline."""
    p = _as_point(point)
    a = np.asarray(samples, dtype=float)
    b = np.roll(a, -1, axis=0) if closed else a[1:]
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
    """True when the curve winds once counterclockwise around its interior.

    Requires the sampled curve to be simple; the simplicity guarantee is at
    sample resolution only.
    """
    if polyline_self_intersects(curve.samples):
        raise NotSimple("sampled segments cross")
    p0 = interior_point(curve)
    clearance = distance_to_polyline(p0, curve.samples)
    w = winding_number(curve, p0, min_dist=0.5 * clearance)
    if abs(w) != 1:
        raise NotSimple(f"winding {w} about an interior point; curve is not simple")
    return w == 1
