"""Annulus self-maps represented by lifts to the universal cover.

Convention, fixed once and used everywhere: the cover is the (x, y) plane,
the covering map sends (x, y) to the plane point of angle 2*pi*x and radius
exp(-2*pi*y). So y -> +inf is the end at the origin and y -> -inf the end at
infinity. A lift of a degree-d map satisfies F(x+1, y) = F(x, y) + (d, 0).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import operator
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .curves import _as_point
from .errors import (
    EquivarianceViolation,
    GridFormatError,
    ParamOutOfRange,
    UnknownZooEntry,
)

TWO_PI = 2.0 * np.pi

_EQUIVARIANCE_TOL = 1e-9  # max deck-equivariance defect on a check grid
_EXP_NORMAL_MIN = math.log(np.finfo(float).tiny)  # e^a is a normal float iff a >= this
# cells a side of a block of a tabulated lift's region-bound table; it
# divides 16, the rows of cells that _grid_bounds takes at a time
_BOUND_BLOCK = 4

_DATA_DIR = Path(__file__).parent / "data"


@dataclass(frozen=True)
class AnnulusPoint:
    """Point of the annulus: angle theta in [0, 1), cover height y."""

    theta: float
    y: float

    def __post_init__(self):
        th = float(np.mod(self.theta, 1.0))
        if th >= 1.0:  # np.mod(-tiny, 1.0) can round up to exactly 1.0
            th = 0.0
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "y", float(self.y))

    def lift(self, j: int = 0) -> np.ndarray:
        """The cover point (theta + j, y)."""
        return np.array([self.theta + j, self.y], dtype=float)


def project(p) -> AnnulusPoint:
    """Quotient a cover point by the deck translation (x, y) -> (x+1, y)."""
    arr = _as_point(p)
    return AnnulusPoint(arr[0], arr[1])


def annulus_distance(a: AnnulusPoint, b: AnnulusPoint) -> float:
    dt = abs(a.theta - b.theta)
    return float(np.hypot(min(dt, 1.0 - dt), a.y - b.y))


@dataclass(frozen=True)
class LiftMap:
    """A lift F of an annulus map, with its degree.

    ``fn`` is vectorized: it maps an (..., 2) array of cover points to their
    images, and is defined on the whole plane. ``lipschitz`` is a declared
    bound L with |F(p) - F(q)| <= L |p - q|, which makes fixed-point
    exclusion a proof (see ``fixed_points``); every shipped map and
    tabulated lift declares one, and isolation refuses None.
    ``region_bound``, when set, maps a region (x0, x1, y0, y1) to a bound
    that holds over it, at most ``lipschitz``; only ``restrict`` reads it.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    degree: int
    name: str = ""
    y_window: tuple[float, float] = (-2.0, 2.0)  # default sweep window for fixed points
    lipschitz: Optional[float] = None
    region_bound: Optional[Callable[[tuple], float]] = None

    def __call__(self, pts) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(pts, dtype=float)), dtype=float)


def make_lift(fn, degree: int, name: str = "", y_window=(-2.0, 2.0),
              lipschitz: Optional[float] = None) -> LiftMap:
    """Construct a LiftMap and spot-check deck equivariance on a small grid.

    A declared ``lipschitz`` bound must be finite and >= 0, and no two
    adjacent points of the same grid may contradict it; otherwise
    ParamOutOfRange is raised. The check can only refute a bound, never
    prove one. A lift without one cannot be isolated or swept.
    """
    if lipschitz is not None:
        lipschitz = float(lipschitz)
        if not (np.isfinite(lipschitz) and lipschitz >= 0.0):
            raise ParamOutOfRange(
                f"a Lipschitz bound must be finite and >= 0, got {lipschitz}")
    lift = LiftMap(fn=fn, degree=int(degree), name=name, y_window=tuple(y_window),
                   lipschitz=lipschitz)
    spec = GridSpec(nx=4, ny=4, x_range=(0.0, 1.0), y_range=lift.y_window)
    _equivariance_defect(lift, spec, require_degree=int(degree))
    if lipschitz is not None:
        _check_lipschitz(lift, spec)
    return lift


@dataclass(frozen=True)
class GridSpec:
    """Regular nx by ny sample grid over x_range x y_range, row by row in y."""

    nx: int = 8
    ny: int = 8
    x_range: tuple[float, float] = (0.0, 1.0)
    y_range: tuple[float, float] = (-1.0, 1.0)

    def points(self) -> np.ndarray:
        xs = np.linspace(self.x_range[0], self.x_range[1], self.nx)
        ys = np.linspace(self.y_range[0], self.y_range[1], self.ny)
        gx, gy = np.meshgrid(xs, ys)
        return np.stack([gx.ravel(), gy.ravel()], axis=-1)


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty 1-D float array, bit for bit, without the
    numpy.ma import that np.median makes on first use (about 13 ms and 1.3 MB
    a process). A NaN anywhere gives NaN, and like np.mean's sum, which
    starts from 0.0, a median of -0.0 gives 0.0."""
    s = np.sort(values)
    last = float(s[-1])
    if last != last:   # NaN sorts last
        return last
    k = len(s) // 2
    if len(s) % 2:
        return float(s[k]) + 0.0
    return (float(s[k - 1]) + float(s[k]) + 0.0) / 2


def _equivariance_defect(F: LiftMap, grid: GridSpec, require_degree: int) -> int:
    pts = grid.points()
    diff = F(pts + np.array([1.0, 0.0])) - F(pts)
    d_est = int(np.round(_median(diff[:, 0])))
    defect = np.maximum(np.abs(diff[:, 0] - d_est), np.abs(diff[:, 1]))
    worst = int(np.argmax(defect))
    if defect[worst] > _EQUIVARIANCE_TOL:
        raise EquivarianceViolation(
            f"deck equivariance defect {defect[worst]:.3e} at grid point "
            f"({pts[worst, 0]:.4f}, {pts[worst, 1]:.4f})",
            point=tuple(pts[worst]), defect=float(defect[worst]))
    if d_est != require_degree:
        raise EquivarianceViolation(
            f"declared degree {require_degree} but observed {d_est}",
            point=tuple(pts[worst]), defect=float(d_est - require_degree))
    return d_est


def _norm_bound(a2: float, b2: float, p: float) -> float:
    """Spectral norm bound of a 2 x 2 matrix with columns c1, c2, |c1|^2 <= a2,
    |c2|^2 <= b2, |c1 . c2| <= p: exact at equality, nondecreasing in each."""
    return math.sqrt(0.5 * (a2 + b2 + math.hypot(a2 - b2, 2.0 * p)))


def _check_lipschitz(F: LiftMap, grid: GridSpec) -> None:
    """Raise ParamOutOfRange when two adjacent grid points, in a row or a
    column, move apart by more than F.lipschitz times their distance."""
    pts = grid.points().reshape(grid.ny, grid.nx, 2)
    img = F(pts)
    for p, q, fp, fq in ((pts[:, 1:], pts[:, :-1], img[:, 1:], img[:, :-1]),
                         (pts[1:], pts[:-1], img[1:], img[:-1])):
        step = np.linalg.norm(p - q, axis=-1).ravel()
        moved = np.linalg.norm(fp - fq, axis=-1).ravel()
        excess = moved - F.lipschitz * step
        worst = int(np.argmax(excess))
        if not excess[worst] <= _EQUIVARIANCE_TOL:  # NaN images too
            a, b = p.reshape(-1, 2)[worst], q.reshape(-1, 2)[worst]
            raise ParamOutOfRange(
                f"declared Lipschitz bound {F.lipschitz} is contradicted: "
                f"|F(p) - F(q)| = {moved[worst]:.6g} > {F.lipschitz} * {step[worst]:.6g} "
                f"for p = ({a[0]:.4f}, {a[1]:.4f}), q = ({b[0]:.4f}, {b[1]:.4f})")


def degree_check(F: LiftMap, grid: Optional[GridSpec] = None) -> int:
    """Verify F(x+1, y) = F(x, y) + (d, 0) on a grid and return d.

    Raises EquivarianceViolation (with the worst offending grid point) when
    the offset second coordinate is nonzero, the first coordinate is not a
    constant integer, or the constant disagrees with the declared degree.
    """
    return _equivariance_defect(F, grid or GridSpec(), require_degree=F.degree)


def deck_translate(F: LiftMap, k: int) -> LiftMap:
    """The lift F + (k, 0); same degree, same projected annulus map. A k of
    no integer type, such as a float, raises TypeError instead of being
    truncated."""
    k = operator.index(k)
    if k == 0:
        return F
    offset = np.array([float(k), 0.0])
    return LiftMap(fn=lambda pts, _f=F.fn: np.asarray(_f(pts), dtype=float) + offset,
                   degree=F.degree,
                   name=f"{F.name}+({k},0)" if F.name else f"translate({k})",
                   y_window=F.y_window, lipschitz=F.lipschitz, region_bound=F.region_bound)


def restrict(F: LiftMap, region) -> LiftMap:
    """F with its Lipschitz bound over the region (x0, x1, y0, y1), from its
    region_bound, in place of its global one; F itself when it declares no
    region bound. The returned map's bound holds only over the region, so
    every cell proved under it must lie inside."""
    if F.region_bound is None:
        return F
    return dataclasses.replace(F, lipschitz=F.region_bound(region))


def iterate(F: LiftMap, n: int) -> LiftMap:
    """n-fold composition, degree F.degree**n, Lipschitz bound F.lipschitz**n;
    the iterate has no region bound, since its orbit leaves the region."""
    n = int(n)
    if n < 1:
        raise ValueError("iterate needs n >= 1")
    if n == 1:
        return F

    def fn(pts):
        out = np.asarray(pts, dtype=float)
        for _ in range(n):
            out = np.asarray(F.fn(out), dtype=float)
        return out

    return LiftMap(fn=fn, degree=F.degree ** n,
                   name=f"{F.name}^{n}" if F.name else f"iterate({n})",
                   y_window=F.y_window,
                   lipschitz=None if F.lipschitz is None else F.lipschitz ** n)


class ProjectedImages(np.ndarray):
    """Plane images returned by a projected_plane_map callable, tagged with
    the lift ``lift``, the array ``points`` they are the images of, and the
    lift's cover images ``cover`` of those points. The tag belongs to the
    returned array alone: an array derived from it, or a view of it, has
    every tag None, since nothing is copied on derivation."""

    lift = points = cover = None


def projected_plane_map(F: LiftMap) -> Callable[[np.ndarray], np.ndarray]:
    """The induced self-map of the punctured plane, for index computations.

    Well defined because any two lifts of the angle differ by an integer and
    F is equivariant. Its images are a ProjectedImages array tagged with F,
    the points (as np.asarray gives them) and F's cover images, from which
    ``index.lefschetz_index`` decides a circle through ``proofs.circle_index``.
    """

    def fn(pts):
        pts = np.asarray(pts, dtype=float)
        r = np.hypot(pts[..., 0], pts[..., 1])
        if not r.all():
            raise ValueError("plane map is undefined at the origin")
        # cover point (angle / 2pi, -log r / 2pi); the image (x, y) goes back
        # as e^(-2pi y) (cos 2pi x, sin 2pi x); coordinates are written in place
        cover = np.empty(pts.shape)
        x, y = cover[..., 0], cover[..., 1]
        np.arctan2(pts[..., 1], pts[..., 0], out=x)
        x /= TWO_PI
        np.log(r, out=y)
        y /= -TWO_PI
        img = F(cover)
        rad = img[..., 1:] * -TWO_PI   # a trailing axis keeps it an array
        np.exp(rad, out=rad)
        ang = TWO_PI * img[..., 0]
        out = np.empty(img.shape)
        np.cos(ang, out=out[..., 0])
        np.sin(ang, out=out[..., 1])
        out *= rad
        out = out.view(ProjectedImages)
        out.lift, out.points, out.cover = F, pts, img
        return out

    return fn


# -- built-in map zoo ----------------------------------------------------------

PERTURBATION_MAX = 1.0 / (4.0 * np.pi)  # keeps the angular coordinate monotone


def _int_param(value, name: str) -> int:
    fv = float(value)   # an int too large for a float raises OverflowError
    if not (math.isfinite(fv) and fv == int(fv)):
        raise ParamOutOfRange(f"{name} must be a finite integer, got {value!r}")
    return int(fv)


def _power(d: int) -> LiftMap:
    d = _int_param(d, "d")
    if d == 0:
        raise ParamOutOfRange("power map needs d != 0")
    return make_lift(lambda pts: float(d) * np.asarray(pts, dtype=float), d,
                     name=f"power({d})", lipschitz=abs(d))


def _smooth_bump(y: np.ndarray) -> np.ndarray:
    """Odd, smooth, supported in |y| < 1, vanishing at 0. With s = 1/(1 - y^2),
    bump = y e^(1-s) peaks where 2y^2 = (1 - y^2)^2 at 0.35897 < 0.36, and
    bump' = e^(1-s)(1 + 2s - 2s^2), 1 at s = 1, falls to its minimum at
    s = (3 + sqrt 7)/2, -(4 + 2 sqrt 7) e^(-(1 + sqrt 7)/2) = -1.50114, then
    rises to 0: |bump'| < 1.51. Where e^(1-s) would be subnormal, the bump
    is 0 (its true size is below 2.3e-308): exp(-inf) is an exact 0, which
    raises no underflow."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    yi = y[inside]
    arg = 1.0 - 1.0 / (1.0 - yi * yi)
    arg[arg < _EXP_NORMAL_MIN] = -np.inf
    out[inside] = yi * np.exp(arg)
    return out


def _perturbed_power(d: int, eps: float) -> LiftMap:
    d = _int_param(d, "d")
    if d == 0:
        raise ParamOutOfRange("perturbed power map needs d != 0")
    eps = float(eps)
    if not abs(eps) < PERTURBATION_MAX:   # NaN too
        raise ParamOutOfRange(
            f"|eps| must stay below 1/(4*pi) ~ {PERTURBATION_MAX:.6f}, got {eps}")

    def fn(pts):
        # (d*x + eps*sin(2pi x)*bump(y), d*y), written into one array
        with np.errstate(under="ignore"):   # errs by < 2^-1074, below the rounding
            pts = np.asarray(pts, dtype=float)
            x, y = pts[..., 0], pts[..., 1]
            out = np.empty(pts.shape)
            ox, oy = out[..., 0], out[..., 1]
            wobble = np.empty(x.shape)   # eps*sin(2pi x)*bump(y), contiguous
            np.multiply(TWO_PI, x, out=wobble)
            np.sin(wobble, out=wobble)
            np.multiply(eps, wobble, out=wobble)
            np.multiply(wobble, _smooth_bump(y), out=wobble)
            np.multiply(d, x, out=ox)
            np.add(ox, wobble, out=ox)
            np.multiply(d, y, out=oy)
            return out

    # Jacobian columns (d + 2pi eps cos(2pi x) bump(y), 0) and
    # (eps sin(2pi x) bump'(y), d), with the bump maxima of _smooth_bump
    a, b = abs(d) + TWO_PI * abs(eps) * 0.36, abs(eps) * 1.51
    return make_lift(fn, d, name=f"perturbed_power({d},{eps})",
                     lipschitz=_norm_bound(a * a, b * b + float(d) * d, a * b))


def _ends_lift(d: int, lam: float, attracting: bool) -> LiftMap:
    d = _int_param(d, "d")
    if d == 0:
        raise ParamOutOfRange("ends maps need d != 0")
    lam = float(lam)
    if not (0.0 < lam <= 1.0):
        raise ParamOutOfRange(f"lambda must lie in (0, 1], got {lam}")
    slope = lam if attracting else -lam

    def fn(pts):
        # (d*x, y + slope*y/(1 + y*y)), written into one array
        with np.errstate(under="ignore"):   # errs by < 2^-1074, below the rounding
            pts = np.asarray(pts, dtype=float)
            x, y = pts[..., 0], pts[..., 1]
            out = np.empty(pts.shape)
            ox, oy = out[..., 0], out[..., 1]
            np.multiply(slope, y, out=ox)     # scratch until d*x
            np.multiply(y, y, out=oy)
            np.add(1.0, oy, out=oy)
            np.divide(ox, oy, out=oy)
            np.add(y, oy, out=oy)
            np.multiply(d, x, out=ox)
            return out

    # the y-derivative 1 + slope (1 - y^2)/(1 + y^2)^2 lies in [1 - lam, 1 + lam]
    kind = "ends_attracting" if attracting else "ends_repelling"
    return make_lift(fn, d, name=f"{kind}({d},{lam})", lipschitz=max(abs(d), 1.0 + lam))


def _end_swap(d: int) -> LiftMap:
    d = _int_param(d, "d")
    if d == 0:
        raise ParamOutOfRange("end swap map needs d != 0")

    def fn(pts):
        pts = np.asarray(pts, dtype=float)
        # (d*x, -y), written into one array
        out = np.empty(pts.shape)
        np.multiply(d, pts[..., 0], out=out[..., 0])
        np.negative(pts[..., 1], out=out[..., 1])
        return out

    return make_lift(fn, d, name=f"end_swap({d})", lipschitz=max(abs(d), 1))


ZOO_SCHEMAS = {
    "power": {
        "params": {"d": "nonzero integer degree"},
        "about": "linear lift (d*x, d*y); the model map with |d-1| fixed annulus points",
    },
    "perturbed_power": {
        "params": {"d": "nonzero integer degree",
                   "eps": "float, |eps| < 1/(4*pi)"},
        "about": "power map plus a compactly supported angular wobble; the circle y=0 "
                 "stays invariant with unchanged circle dynamics",
    },
    "ends_attracting": {
        "params": {"d": "nonzero integer degree", "lam": "float in (0, 1]"},
        "about": "(d*x, y + lam*y/(1+y^2)); both ends attract, y=0 invariant",
    },
    "ends_repelling": {
        "params": {"d": "nonzero integer degree", "lam": "float in (0, 1]"},
        "about": "(d*x, y - lam*y/(1+y^2)); both ends repel, y=0 invariant",
    },
    "end_swap": {
        "params": {"d": "nonzero integer degree (d < 0 intended)"},
        "about": "(d*x, -y); interchanges the two ends of the annulus",
    },
    "counterexample_deg_minus1": {
        "params": {},
        "about": "degree -1 tabulated lift that is fixed point free on its invariant "
                 "curve set; built from the shipped geometry data file",
    },
}


def zoo(name: str, **params) -> LiftMap:
    """Construct a built-in lift by name. See ZOO_SCHEMAS for parameters."""
    builders = {
        "power": _power,
        "perturbed_power": _perturbed_power,
        "ends_attracting": lambda d, lam: _ends_lift(d, lam, True),
        "ends_repelling": lambda d, lam: _ends_lift(d, lam, False),
        "end_swap": _end_swap,
        "counterexample_deg_minus1": counterexample_deg_minus1,
    }
    if name not in builders:
        raise UnknownZooEntry(f"unknown map family {name!r}; known: {sorted(builders)}")
    try:
        return builders[name](**params)
    except (TypeError, OverflowError) as exc:
        raise ParamOutOfRange(f"bad parameters for {name}: {exc}") from exc


# -- tabulated lifts (bilinear grids) ------------------------------------------

def grid_lift_from_values(values: np.ndarray, degree: int, x0: float,
                          y0: float, y1: float, name: str = "grid_lift") -> LiftMap:
    """Lift from F-values on a regular grid over one fundamental domain.

    ``values`` has shape (ny, nx, 2): columns at x = x0 + i/nx for
    i = 0..nx-1 (the wrap column is synthesized from column 0 by
    equivariance, which makes the extension exact), rows at ny evenly spaced
    y levels on [y0, y1], which is also the lift's y_window. Evaluation
    clamps y outside [y0, y1], and a point with a NaN coordinate evaluates
    to NaN. The lift declares its Lipschitz bound and, as its region bound
    (``restrict``), the largest bound of the cell blocks that hold the
    cells a region meets (_grid_bounds).
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 3 or values.shape[2] != 2 or values.shape[0] < 2 or values.shape[1] < 2:
        raise ValueError("values must have shape (ny >= 2, nx >= 2, 2)")
    degree = int(degree)
    ny, nx, _ = values.shape
    # the node table as two (ny, nx + 1) coordinate planes, fx then fy; the
    # wrap column nx is column 0 shifted by (degree, 0)
    planes = np.empty((2, ny, nx + 1))
    planes[:, :, :nx] = values.transpose(2, 0, 1)
    planes[:, :, nx] = values[:, 0].T + np.array([[float(degree)], [0.0]])
    # node (iy, ix) of a plane at iy*(nx + 1) + ix, so a cell's four corners
    # (lower left, lower right, upper left, upper right) sit at its lower
    # left node plus `corners`
    table = planes.reshape(2, -1)
    corners = np.array([[0], [1], [nx + 1], [nx + 2]])
    origin = np.array([x0, y0])
    step_x, step_y = 1.0 / nx, (y1 - y0) / (ny - 1)
    step = np.array([step_x, step_y])
    span = y1 - y0
    last = np.array([nx - 1.0, ny - 2.0])   # the last cell's lower left node
    width = np.array([1, nx + 1])
    shift = float(degree)

    def fn(pts):
        pts = np.asarray(pts, dtype=float)
        # (N, 2): x - x0 reduced to [0, 1) by whole periods k, y - y0 clamped
        # to the window, both in node steps
        g = pts.reshape(-1, 2) - origin
        k = np.floor(g[:, 0])
        g[:, 0] -= k
        gy = g[:, 1]
        np.maximum(gy, 0.0, out=gy)
        np.minimum(gy, span, out=gy)
        g /= step
        # the cell's lower left node: g is >= 0 or NaN, so truncation floors
        # it; the clamp runs in float before the cast, and fmin sends NaN to
        # the last cell, so a NaN coordinate evaluates to NaN without
        # numpy's invalid-cast warning
        node = np.fmin(g, last).astype(np.intp)
        g -= node
        ux, uy = g.T
        vx, vy = (1.0 - g).T
        c = table.take(node.dot(width) + corners, axis=1)   # (2, 4, N)
        rows = vx * c[:, 0::2]   # (2, 2, N): fx, fy by lower, upper row
        rows += ux * c[:, 1::2]
        out = vy * rows[:, 0]
        out += uy * rows[:, 1]
        out[0] += shift * k
        return out.T.reshape(pts.shape)

    lipschitz, blocks = _grid_bounds(planes, step_x, step_y)
    b = _BOUND_BLOCK

    def region_bound(region) -> float:
        # the cells the region meets, one margin cell on each side against
        # the rounding of their indices: rows clamped to the end cells (a
        # clamped y keeps its end row's slopes), columns taken mod nx
        # (equivariance repeats the slopes), then the blocks holding them
        rx0, rx1, ry0, ry1 = map(float, region)
        ix0 = math.floor((rx0 - x0) * nx) - 1
        ix1 = math.floor((rx1 - x0) * nx) + 1
        iy0 = min(max(math.floor((ry0 - y0) / step_y) - 1, 0), ny - 2)
        iy1 = min(max(math.floor((ry1 - y0) / step_y) + 1, 0), ny - 2)
        rows = blocks[iy0 // b:iy1 // b + 1]
        if ix1 - ix0 + 1 >= nx:
            return float(rows.max())
        lo, hi = ix0 % nx // b, ix1 % nx // b
        if ix0 % nx <= ix1 % nx:
            return float(rows[:, lo:hi + 1].max())
        return float(max(rows[:, lo:].max(), rows[:, :hi + 1].max()))   # wraps

    lift = make_lift(fn, degree, name=name, y_window=(y0, y1), lipschitz=lipschitz)
    return dataclasses.replace(lift, region_bound=region_bound)


def _grid_bounds(planes: np.ndarray, step_x: float, step_y: float
                 ) -> tuple[float, np.ndarray]:
    """(L, table): a Lipschitz bound L of the bilinear interpolant of the
    (2, ny, nx + 1) node planes, and one over each block of b = _BOUND_BLOCK
    cells a side, by rows then columns, (ceil((ny - 1) / b), ceil(nx / b)).
    In a cell dF/dx mixes its lower and upper edge differences over step_x
    and dF/dy its left and right ones over step_y, and their dot product,
    bilinear, peaks at a corner: _norm_bound of those maxima bounds the
    cell. L is _norm_bound of their maxima over all cells, so it is at least
    every cell's bound, and the table is clipped to it against rounding.
    Clamping y only shrinks slopes. Blocks of 16 rows keep temporaries
    small; a NaN node gives NaN."""
    dot = lambda a, b: a[0] * b[0] + a[1] * b[1]   # noqa: E731
    side = _BOUND_BLOCK
    cols = range(0, planes.shape[2] - 1, side)
    peaks, table = [], []   # per row block: max |c1|^2, |c2|^2, |c1 . c2|; its cell blocks
    for i in range(0, planes.shape[1] - 1, 16):
        block = planes[:, i:i + 17]
        h = np.diff(block, axis=2) / step_x
        v = np.diff(block, axis=1) / step_y
        hh, vv = dot(h, h), dot(v, v)
        a2 = np.maximum(hh[:-1], hh[1:])          # a cell's lower or upper edge
        b2 = np.maximum(vv[:, :-1], vv[:, 1:])    # its left or right edge
        p = functools.reduce(np.maximum, [abs(dot(c1, c2)) for c1 in (h[:, :-1], h[:, 1:])
                                          for c2 in (v[:, :, :-1], v[:, :, 1:])])
        peaks.append([a2.max(), b2.max(), p.max()])
        cell = np.sqrt(0.5 * (a2 + b2 + np.hypot(a2 - b2, 2.0 * p)))
        table.append(np.maximum.reduceat(np.maximum.reduceat(cell, range(0, len(cell), side)),
                                         cols, axis=1))
    bound = _norm_bound(*np.max(peaks, axis=0))
    return bound, np.minimum(np.concatenate(table), bound)


def load_grid_lift(path: str | Path) -> LiftMap:
    """Load a tabulated lift: JSON header plus inline, CSV, or raw binary values.

    Header keys: degree, x0, nx, y0, y1, ny and ``values`` (nested list), or
    ``values_file`` + ``format`` ("csv": nx*ny lines of "fx,fy" row-major;
    "binary": little-endian float64, C order, shape (ny, nx, 2)).
    Any malformed header or values file raises GridFormatError.
    """
    path = Path(path)
    try:
        header = json.loads(path.read_text(encoding="utf-8"))
        degree, nx, ny = (int(header[k]) for k in ("degree", "nx", "ny"))
        x0, y0, y1 = (float(header[k]) for k in ("x0", "y0", "y1"))
        float(degree)   # the lift shifts by it: OverflowError for a huge int
        if "values" in header:
            values = np.asarray(header["values"], dtype=float)
        else:
            data_path = path.parent / header["values_file"]
            fmt = header.get("format", "csv")
            if fmt == "csv":
                with warnings.catch_warnings():
                    # an empty file warns; the size check below reports it
                    warnings.simplefilter("ignore", UserWarning)
                    values = np.loadtxt(data_path, delimiter=",", dtype=float)
            elif fmt == "binary":
                values = np.fromfile(data_path, dtype="<f8")
            else:
                raise ValueError(f"unknown grid format {fmt!r}")
    except KeyError as exc:
        raise GridFormatError(f"{path.name}: missing header key {exc}") from exc
    except (OSError, TypeError, ValueError, OverflowError) as exc:
        raise GridFormatError(f"{path.name}: {type(exc).__name__}: {exc}") from exc
    if nx < 2 or ny < 2:
        raise GridFormatError(f"{path.name}: need nx, ny >= 2, got nx={nx}, ny={ny}")
    if not (np.isfinite(x0) and np.isfinite(y0) and np.isfinite(y1) and y1 > y0):
        raise GridFormatError(f"{path.name}: need finite x0 and y0 < y1, "
                              f"got x0={x0}, y0={y0}, y1={y1}")
    if values.size != nx * ny * 2:
        raise GridFormatError(f"{path.name}: {values.size} values, expected "
                              f"nx*ny*2 = {nx * ny * 2}")
    if not np.all(np.isfinite(values)):
        raise GridFormatError(f"{path.name}: values must be finite")
    return grid_lift_from_values(values.reshape(ny, nx, 2), degree, x0, y0, y1,
                                 name=header.get("name", path.stem))


def write_grid_lift(path: str | Path, values: np.ndarray, degree: int, x0: float,
                    y0: float, y1: float, fmt: str = "inline", name: str = "") -> None:
    """Write the tabulated-lift interchange format (inverse of load_grid_lift)."""
    path = Path(path)
    values = np.asarray(values, dtype=float)
    ny, nx, _ = values.shape
    header = {"degree": int(degree), "x0": x0, "nx": nx, "y0": y0, "y1": y1, "ny": ny}
    if name:
        header["name"] = name
    if fmt == "inline":
        header["values"] = values.reshape(-1, 2).tolist()
    elif fmt == "csv":
        header["values_file"] = path.stem + ".csv"
        header["format"] = "csv"
        np.savetxt(path.parent / header["values_file"], values.reshape(-1, 2),
                   delimiter=",", fmt="%.17g")
    elif fmt == "binary":
        header["values_file"] = path.stem + ".bin"
        header["format"] = "binary"
        values.astype("<f8").tofile(path.parent / header["values_file"])
    else:
        raise ValueError(f"unknown grid format {fmt!r}")
    path.write_text(json.dumps(header), encoding="utf-8")


# -- the shipped degree -1 example ---------------------------------------------

@functools.lru_cache(maxsize=1)
def _counterexample_geometry() -> dict:
    with open(_DATA_DIR / "counterexample_geometry.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def _spine_interp(geo: dict):
    verts = np.asarray(geo["curve_vertices"], dtype=float)
    tv, px, py = verts[:, 0], verts[:, 1], verts[:, 2]

    def spine(t):
        """The 1-periodic-in-shape invariant curve J: parameter -> cover point."""
        t = np.asarray(t, dtype=float)
        k = np.floor(t)
        tf = t - k
        x = np.interp(tf, tv, px) + k
        y = np.interp(tf, tv, py)
        return np.stack([x, y], axis=-1)

    return spine


def _param_map(geo: dict):
    pieces = geo["param_map"]["segments"]
    t1s = np.asarray([p["t1"] for p in pieces], dtype=float)
    t0s = np.asarray([p["t0"] for p in pieces], dtype=float)
    g0s = np.asarray([p["g0"] for p in pieces], dtype=float)
    g1s = np.asarray([p["g1"] for p in pieces], dtype=float)

    def gmap(t):
        """Equivariant parameter map: gmap(t + 1) = gmap(t) - 1. The jump of
        the fractional part lands exactly on the glued parameter pair."""
        t = np.asarray(t, dtype=float)
        k = np.floor(t)
        tf = t - k
        idx = np.searchsorted(t1s, tf, side="left")
        idx = np.clip(idx, 0, len(t1s) - 1)
        span = t1s[idx] - t0s[idx]
        g = g0s[idx] + (tf - t0s[idx]) * (g1s[idx] - g0s[idx]) / span
        return g - k

    return gmap


def counterexample_spine_segments(translates=(-1, 0, 1)):
    """Segments (a, b, t_a, t_b) of the invariant set for the given deck copies."""
    geo = _counterexample_geometry()
    verts = np.asarray(geo["curve_vertices"], dtype=float)
    segs = []
    for c in translates:
        for i in range(len(verts) - 1):
            t0, x0, y0 = verts[i]
            t1, x1, y1 = verts[i + 1]
            segs.append((np.array([x0 + c, y0]), np.array([x1 + c, y1]), t0 + c, t1 + c))
    return segs


def counterexample_spine(t) -> np.ndarray:
    geo = _counterexample_geometry()
    spine = _spine_interp(geo)
    return spine(t)


def counterexample_restriction(t) -> np.ndarray:
    """The map's exact values on the invariant curve, as spine(gmap(t))."""
    geo = _counterexample_geometry()
    spine = _spine_interp(geo)
    gmap = _param_map(geo)
    return spine(gmap(t))


def counterexample_tube_cover(rho: float = 0.015, step: float = 0.08,
                              translates=(-1, 0, 1)) -> list[tuple[float, float, float, float]]:
    """Axis-aligned boxes covering the radius-rho tube around the invariant
    set: each spine segment is cut into pieces of length <= step and each
    piece's bounding box is inflated by rho, so no cover box strays farther
    than rho plus half a piece from the set. Coordinates are Python floats."""
    boxes = []
    for a, b, _, _ in counterexample_spine_segments(translates):
        length = float(np.hypot(*(b - a)))
        pieces = max(1, int(np.ceil(length / step)))
        for i in range(pieces):
            p = (a + (b - a) * (i / pieces)).tolist()
            q = (a + (b - a) * ((i + 1) / pieces)).tolist()
            x0, x1 = sorted((p[0], q[0]))
            y0, y1 = sorted((p[1], q[1]))
            boxes.append((x0 - rho, x1 + rho, y0 - rho, y1 + rho))
    return boxes


def counterexample_spine_distance(points) -> np.ndarray:
    """Distance from each point to the invariant set (three deck copies)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d, _ = _nearest_on_spine(pts, counterexample_spine_segments((-1, 0, 1)))
    return d


def _nearest_on_spine(points: np.ndarray, segs, reach: float = np.inf
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Distance to the invariant set and parameter of the nearest point.

    Each segment, in order, measures only the points inside its bounding
    box grown by ``reach``, and is skipped when that box misses the points'
    bounding box; a running minimum updated with strict ``<`` gives ties to
    the lowest segment index. Every point within ``reach`` of
    the set gets its exact distance and parameter. A point farther than
    ``reach`` from the set gets some distance above ``reach``, not
    necessarily the true one: inf and parameter 0 when it lies in no grown
    box. ``reach = inf`` is exact everywhere.
    """
    best_d = np.full(len(points), np.inf)
    best_t = np.zeros(len(points))
    if not len(points):
        return best_d, best_t
    px, py = points[:, 0], points[:, 1]
    # a NaN coordinate makes these NaN, and then no segment is skipped
    (x_lo, y_lo), (x_hi, y_hi) = points.min(axis=0).tolist(), points.max(axis=0).tolist()
    for a, b, ta, tb in segs:
        lo = np.minimum(a, b) - reach
        hi = np.maximum(a, b) + reach
        if lo[0] > x_hi or lo[1] > y_hi or hi[0] < x_lo or hi[1] < y_lo:
            continue
        idx = np.flatnonzero((px >= lo[0]) & (px <= hi[0]) & (py >= lo[1]) & (py <= hi[1]))
        ab = b - a
        apx, apy = px[idx] - a[0], py[idx] - a[1]
        u = np.clip((apx * ab[0] + apy * ab[1]) / (ab[0] * ab[0] + ab[1] * ab[1]), 0.0, 1.0)
        d = np.hypot(a[0] + u * ab[0] - px[idx], a[1] + u * ab[1] - py[idx])
        closer = d < best_d[idx]
        hit = idx[closer]
        best_d[hit] = d[closer]
        best_t[hit] = ta + u[closer] * (tb - ta)
    return best_d, best_t


@functools.lru_cache(maxsize=1)
def counterexample_deg_minus1() -> LiftMap:
    """Degree -1 lift with an invariant essential curve carrying a small loop,
    fixed point free on that curve.

    The geometry is an explicit coordinate list shipped in the package data:
    a closed loop glued to the essential circle at one point lets the
    parameter map jump across the diagonal exactly at the glued pair, so no
    point of the curve is fixed even though every continuous degree -1
    circle map would have fixed points. Off the curve the map blends into a
    fixed-point-free background; the values are tabulated on a grid and
    extended by bilinear interpolation and equivariance, so the shipped map
    is continuous regardless of the blending seams.

    The blend weight falls linearly from 1 at distance ``blend.inner`` from
    the curve to 0 at ``blend.outer``, so the nearest-point search reaches
    only ``blend.outer``: a node farther away has weight 0 and takes the
    background value exactly.
    """
    geo = _counterexample_geometry()
    spine = _spine_interp(geo)
    gmap = _param_map(geo)
    segs = counterexample_spine_segments()
    bg = geo["background"]
    inner, outer = geo["blend"]["inner"], geo["blend"]["outer"]
    nx = int(geo["grid"]["nx"])
    y0, y1, ny = float(geo["grid"]["y0"]), float(geo["grid"]["y1"]), int(geo["grid"]["ny"])

    xs = np.arange(nx, dtype=float) / nx
    ys = np.linspace(y0, y1, ny)
    values = np.empty((ny, nx, 2))
    for i in range(0, ny, 16):   # 16 rows of nodes at a time keep temporaries small
        gx, gy = np.meshgrid(xs, ys[i:i + 16])
        nodes = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        dist, t_near = _nearest_on_spine(nodes, segs, reach=outer)
        on_curve = spine(gmap(t_near))
        background = np.stack([bg["cx"] - nodes[:, 0], nodes[:, 1] + bg["dy"]], axis=-1)
        w = np.clip((outer - dist) / (outer - inner), 0.0, 1.0)[:, None]
        values[i:i + 16] = (w * on_curve + (1.0 - w) * background).reshape(-1, nx, 2)

    return grid_lift_from_values(values, degree=-1, x0=0.0, y0=y0, y1=y1,
                                 name="counterexample_deg_minus1")
