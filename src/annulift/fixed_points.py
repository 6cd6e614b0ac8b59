"""Certified fixed-point isolation, Nielsen residues, completeness sweeps.

A box certifies a fixed point of a lift when the winding number of the
displacement field F - id around its boundary is nonzero; this needs only
continuity, no derivatives. A box is discarded when a lower bound on the
displacement over the box is positive: the minimum over a 5 x 5 sample grid
minus a slope times the grid reach (the largest distance from a point of the
box to its nearest sample). The slope comes from one of two rules:

- declared: the map declares a Lipschitz bound L on F itself
  (``LiftMap.lipschitz``), so F - id is (L + 1)-Lipschitz and the discard is
  a proof under that bound. Of the shipped maps only ``power`` declares one
  (L = |d|); ``iterate`` raises it to the n-th power and ``deck_translate``
  keeps it.
- estimated: every other map, including the other zoo families and grid
  lifts loaded from files, gets twice the largest finite-difference slope
  of the sampled displacement. That is a guess, not a bound: a feature
  narrower than the sample spacing can hide from it. A dense oracle in the
  test suite cross-checks it.

Neither rule encloses the floating-point rounding of the samples; the proof
holds in exact arithmetic. The certified boxes come from a quadtree whose
boxes have disjoint interiors, so N of them prove N distinct fixed points.

The quadtree is searched depth first, with the exclusion test batched: the
untested boxes at the top of the stack, up to _CHUNK of them, are tested in
one vectorised map call. Depth first, not level by level, because a
subdivision line through a fixed point aborts the attempt at the first leaf
that meets it; a level sweep would evaluate the whole tree before reaching
that leaf. Leaves are handled in exactly the one-box-at-a-time order, so
reports do not depend on the chunk size.

Every attempt subdivides a jittered copy of the caller's region (seeds 1 to
_ATTEMPTS), never the region as given: symmetric windows put the invariant
circle y = 0 of the shipped families on the first subdivision line. A
jittered region contains the original, so no fixed point of it is missed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .annulus_maps import (
    AnnulusPoint,
    LiftMap,
    _median,
    annulus_distance,
    deck_translate,
    iterate,
    project,
)
from .curves import rectangle
from .errors import (
    BoundaryFixedPoint,
    BudgetExceeded,
    DistanceViolation,
    EmptyReport,
    FixedPointOnCurve,
    NonFiniteDisplacement,
    NotPeriodic,
    NonIntegerTranslation,
    ParamOutOfRange,
    ToolkitError,
)
from .index import lefschetz_index

_BOUNDARY_MIN_DISP = 1e-10        # displacement floor on subdivision boundaries
_EXCLUSION_GRID = 5               # exclusion test samples per box axis
_EXCLUSION_SAFETY = 2.0           # multiplier on the finite-difference Lipschitz estimate
_SUBDIVISION_BUDGET = 500_000     # tested boxes per attempt
_JITTER_BASE = math.sqrt(2.0) * 1e-4
# per-attempt jitter multipliers (tx, ty, dx, dy): 0.2 + 0.6 * r[0:2] and
# 1.1 + 0.5 * r[2:4], r the first four np.random.default_rng(attempt).random()
# draws; one row per attempt
_JITTER = (
    (0.507092974820154, 0.7702782177955612, 1.172079806359817, 1.574324723568622),
    (0.3569672805495898, 0.37909468604847396, 1.5071128702971404, 1.1459579710675485),
    (0.2513895002861746, 0.3420863039576598, 1.5006372326031985, 1.391081018032184),
    (0.7658336633434206, 0.5067965316886169, 1.588121852853852, 1.1404180119478011),
)
_ATTEMPTS = len(_JITTER)          # jittered attempts before BoundaryFixedPoint
_BOUNDARY_SAMPLES_PER_SIDE = 16   # rectangle samples for a leaf's boundary degree
_RESIDUE_DISP_TOL = 1e-7          # NotPeriodic threshold on the projected point
_RESIDUE_INT_TOL = 1e-5           # near-integer threshold for the translation

# boxes per vectorised exclusion call: large enough that numpy overhead is
# paid once per chunk, small enough that the sample arrays stay a few 100 kB
_CHUNK = 256
# Quadtree stack rows are (x0, x1, y0, y1, scale, tested): a box is a leaf
# once its size is at most its scale (the resolution, or the mop-up floor).
# A kept untested row extended by (xm, ym, leaf) gives the rows that replace
# it: its four untested children in push order, top-right last (on top), or
# for a leaf, whose (xm, ym) are set to (x1, y1), the first row alone: the box
# itself, flagged as tested.
_CHILDREN = np.array([[0, 6, 2, 7, 4, 8], [6, 1, 2, 7, 4, 5],
                      [0, 6, 7, 3, 4, 5], [6, 1, 7, 3, 4, 5]])
_REPLACED = np.array([[True, True, True, True], [True, False, False, False]])
# 5 x 5 exclusion grid: tick i of an axis is lo + i * h, the last pinned to
# hi; sample (row i, column j) reads x tick j and y tick i of the (N, 2, m)
# tick array flattened to (N, 2m)
_TICKS = np.arange(_EXCLUSION_GRID, dtype=float)
_GRID = np.array([[j, _EXCLUSION_GRID + i] for i in range(_EXCLUSION_GRID)
                  for j in range(_EXCLUSION_GRID)])


@dataclass(frozen=True)
class CertifiedFixedBox:
    """Axis-aligned box whose boundary degree certifies an interior fixed point.

    ``lift_offset`` records which deck translate F + (k, 0) was certified.
    """

    box: tuple[float, float, float, float]   # x_lo, x_hi, y_lo, y_hi
    boundary_degree: int
    lift_offset: int = 0

    @property
    def center(self) -> tuple[float, float]:
        x0, x1, y0, y1 = self.box
        return (0.5 * (x0 + x1), 0.5 * (y0 + y1))

    @property
    def size(self) -> float:
        x0, x1, y0, y1 = self.box
        return max(x1 - x0, y1 - y0)

    def contains(self, point) -> bool:
        x0, x1, y0, y1 = self.box
        return bool(x0 <= point[0] <= x1 and y0 <= point[1] <= y1)


@dataclass
class IsolationAudit:
    """Optional byproduct collector for the soundness property tests."""

    discarded: list = field(default_factory=list)   # (box, sampled_min, bound)
    unresolved: list = field(default_factory=list)  # fragments never resolved
    boxes_processed: int = 0                        # summed over attempts


class _BoundaryHit(Exception):
    """Internal: a fixed point sat on a subdivision boundary; jitter and retry."""


def _displacement(F, pts):
    return np.asarray(F(pts), dtype=float) - pts


def _exclusion_margins(F, boxes) -> tuple[np.ndarray, np.ndarray]:
    """(margins, sampled_mins) of an (N, 4) array of boxes; margin > 0 means
    the box holds no fixed point. The m x m sample grids of all boxes go
    through one map call.

    Every point of a box lies within ``reach``, half a grid cell's diagonal,
    of a sample. With a declared bound L on F the margin is
    sampled_min - (L + 1) * reach, a proof in exact arithmetic. Without one
    the slope is estimated as the largest finite difference of the sampled
    displacement (at least 1, the slope of id) times _EXCLUSION_SAFETY.
    """
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    n, m = len(boxes), _EXCLUSION_GRID
    lo, hi = boxes[:, 0::2], boxes[:, 1::2]   # columns x, y
    h = (hi - lo) / (m - 1)
    hx, hy = h[:, 0], h[:, 1]
    # lo + i*step with the last tick pinned to hi: np.linspace, bit for bit
    ticks = lo[:, :, None] + h[:, :, None] * _TICKS
    ticks[:, :, -1] = hi
    pts = ticks.reshape(n, 2 * m).take(_GRID, axis=1).reshape(-1, 2)
    disp = _displacement(F, pts)
    norms = np.hypot(disp[:, 0], disp[:, 1]).reshape(n, m * m)
    reach = 0.5 * np.hypot(hx, hy)
    sampled_min = norms.min(axis=1)
    if F.lipschitz is not None:
        return sampled_min - (F.lipschitz + 1.0) * reach, sampled_min
    disp = disp.reshape(n, m, m, 2)
    dx = disp[:, :, 1:] - disp[:, :, :-1]
    dy = disp[:, 1:] - disp[:, :-1]
    lip_x = np.divide(np.hypot(dx[..., 0], dx[..., 1]).max(axis=(1, 2)), hx,
                      out=np.zeros(n), where=hx > 0)
    lip_y = np.divide(np.hypot(dy[..., 0], dy[..., 1]).max(axis=(1, 2)), hy,
                      out=np.zeros(n), where=hy > 0)
    # max(lip_x, lip_y, 1.0) with Python's NaN rule; the displacement of id
    # alone has slope 1
    lip = np.where(lip_y > lip_x, lip_y, lip_x)
    lip = np.where(1.0 > lip, 1.0, lip)
    return sampled_min - _EXCLUSION_SAFETY * lip * reach, sampled_min


def _boundary_degree(F, box) -> int:
    x0, x1, y0, y1 = box
    curve = rectangle(x0, x1, y0, y1, per_side=_BOUNDARY_SAMPLES_PER_SIDE)
    return lefschetz_index(F, curve, min_disp=_BOUNDARY_MIN_DISP)


def _jittered(region, attempt: int):
    # translate and dilate the region to break any alignment of fixed points
    # with the dyadic subdivision grid; per-attempt multipliers are drawn
    # deterministically and independently, because a pure dilation scaled up
    # linearly can keep cancelling at one relative position forever
    t = attempt * _JITTER_BASE
    mx, my, mdx, mdy = _JITTER[attempt - 1]
    tx, ty = t * mx, t * my
    dx, dy = t * mdx, t * mdy  # dilation > translation: superset
    x0, x1, y0, y1 = map(float, region)
    return (x0 - tx - dx, x1 - tx + dx, y0 - ty - dy, y1 - ty + dy)


def _isolate_once(F, region, resolution: float, audit: Optional[IsolationAudit],
                  lift_offset: int) -> list[CertifiedFixedBox]:
    """One attempt: a depth-first quadtree over the region.

    The stack is an (N, 6) array of rows (x0, x1, y0, y1, scale, tested), top
    last. Each step tests the untested run at the top of the stack, at most
    _CHUNK boxes, in one _exclusion_margins call, and replaces it in place:
    excluded boxes go, boxes at leaf scale stay, flagged as tested, and
    larger ones become their four children, top-right on top. A flagged leaf
    is handled when it reaches the top, so leaves are handled in exactly the
    order of a one-box-at-a-time depth-first search, whatever the chunk size.

    A leaf at resolution scale is certified by a nonzero boundary degree.
    A degree-0 leaf that was not excluded is mopped up: its four children go
    on the stack with the floor scale resolution / 256, to be searched down
    to it (the leaf itself is not tested again), and a mop-up fragment
    surviving there, or a degree-0 leaf already at that scale,
    forces a jitter retry. No box is tested twice in an attempt. The
    subdivision budget counts the boxes tested in this attempt; an audit,
    when given, only observes.
    """
    x0, x1, y0, y1 = region
    boundary = rectangle(x0, x1, y0, y1, per_side=64)
    bnorm = np.hypot(*_displacement(F, boundary.samples).T)
    if not np.isfinite(bnorm).all():
        raise NonFiniteDisplacement(f"non-finite displacement on the boundary of {region}")
    if bnorm.min() <= _BOUNDARY_MIN_DISP:
        raise _BoundaryHit
    resolution = float(resolution)
    floor = resolution / 256.0
    certified = []
    processed = 0
    stack = np.array([[x0, x1, y0, y1, resolution, 0.0]])
    while len(stack):
        if stack[-1, 5]:
            bx0, bx1, by0, by1, scale, _ = stack[-1].tolist()
            box = (bx0, bx1, by0, by1)
            stack = stack[:-1]
            if scale != resolution:  # a mop-up fragment
                if audit is not None:
                    audit.unresolved.append(box)
                raise _BoundaryHit
            try:
                deg = _boundary_degree(F, box)
            except (FixedPointOnCurve, DistanceViolation) as exc:
                raise _BoundaryHit from exc
            if deg != 0:
                certified.append(CertifiedFixedBox(box, deg, lift_offset))
                continue
            if max(bx1 - bx0, by1 - by0) <= floor:
                if audit is not None:
                    audit.unresolved.append(box)
                raise _BoundaryHit
            # the leaf failed exclusion, and would fail it again: go straight
            # to its children, as mop-up fragments
            row = [bx0, bx1, by0, by1, floor, 0.0, 0.5 * (bx0 + bx1), 0.5 * (by0 + by1), 0.0]
            stack = np.concatenate([stack, np.array(row)[_CHILDREN]])
            continue
        top = stack[-_CHUNK:, 5]
        flagged = top.nonzero()[0]
        start = len(stack) - len(top)
        if len(flagged):
            start += int(flagged[-1]) + 1
        chunk = stack[start:]
        processed += len(chunk)
        if processed > _SUBDIVISION_BUDGET:
            raise BudgetExceeded(f"subdivision cap {_SUBDIVISION_BUDGET} passed")
        margin, sampled_min = _exclusion_margins(F, chunk[:, :4])
        out = margin > 0
        if audit is not None:
            audit.boxes_processed += len(chunk)
            # mop-up discards are not audited; top of the stack first, the
            # order in which the boxes would be popped one at a time
            gone = (out & (chunk[:, 4] == resolution))[::-1]
            audit.discarded.extend(zip(map(tuple, chunk[::-1, :4][gone].tolist()),
                                       sampled_min[::-1][gone].tolist(),
                                       margin[::-1][gone].tolist()))
        keep = chunk.compress(~out, axis=0)
        lo, hi = keep[:, 0:4:2], keep[:, 1:4:2]
        size = hi - lo
        leaf = np.maximum(size[:, 0], size[:, 1]) <= keep[:, 4]
        ext = np.concatenate([keep, 0.5 * (lo + hi), leaf[:, None]], axis=1)
        np.copyto(ext[:, 6:8], hi, where=leaf[:, None])
        rows = ext.take(_CHILDREN, axis=1).reshape(-1, 6)
        rows = rows.compress(_REPLACED.take(leaf.view(np.int8), axis=0).ravel(), axis=0)
        stack = np.concatenate([stack[:start], rows])
    return sorted(certified, key=lambda c: c.box)


def isolate_fixed_points(F: LiftMap, region, resolution: float, lift_offset: int = 0,
                         audit: Optional[IsolationAudit] = None
                         ) -> list[CertifiedFixedBox]:
    """Certified boxes around every fixed point of F inside the region.

    Adaptive quadtree: boxes are discarded only by the displacement lower
    bound, recursed while larger than the resolution, and certified when a
    nonzero boundary degree is found at resolution scale. The tree is
    searched depth first, a chunk of boxes per vectorised exclusion call,
    so that an attempt spoiled by a fixed point on a subdivision line stops
    at the first leaf that meets it.

    There are _ATTEMPTS attempts, each over the region translated and
    dilated by its own irrational offsets (jitter seeds 1, 2, ...; the
    dilation exceeds the translation, so each contains the original). The
    first attempt that meets no subdivision line returns; when all of them
    do, BoundaryFixedPoint is raised. A non-finite displacement on an
    attempt's boundary raises NonFiniteDisplacement. The boxes have disjoint
    interiors, so each certifies its own fixed point. The subdivision budget
    counts the boxes tested in one attempt; as a chunk is tested ahead of
    the depth-first order, an attempt that would fail on a boundary hit
    near the budget can report BudgetExceeded instead.
    """
    if not resolution > 0:  # NaN too
        raise ValueError("resolution must be positive")
    last_exc = None
    for attempt in range(1, _ATTEMPTS + 1):
        try:
            return _isolate_once(F, _jittered(region, attempt), resolution, audit,
                                 lift_offset)
        except _BoundaryHit as exc:
            last_exc = exc
    raise BoundaryFixedPoint(
        f"fixed point kept hitting subdivision boundaries after "
        f"{_ATTEMPTS} attempts") from last_exc


def polish_fixed_point(F, box: CertifiedFixedBox, tol: float = 1e-12) -> np.ndarray:
    """Refine the certified point to high accuracy.

    Newton with finite-difference Jacobian, verified afterwards; falls back
    to greedy subdivision when Newton leaves the box neighborhood. The
    certification never relies on this step.
    """
    x0, x1, y0, y1 = box.box
    p = np.array(box.center, dtype=float)
    size = box.size
    h = max(1e-9, 1e-3 * size)
    ok = False
    for _ in range(40):
        g = _displacement(F, p)
        if np.hypot(*g) < tol:
            ok = True
            break
        e1 = np.array([h, 0.0])
        e2 = np.array([0.0, h])
        jac = np.column_stack([
            (_displacement(F, p + e1) - _displacement(F, p - e1)) / (2 * h),
            (_displacement(F, p + e2) - _displacement(F, p - e2)) / (2 * h),
        ])
        try:
            step = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError:
            break
        p = p + step
        if not (x0 - 3 * size <= p[0] <= x1 + 3 * size
                and y0 - 3 * size <= p[1] <= y1 + 3 * size):
            break
    if not ok:
        # greedy descent: follow the child with the smallest displacement
        b = list(box.box)
        for _ in range(50):
            xm, ym = 0.5 * (b[0] + b[1]), 0.5 * (b[2] + b[3])
            children = [(b[0], xm, b[2], ym), (xm, b[1], b[2], ym),
                        (b[0], xm, ym, b[3]), (xm, b[1], ym, b[3])]
            _, mins = _exclusion_margins(F, children)
            b = children[int(np.argmin(mins))]
        p = np.array([0.5 * (b[0] + b[1]), 0.5 * (b[2] + b[3])])
    residual = np.hypot(*_displacement(F, p))
    if not np.isfinite(residual):  # NaN would pass the test below
        raise NonFiniteDisplacement(
            f"non-finite displacement at the polished point of box {box.box}")
    if residual > 1e-9:
        raise ToolkitError(f"could not polish fixed point in box {box.box}")
    return p


def nielsen_residue(F0: LiftMap, point, period: int, lift_x_offset: int = 0) -> int:
    """Deck-translation residue classifying the Nielsen class of a periodic point.

    Lifts the annulus point, applies the iterated base lift, and reads off
    the integer translation m with F0^n(p') = p' + (m, 0); the class is
    m mod |d^n - 1|, independent of the chosen lift.
    """
    p = point if isinstance(point, AnnulusPoint) else AnnulusPoint(point[0], point[1])
    period = int(period)
    if period < 1:
        raise ValueError("period must be >= 1")
    modulus = abs(F0.degree ** period - 1)
    if modulus == 0:
        raise ParamOutOfRange(
            f"degree {F0.degree} has no residue classes at period {period}")
    p_lift = p.lift(lift_x_offset)
    q = iterate(F0, period)(p_lift) if period > 1 else F0(p_lift)
    if not np.all(np.isfinite(q)):
        raise NonFiniteDisplacement(
            f"non-finite image ({q[0]}, {q[1]}) of ({p.theta:.6g}, {p.y:.6g}) "
            f"under the period-{period} map")
    dist = annulus_distance(project(q), p)
    if dist > _RESIDUE_DISP_TOL:
        raise NotPeriodic(
            f"point ({p.theta:.6g}, {p.y:.6g}) moves by {dist:.3e} under the "
            f"projected period-{period} map")
    m_real = float(q[0] - p_lift[0])
    m = int(round(m_real))
    if abs(m_real - m) > _RESIDUE_INT_TOL or abs(q[1] - p_lift[1]) > _RESIDUE_INT_TOL:
        raise NonIntegerTranslation(
            f"lift displacement ({m_real:.3e}, {float(q[1] - p_lift[1]):.3e}) "
            f"is not an integer translation")
    return m % modulus


# -- completeness sweeps --------------------------------------------------------

@dataclass(frozen=True)
class NielsenReport:
    """Per-period census of realized Nielsen residues and certified boxes."""

    period: int
    modulus: int
    fixed_boxes: tuple
    box_residues: tuple
    errors: dict = field(default_factory=dict)            # lift offset -> message
    continuum_offsets: tuple = ()                         # offsets with 1D fixed sets

    @property
    def realized_residues(self) -> frozenset:
        # a continuum of fixed points of F^n + (k, 0) is one class, and the
        # translation identity forces its residue to be -k
        return frozenset(self.box_residues).union(
            (-k) % self.modulus for k in self.continuum_offsets)

    @property
    def complete(self) -> bool:
        return self.realized_residues == frozenset(range(self.modulus))

    @property
    def count_lower_bound(self) -> int:
        """Certified boxes plus continua, each continuum counted once."""
        return len(self.fixed_boxes) + len(self.continuum_offsets)

    def to_dict(self) -> dict:
        return {
            "period": self.period,
            "modulus": self.modulus,
            "realized_residues": sorted(self.realized_residues),
            "complete": self.complete,
            "count_lower_bound": self.count_lower_bound,
            "continuum_offsets": sorted(self.continuum_offsets),
            "errors": {str(k): v for k, v in sorted(self.errors.items())},
            "boxes": [
                {"lift_offset": b.lift_offset, "box": list(b.box),
                 "boundary_degree": b.boundary_degree, "residue": r}
                for b, r in zip(self.fixed_boxes, self.box_residues)
            ],
        }


def reports_to_json(reports, indent: int = 2) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=indent, sort_keys=True)


def boxes_to_csv_rows(reports) -> list[str]:
    """CSV rows (n, k, x_lo, x_hi, y_lo, y_hi, degree, residue)."""
    rows = ["n,k,x_lo,x_hi,y_lo,y_hi,degree,residue"]
    for r in reports:
        for b, res in zip(r.fixed_boxes, r.box_residues):
            x0, x1, y0, y1 = b.box
            rows.append(f"{r.period},{b.lift_offset},{x0!r},{x1!r},{y0!r},{y1!r},"
                        f"{b.boundary_degree},{res}")
    return rows


def default_region(F: LiftMap, n_max: int) -> tuple[float, float, float, float]:
    """Sweep window: wide enough in x for every deck translate's fixed points
    of the shipped families, y clipped to the map's invariant strip."""
    span = n_max * abs(F.degree) + 2.0
    return (-span, span, F.y_window[0], F.y_window[1])


def region_margin_check(F, region, samples: int = 64) -> bool:
    """Heuristic guard that no fixed points were cut off: the displacement is
    nonvanishing on the region boundary and its x-component keeps a single
    sign on each vertical edge, with opposite signs on the two edges. Exact
    for maps whose x-displacement is monotone in x (all shipped families)."""
    x0, x1, y0, y1 = map(float, region)
    boundary = rectangle(x0, x1, y0, y1, per_side=samples)
    if np.hypot(*_displacement(F, boundary.samples).T).min() <= 0.0:
        return False
    ys = np.linspace(y0, y1, samples)
    left = _displacement(F, np.stack([np.full(samples, x0), ys], axis=-1))[:, 0]
    right = _displacement(F, np.stack([np.full(samples, x1), ys], axis=-1))[:, 0]
    left_sign = np.sign(left)
    right_sign = np.sign(right)
    return bool(np.all(left_sign == left_sign[0]) and left_sign[0] != 0
                and np.all(right_sign == right_sign[0]) and right_sign[0] != 0
                and left_sign[0] != right_sign[0])


def diagnose_continuum(F, region, resolution: float) -> bool:
    """After isolation fails on boundary hits: does the zero set of F - id
    look one-dimensional? Probes a small circle around a polished zero; a
    1D zero set crosses the circle, an isolated point keeps it clear."""
    x0, x1, y0, y1 = map(float, region)
    m = 160
    xs = np.linspace(x0, x1, m)
    ys = np.linspace(y0, y1, m)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    norms = np.hypot(*_displacement(F, pts).T)
    p = pts[int(np.argmin(norms))]
    # local descent to land on the zero set
    step = max((x1 - x0), (y1 - y0)) / m
    for _ in range(60):
        trial = p + step * np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1],
                                     [1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
        vals = np.hypot(*_displacement(F, trial).T)
        i = int(np.argmin(vals))
        p = trial[i]
        if i == 0:
            step *= 0.5
        if step < 1e-12:
            break
    if np.hypot(*_displacement(F, p)) > 1e-6:
        return False
    ang = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    ring = p + 4.0 * resolution * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    vals = np.hypot(*_displacement(F, ring).T)
    return bool(vals.min() < 0.05 * _median(vals))


def completeness_check(F: LiftMap, n_max: int, region=None, resolution: float = 1e-3
                       ) -> list[NielsenReport]:
    """For each period n <= n_max, sweep every deck translate F^n + (k, 0),
    certify its fixed points, classify them by residue, and report whether
    all |d^n - 1| residue classes are realized.

    Every fixed point p of F^n + (k, 0) has F^n(p) = p - (k, 0), so its
    residue is (-k) mod |d^n - 1| for every lift; no point is polished.
    Isolation failures are recorded per translate in the report instead of
    aborting the sweep; translates whose fixed set looks one-dimensional are
    flagged as a single-class continuum and count once.
    """
    n_max = int(n_max)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if abs(F.degree) <= 1:
        raise ParamOutOfRange("completeness sweeps need |degree| > 1")
    if region is None:
        region = default_region(F, n_max)
        if not region_margin_check(F, region):
            raise ToolkitError(
                "the default sweep region failed its margin test for this map; "
                "pass an explicit region")

    reports = []
    for n in range(1, n_max + 1):
        modulus = abs(F.degree ** n - 1)
        F_iter = iterate(F, n)
        boxes, residues, errors, continuum = [], [], {}, []
        for k in range(modulus):
            Fk = deck_translate(F_iter, k)
            try:
                found = isolate_fixed_points(Fk, region, resolution, lift_offset=k)
            except BoundaryFixedPoint as exc:
                if diagnose_continuum(Fk, region, resolution):
                    continuum.append(k)
                else:
                    errors[k] = f"{type(exc).__name__}: {exc}"
            except ToolkitError as exc:
                errors[k] = f"{type(exc).__name__}: {exc}"
            else:
                boxes.extend(found)
                residues.extend([(-k) % modulus] * len(found))
        reports.append(NielsenReport(
            period=n, modulus=modulus, fixed_boxes=tuple(boxes),
            box_residues=tuple(residues), errors=errors,
            continuum_offsets=tuple(continuum)))
    return reports


def growth_rate(reports) -> float:
    """max over n of ln(count_lower_bound)/n; compare against ln|d|."""
    if not reports:
        raise EmptyReport("no reports to take a growth rate from")
    rates = [np.log(r.count_lower_bound) / r.period
             for r in reports if r.count_lower_bound >= 1]
    return float(max(rates)) if rates else float("-inf")
