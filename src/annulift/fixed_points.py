"""Certified fixed-point isolation, Nielsen residues, completeness sweeps.

A box certifies a fixed point of a lift when the winding number of the
displacement field F - id around its boundary is nonzero; this needs only
continuity, no derivatives. A box is discarded when a lower bound on the
displacement over the box is positive: the minimum at the centres of a
3 x 3 split of the box minus (L + 1) times half a cell's diagonal, which
reaches every point of a cell from its centre; L is the Lipschitz bound the
map declares on F itself (``LiftMap.lipschitz``), so F - id is
(L + 1)-Lipschitz and the discard is a proof. Every shipped map and
tabulated lift declares one; ``iterate`` raises it to the n-th power and
``deck_translate`` keeps it. Isolation and sweeps refuse a map without one
(ParamOutOfRange). Centres, not edge samples: a box shares its edges with
its neighbours, and beside a fixed point's box the displacement on the
shared edge is near zero, so a neighbour sampled there survives to a leaf.

The rule does not enclose the floating-point rounding of the samples; the
proof holds in exact arithmetic. The certified boxes come from a quadtree
whose boxes have disjoint interiors, so N of them prove N distinct fixed
points.
A box whose side along one axis is less than half its side along the other
is halved across its long side only, into 2 children; every other box is
quartered. Boxes of any region thus become near square (aspect at most 2)
before they reach the resolution, instead of keeping the region's aspect.

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

A completeness sweep counts each periodic point once, on a unit strip
[x0, x0 + 1) x [y0, y1] that holds one lift of it (B. Jiang, Lectures on
Nielsen Fixed Point Theory, 1983), through the translates admitted by an
enclosure of the x-displacement taken with the same slope L + 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .annulus_maps import (
    AnnulusPoint,
    GridSpec,
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
_EXCLUSION_GRID = 3               # exclusion test samples per box axis
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
_POLISH_TOL = 1e-12               # displacement at which Newton polishing stops
_RANGE_SAMPLES = 4096             # grid samples for a strip's x-displacement enclosure
# default strip [-1/2, 1/2): centred on the origin, which every shipped family
# fixes, like the y-window on y = 0; the jitter moves subdivision lines off both
_STRIP_X0 = -0.5

# boxes per vectorised exclusion call: large enough that numpy overhead is
# paid once per chunk, small enough that the sample arrays stay a few 100 kB
_CHUNK = 256
# Quadtree stack rows are (x0, x1, y0, y1, scale, tested): a box is a leaf
# once its size is at most its scale (the resolution, or the mop-up floor).
# A kept untested row extended by (xm, ym, leaf) gives the rows that replace
# it: its four untested children in push order, top-right last (on top). An
# axis kept whole has its midpoint set to its upper end, which collapses two
# of the four rows; _KEPT, indexed by 2 * (x whole) + (y whole), keeps the
# others. A leaf keeps both axes whole and the first row alone: the box
# itself, flagged as tested.
_CHILDREN = np.array([[0, 6, 2, 7, 4, 8], [6, 1, 2, 7, 4, 5],
                      [0, 6, 7, 3, 4, 5], [6, 1, 7, 3, 4, 5]])
_KEPT = np.array([[True, True, True, True], [True, True, False, False],
                  [True, False, True, False], [True, False, False, False]])
# 3 x 3 exclusion cell centres: tick i of an axis is lo + h * (i + 0.5), with
# h = (hi - lo) / 3; sample (row i, column j) reads x tick j and y tick i of
# the (N, 2, m) tick array flattened to (N, 2m)
_TICKS = np.arange(_EXCLUSION_GRID) + 0.5
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

    discarded: list = field(default_factory=list)   # (box, sampled_min, margin)
    unresolved: list = field(default_factory=list)  # fragments never resolved
    boxes_processed: int = 0                        # summed over attempts


class _BoundaryHit(Exception):
    """Internal: a fixed point sat on a subdivision boundary; jitter and retry."""


def _displacement(F, pts):
    return np.asarray(F(pts), dtype=float) - pts


def _sampled_minima(F, boxes) -> tuple[np.ndarray, np.ndarray]:
    """(sampled_mins, reaches) of an (N, 4) array of boxes: the least
    displacement norm at the centres of each box's m x m split (one map call
    for all) and half a cell's diagonal, their reach. A NaN or infinite
    displacement at any sample raises NonFiniteDisplacement, naming the
    first box that has one: a bound built on it would be void."""
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    n, m = len(boxes), _EXCLUSION_GRID
    lo, hi = boxes[:, 0::2], boxes[:, 1::2]   # columns x, y
    h = (hi - lo) / m
    ticks = lo[:, :, None] + h[:, :, None] * _TICKS
    pts = ticks.reshape(n, 2 * m).take(_GRID, axis=1).reshape(-1, 2)
    disp = _displacement(F, pts)
    norms = np.hypot(disp[:, 0], disp[:, 1]).reshape(n, m * m)
    if not norms.max() < np.inf:  # NaN fails the comparison too
        i = int(np.argmin(np.isfinite(norms).all(axis=1)))
        raise NonFiniteDisplacement(
            f"non-finite displacement in the box {tuple(boxes[i].tolist())}")
    return norms.min(axis=1), 0.5 * np.hypot(h[:, 0], h[:, 1])


def _exclusion_margins(F, boxes) -> tuple[np.ndarray, np.ndarray]:
    """(margins, sampled_mins) of boxes under F's declared bound L: a margin
    sampled_min - (L + 1) * reach > 0 proves a box free of fixed points."""
    sampled_min, reach = _sampled_minima(F, boxes)
    return sampled_min - (F.lipschitz + 1.0) * reach, sampled_min


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
    larger ones become their children, top-right on top: two, split across
    the long axis, when one side is less than half the other, and four
    otherwise. A flagged leaf is handled when it reaches the top, so leaves
    are handled in exactly the order of a one-box-at-a-time depth-first
    search, whatever the chunk size.

    A leaf at resolution scale is certified by a nonzero boundary degree.
    A degree-0 leaf that was not excluded is mopped up: its four children,
    whatever its aspect, go on the stack with the floor scale
    resolution / 256, to be searched down to it (the leaf itself is not
    tested again), and a mop-up fragment surviving there forces a jitter
    retry. No box is tested twice in an attempt. The subdivision budget
    counts the boxes tested in this attempt; an audit, when given, only
    observes. A non-finite displacement at any sample raises
    NonFiniteDisplacement (_sampled_minima).
    """
    resolution = float(resolution)
    floor = resolution / 256.0
    certified = []
    processed = 0
    stack = np.array([[*region, resolution, 0.0]])
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
            except FixedPointOnCurve as exc:
                raise _BoundaryHit from exc
            if deg != 0:
                certified.append(CertifiedFixedBox(box, deg, lift_offset))
                continue
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
        # a side less than half the other is kept whole, as are both of a leaf
        whole = 2.0 * size < size[:, ::-1]
        whole |= leaf[:, None]
        ext = np.concatenate([keep, 0.5 * (lo + hi), leaf[:, None]], axis=1)
        np.copyto(ext[:, 6:8], hi, where=whole)
        rows = ext.take(_CHILDREN, axis=1).reshape(-1, 6)
        rows = rows.compress(_KEPT.take(whole.dot((2, 1)), axis=0).ravel(), axis=0)
        stack = np.concatenate([stack[:start], rows])
    return sorted(certified, key=lambda c: c.box)


def isolate_fixed_points(F: LiftMap, region, resolution: float, lift_offset: int = 0,
                         audit: Optional[IsolationAudit] = None
                         ) -> list[CertifiedFixedBox]:
    """Certified boxes around every fixed point of F inside the region.

    Adaptive quadtree: boxes are discarded only by the displacement lower
    bound that F's declared Lipschitz bound gives, recursed while larger
    than the resolution, and certified when a nonzero boundary degree is
    found at resolution scale. A box is halved
    across its long side only while one side is less than half the other,
    so when the region's short side exceeds the resolution every certified
    box has aspect at most 2, whatever the region's aspect. The tree is
    searched depth first, a chunk of boxes per vectorised exclusion call,
    so that an attempt spoiled by a fixed point on a subdivision line stops
    at the first leaf that meets it.

    There are _ATTEMPTS attempts, each over the region translated and
    dilated by its own irrational offsets (jitter seeds 1, 2, ...; the
    dilation exceeds the translation, so each contains the original). The
    first attempt that meets no subdivision line returns; when all of them
    do, BoundaryFixedPoint is raised. A non-finite displacement at any
    sample raises NonFiniteDisplacement, a reversed or overflowing region
    ValueError, and a map without a Lipschitz bound ParamOutOfRange. The
    boxes have disjoint interiors, so each certifies its own fixed point.
    The subdivision budget counts the boxes tested in one attempt; as a
    chunk is tested ahead of the depth-first order, an attempt that would
    fail on a boundary hit near the budget can report BudgetExceeded
    instead.
    """
    if not resolution > 0:  # NaN too
        raise ValueError("resolution must be positive")
    if F.lipschitz is None:
        raise ParamOutOfRange(f"{F.name or 'the map'} declares no Lipschitz bound")
    rectangle(*region)   # a ValueError for a bad region, before any attempt
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


def polish_fixed_point(F, box: CertifiedFixedBox) -> np.ndarray:
    """Refine the certified point to high accuracy.

    Newton with finite-difference Jacobian, verified afterwards; falls back
    to greedy subdivision on sampled minima when Newton leaves the box
    neighborhood, so F needs no Lipschitz bound. The certification never
    relies on this step.
    """
    x0, x1, y0, y1 = box.box
    p = np.array(box.center, dtype=float)
    size = box.size
    h = max(1e-9, 1e-3 * size)
    ok = False
    for _ in range(40):
        g = _displacement(F, p)
        if np.hypot(*g) < _POLISH_TOL:
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
            mins, _ = _sampled_minima(F, children)
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
    q = iterate(F0, period)(p_lift)
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
    errors: dict = field(default_factory=dict)            # lift offset -> message
    continuum_offsets: tuple = ()                         # offsets with 1D fixed sets

    @property
    def box_residues(self) -> tuple:
        """Residue of each certified box: a fixed point of F^n + (k, 0) has
        residue (-k) mod |d^n - 1|."""
        return tuple((-b.lift_offset) % self.modulus for b in self.fixed_boxes)

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


def reports_to_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True)


def boxes_to_csv_rows(reports) -> list[str]:
    """CSV rows (n, k, x_lo, x_hi, y_lo, y_hi, degree, residue)."""
    rows = ["n,k,x_lo,x_hi,y_lo,y_hi,degree,residue"]
    for r in reports:
        for b, res in zip(r.fixed_boxes, r.box_residues):
            x0, x1, y0, y1 = b.box
            rows.append(f"{r.period},{b.lift_offset},{x0!r},{x1!r},{y0!r},{y1!r},"
                        f"{b.boundary_degree},{res}")
    return rows


def diagnose_continuum(F, region, resolution: float) -> bool:
    """After isolation fails on boundary hits: does the zero set of F - id
    look one-dimensional? Probes a small circle around a polished zero; a
    1D zero set crosses the circle, an isolated point keeps it clear."""
    x0, x1, y0, y1 = map(float, region)
    m = 160
    pts = GridSpec(m, m, (x0, x1), (y0, y1)).points()
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


def _x_displacement_range(F, region) -> tuple[float, float]:
    """Enclosure [lo, hi] of (F - id)_x over the region: its range on a grid
    of about _RANGE_SAMPLES points, widened by L + 1 times the grid reach
    (half a cell's diagonal), L the declared bound on F; a proof in exact
    arithmetic, as in _exclusion_margins. ParamOutOfRange without a bound."""
    if F.lipschitz is None:
        raise ParamOutOfRange(f"{F.name or 'the map'} declares no Lipschitz bound")
    x0, x1, y0, y1 = map(float, region)
    # square cells where the aspect allows (inf for a tiny y-span), two ticks an axis
    aspect = min((x1 - x0) / (y1 - y0), _RANGE_SAMPLES)
    nx = min(max(2, round(math.sqrt(_RANGE_SAMPLES * aspect))), _RANGE_SAMPLES // 2)
    ny = _RANGE_SAMPLES // nx
    disp = _displacement(F, GridSpec(nx, ny, (x0, x1), (y0, y1)).points())[:, 0]
    if not np.isfinite(disp).all():
        raise NonFiniteDisplacement(f"non-finite x-displacement in {region}")
    hx, hy = (x1 - x0) / (nx - 1), (y1 - y0) / (ny - 1)
    slack = (F.lipschitz + 1.0) * 0.5 * math.hypot(hx, hy)
    return float(disp.min()) - slack, float(disp.max()) + slack


def _seam_start(F_iter: LiftMap, x0: float, y0: float, y1: float,
                resolution: float) -> float:
    """x0, moved so that no certified box can meet the seam lines x = x0 and
    x0 + 1. Such a box is at most ``resolution`` wide, so its point lies in
    the band [x0 - resolution, x0 + resolution] x [y0, y1], where D_x is -k
    for its translate k; the band is clear when the enclosure of D_x over it
    holds no integer, and then so is the band at x0 + 1, where D_x is the
    same plus d^n - 1. Otherwise x0 moves by what would put the enclosure's
    middle halfway between integers, were D_x linear, up to _ATTEMPTS times;
    once only when the enclosure is 1 or more wide and can never clear, as
    halfway is then the best place for the seam.
    """
    for _ in range(_ATTEMPTS):
        lo, hi = _x_displacement_range(F_iter, (x0 - resolution, x0 + resolution, y0, y1))
        mid = 0.5 * (lo + hi)
        if not math.isfinite(mid) or math.ceil(lo) > hi:   # unbounded, or clear
            break
        x0 += (math.floor(mid) + 0.5 - mid) / (F_iter.degree - 1)
        if not hi - lo < 1.0:
            break
    return x0


def _owned(F, box, x0: float) -> Optional[bool]:
    """Whether the point certified in a box lies in [x0, x0 + 1): where its
    centre lies, for a box clear of both seam lines; for a box that meets
    one (which _seam_start makes rare), the side to which one exclusion test
    of its two halves confines the point; None when that test proves neither.
    """
    bx0, bx1, by0, by1 = box
    for seam, inside_right in ((x0, True), (x0 + 1.0, False)):
        if bx0 <= seam <= bx1:
            margin, _ = _exclusion_margins(F, [(bx0, seam, by0, by1), (seam, bx1, by0, by1)])
            if margin[0] > 0 or margin[1] > 0:
                return bool(margin[0] > 0) == inside_right
            return None
    return x0 <= 0.5 * (bx0 + bx1) < x0 + 1.0


def _strip_report(F_iter: LiftMap, period: int, strip, resolution: float) -> NielsenReport:
    """One period on one strip: each admissible translate isolated on it,
    the boxes that _owned puts in [x0, x0 + 1) kept, continua counted once
    per residue; a box it cannot place, or a toolkit error in isolating or
    placing, is its translate's error."""
    modulus = abs(F_iter.degree - 1)
    x0, x1 = strip[0], strip[0] + 1.0
    lo, hi = _x_displacement_range(F_iter, strip)
    if not hi - lo < _SUBDIVISION_BUDGET:   # inf too
        raise BudgetExceeded(f"about {hi - lo:.3g} admissible translates on {strip}")
    boxes, errors, continuum = [], {}, {}
    for k in range(math.ceil(-hi), math.floor(-lo) + 1):
        residue = (-k) % modulus
        Fk = deck_translate(F_iter, k)
        try:
            found = isolate_fixed_points(Fk, strip, resolution, lift_offset=k)
            owned = [_owned(Fk, b.box, x0) for b in found]
        except BoundaryFixedPoint as exc:
            if diagnose_continuum(Fk, strip, resolution):
                continuum.setdefault(residue, k)
            else:
                errors[k] = f"{type(exc).__name__}: {exc}"
            continue
        except ToolkitError as exc:
            errors[k] = f"{type(exc).__name__}: {exc}"
            continue
        for b, own in zip(found, owned):
            if own is None:
                errors[k] = f"BoundaryFixedPoint: the box {b.box} meets a seam of the strip"
            elif own:
                boxes.append(b)
    return NielsenReport(period=period, modulus=modulus, fixed_boxes=tuple(boxes),
                         errors=errors, continuum_offsets=tuple(continuum.values()))


def completeness_check(F: LiftMap, n_max: int, region=None, resolution: float = 1e-3
                       ) -> list[NielsenReport]:
    """For each period n <= n_max, certify the period-n points of one unit
    strip S = [x0, x0 + 1) x [y0, y1], classify them by Nielsen residue, and
    report whether all |d^n - 1| residue classes are realized.

    Each period-n point has one lift p in S, fixed by F^n + (k, 0) with
    k = -D_x(p), D = F^n - id, so its residue is (-k) mod |d^n - 1|. The
    admissible k are those with -k in the enclosure of D_x over S, a proof
    under F's declared Lipschitz bound (ParamOutOfRange without one); each
    is isolated on S, and a box is kept when its centre lies in
    [x0, x0 + 1). That is exact when no box meets a seam line x = x0 or
    x0 + 1: _seam_start moves x0 before each period so that none can, and
    _owned places any box that still does by one exclusion test.

    ``region`` supplies x0 and [y0, y1], not x1; the default is _STRIP_X0
    and the map's y_window. Failures are recorded per translate; a
    translate whose fixed set looks one-dimensional is a continuum, counted
    once per residue.
    """
    n_max = int(n_max)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if abs(F.degree) <= 1:
        raise ParamOutOfRange("completeness sweeps need |degree| > 1")
    if region is None:
        x0, (y0, y1) = _STRIP_X0, F.y_window
    else:
        x0, _, y0, y1 = map(float, region)
    rectangle(x0, x0 + 1.0, y0, y1)   # a ValueError for a bad strip, before any sweep
    if not resolution > 0:  # NaN too
        raise ValueError("resolution must be positive")
    reports = []
    for n in range(1, n_max + 1):
        F_iter = iterate(F, n)
        start = _seam_start(F_iter, x0, y0, y1, resolution)
        reports.append(_strip_report(F_iter, n, (start, start + 1.0, y0, y1), resolution))
    return reports


def translate_strip(F: LiftMap, k: int) -> tuple[float, float, float, float]:
    """Default region of ``annulift fixed-points``: the unit strip
    [x0 + j, x0 + j + 1) x y_window, x0 = _STRIP_X0, shifted by the whole j
    that brings -k nearest the middle of the enclosure of (F - id)_x over
    it, as a unit shift moves that by d - 1 (j = 0 for degree 1)."""
    y0, y1 = F.y_window
    lo, hi = _x_displacement_range(F, (_STRIP_X0, _STRIP_X0 + 1.0, y0, y1))
    j = round((-k - 0.5 * (lo + hi)) / (F.degree - 1)) if F.degree != 1 else 0
    return (_STRIP_X0 + j, _STRIP_X0 + j + 1.0, y0, y1)


def growth_rate(reports) -> float:
    """max over n of ln(count_lower_bound)/n; compare against ln|d|."""
    if not reports:
        raise EmptyReport("no reports to take a growth rate from")
    rates = [np.log(r.count_lower_bound) / r.period
             for r in reports if r.count_lower_bound >= 1]
    return float(max(rates)) if rates else float("-inf")
