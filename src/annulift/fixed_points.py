"""Certified fixed-point isolation, Nielsen residues, completeness sweeps.

A box certifies a fixed point of a lift when the winding number of the
displacement field F - id around its boundary is nonzero; this needs only
continuity, no derivatives. Boxes are discarded only when a sampled
displacement lower bound (grid minimum minus a finite-difference Lipschitz
estimate times the grid reach) excludes zeros, so the certified boxes cover
every fixed point of the region up to the validity of that estimate. The
exclusion estimate is cross-checked by a dense oracle in the test suite.

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
_ATTEMPTS = 4                     # jittered attempts before BoundaryFixedPoint
_JITTER_BASE = math.sqrt(2.0) * 1e-4
_MERGE_RADIUS_FACTOR = 2.0        # merge radius = factor * resolution
_BOUNDARY_SAMPLES_PER_SIDE = 16   # rectangle samples for a leaf's boundary degree
_RESIDUE_DISP_TOL = 1e-7          # NotPeriodic threshold on the projected point
_RESIDUE_INT_TOL = 1e-5           # near-integer threshold for the translation

# boxes per vectorised exclusion call: large enough that numpy overhead is
# paid once per chunk, small enough that the sample arrays stay a few 100 kB
_CHUNK = 256
# children of (x0, x1, y0, y1, xm, ym) in push order, top-right last (on top)
_CHILDREN = np.array([[0, 4, 2, 5], [4, 1, 2, 5], [0, 4, 5, 3], [4, 1, 5, 3]])


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
    """(margins, sampled_mins) of an (N, 4) array of boxes: margin > 0
    certifies the box has no fixed point, up to the finite-difference
    Lipschitz estimate. The m x m sample grids of all boxes go through one
    map call."""
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    n, m = len(boxes), _EXCLUSION_GRID
    lo, hi = boxes[:, 0::2], boxes[:, 1::2]   # columns x, y
    h = (hi - lo) / (m - 1)
    hx, hy = h.T
    # i*step + lo with the last sample pinned to hi: np.linspace, bit for bit
    ticks = np.arange(m, dtype=float)[:, None] * h[:, None] + lo[:, None]
    ticks[:, -1] = hi
    pts = np.empty((n, m, m, 2))
    pts[..., 0] = ticks[:, None, :, 0]
    pts[..., 1] = ticks[:, :, None, 1]
    disp = _displacement(F, pts.reshape(-1, 2)).reshape(n, m, m, 2)
    norms = np.hypot(disp[..., 0], disp[..., 1])
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
    reach = 0.5 * np.hypot(hx, hy)
    sampled_min = norms.min(axis=(1, 2))
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
    rng = np.random.default_rng(attempt)
    t = attempt * _JITTER_BASE
    tx, ty = t * (0.2 + 0.6 * rng.random(2))
    dx, dy = t * (1.1 + 0.5 * rng.random(2))  # dilation > translation: superset
    x0, x1, y0, y1 = map(float, region)
    return (x0 - tx - dx, x1 - tx + dx, y0 - ty - dy, y1 - ty + dy)


def _isolate_once(F, region, resolution: float, audit: Optional[IsolationAudit],
                  lift_offset: int) -> list[CertifiedFixedBox]:
    """One attempt: a depth-first quadtree over the region.

    The stack is an (N, 4) array of boxes, top last. Each step tests the
    untested run at the top of the stack, at most _CHUNK boxes, in one
    _exclusion_margins call, and replaces it in place: excluded boxes go,
    boxes at leaf scale stay, flagged as tested, and larger ones become their
    four children, top-right on top. A flagged leaf is handled when it
    reaches the top, so leaves are handled in exactly the order of a
    one-box-at-a-time depth-first search, whatever the chunk size.

    A leaf at resolution scale is certified by a nonzero boundary degree.
    A degree-0 leaf that was not excluded is mopped up: it goes back on the
    stack, marked, to be searched down to the floor scale resolution / 256,
    and a marked fragment surviving there forces a jitter retry. The
    subdivision budget counts the boxes tested in this attempt; an audit,
    when given, only observes.
    """
    x0, x1, y0, y1 = region
    boundary = rectangle(x0, x1, y0, y1, per_side=64)
    bnorm = np.hypot(*_displacement(F, boundary.samples).T)
    if bnorm.min() <= _BOUNDARY_MIN_DISP:
        raise _BoundaryHit
    floor = resolution / 256.0
    certified = []
    processed = 0
    boxes = np.array([region], dtype=float)
    mop = np.zeros(1, dtype=bool)      # box belongs to the mop-up of a leaf
    tested = np.zeros(1, dtype=bool)   # box was tested and kept at leaf scale
    while len(boxes):
        if tested[-1]:
            box, mopping = tuple(boxes[-1].tolist()), mop[-1]
            boxes, mop, tested = boxes[:-1], mop[:-1], tested[:-1]
            if mopping:
                if audit is not None:
                    audit.unresolved.append(box)
                raise _BoundaryHit
            try:
                deg = _boundary_degree(F, box)
            except (FixedPointOnCurve, DistanceViolation) as exc:
                raise _BoundaryHit from exc
            if deg != 0:
                certified.append(CertifiedFixedBox(box, deg, lift_offset))
            else:
                boxes = np.concatenate([boxes, [box]])
                mop = np.append(mop, True)
                tested = np.append(tested, False)
            continue
        flagged = np.flatnonzero(tested[-_CHUNK:])
        start = len(boxes) - min(len(boxes), _CHUNK)
        if len(flagged):
            start += int(flagged[-1]) + 1
        chunk, chunk_mop = boxes[start:], mop[start:]
        processed += len(chunk)
        if processed > _SUBDIVISION_BUDGET:
            raise BudgetExceeded(f"subdivision cap {_SUBDIVISION_BUDGET} passed")
        margin, sampled_min = _exclusion_margins(F, chunk)
        out = margin > 0
        if audit is not None:
            audit.boxes_processed += len(chunk)
            # mop-up discards are not audited; top of the stack first, the
            # order in which the boxes would be popped one at a time
            gone = (out & ~chunk_mop)[::-1]
            audit.discarded.extend(zip(map(tuple, chunk[::-1][gone].tolist()),
                                       sampled_min[::-1][gone].tolist(),
                                       margin[::-1][gone].tolist()))
        keep, keep_mop = chunk[~out], chunk_mop[~out]
        leaf = (np.maximum(keep[:, 1] - keep[:, 0], keep[:, 3] - keep[:, 2])
                <= np.where(keep_mop, floor, resolution))
        mids = 0.5 * (keep[:, 0::2] + keep[:, 1::2])
        slots = np.concatenate([keep, mids], axis=1)[:, _CHILDREN]
        slots[leaf, 0] = keep[leaf]
        used = np.ones((len(keep), 4), dtype=bool)
        used[leaf, 1:] = False
        fanout = used.sum(axis=1)
        boxes = np.concatenate([boxes[:start], slots[used]])
        mop = np.concatenate([mop[:start], np.repeat(keep_mop, fanout)])
        tested = np.concatenate([tested[:start], np.repeat(leaf, fanout)])
    return sorted(certified, key=lambda c: c.box)


def _merge_clusters(boxes: list[CertifiedFixedBox], radius: float, F
                    ) -> list[CertifiedFixedBox]:
    """Merge boxes certifying the same point (centers within the merge radius).

    The merged representative is the cluster hull, re-certified when its own
    boundary degree can be computed; otherwise the first member stands in.
    """
    if len(boxes) <= 1:
        return list(boxes)
    centers = np.array([b.center for b in boxes])
    n = len(boxes)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if np.hypot(*(centers[i] - centers[j])) <= radius:
                parent[find(i)] = find(j)

    clusters: dict[int, list[CertifiedFixedBox]] = {}
    for i, b in enumerate(boxes):
        clusters.setdefault(find(i), []).append(b)

    merged = []
    for members in clusters.values():
        if len(members) == 1:
            merged.append(members[0])
            continue
        xs0, xs1, ys0, ys1 = zip(*(m.box for m in members))
        hull = (min(xs0), max(xs1), min(ys0), max(ys1))
        try:
            deg = _boundary_degree(F, hull)
            merged.append(CertifiedFixedBox(hull, deg, members[0].lift_offset))
        except (FixedPointOnCurve, DistanceViolation):
            merged.append(members[0])
    return sorted(merged, key=lambda c: c.box)


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
    do, BoundaryFixedPoint is raised. Boxes certifying the same point are
    merged (radius twice the resolution). The subdivision budget counts the
    boxes tested in one attempt; as a chunk is tested ahead of the
    depth-first order, an attempt that would fail on a boundary hit near
    the budget can report BudgetExceeded instead.
    """
    if not resolution > 0:  # NaN too
        raise ValueError("resolution must be positive")
    last_exc = None
    for attempt in range(1, _ATTEMPTS + 1):
        try:
            boxes = _isolate_once(F, _jittered(region, attempt), resolution, audit,
                                  lift_offset)
            return _merge_clusters(boxes, _MERGE_RADIUS_FACTOR * resolution, F)
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
    g = _displacement(F, p)
    if np.hypot(*g) > 1e-9:
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
    return bool(vals.min() < 0.05 * np.median(vals))


def completeness_check(F: LiftMap, n_max: int, region=None, resolution: float = 1e-3
                       ) -> list[NielsenReport]:
    """For each period n <= n_max, sweep every deck translate F^n + (k, 0),
    certify its fixed points, classify them by residue, and report whether
    all |d^n - 1| residue classes are realized.

    Isolation, polish and residue failures are recorded per translate in the
    report instead of aborting the sweep; translates whose fixed set looks
    one-dimensional are flagged as a single-class continuum and count once.
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
                found_residues = [nielsen_residue(F, project(polish_fixed_point(Fk, b)), n)
                                  for b in found]
            except BoundaryFixedPoint as exc:
                if diagnose_continuum(Fk, region, resolution):
                    continuum.append(k)
                else:
                    errors[k] = f"{type(exc).__name__}: {exc}"
            except ToolkitError as exc:
                errors[k] = f"{type(exc).__name__}: {exc}"
            else:
                boxes.extend(found)
                residues.extend(found_residues)
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
