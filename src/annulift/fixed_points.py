"""Certified fixed-point isolation, Nielsen residues, completeness sweeps.

A box certifies a fixed point of a lift when the winding number of the
displacement field F - id around its boundary is nonzero; this needs only
continuity, no derivatives. Every other proof here, that a cell holds no
fixed point, which translates a strip admits and where each can have fixed
points, is one call of ``proofs.enclosure``, under the Lipschitz bound the
map declares; ``proofs`` names the whole trusted base. Isolation and sweeps
refuse a map without a bound (ParamOutOfRange).

A box is discarded when each cell of its 3 x 3 split is, by the enclosure at
the cell's centre. Centres, not edge samples: a box shares its edges with
its neighbours, and beside a fixed point's box the displacement on the
shared edge is near zero, so a neighbour sampled there survives to a leaf.
Each centre proves its own cell (W. Tucker, Validated Numerics, 2011: a
proved sub-box need not be proved again), so a box that is kept is replaced
by its kept cells alone; a box whose side along one axis is less than half
its side along the other becomes its kept thirds across the long side
instead (a third is kept with any of its cells). Boxes of any region thus
become near square (aspect at most 2) before they reach the resolution,
instead of keeping the region's aspect. The certified boxes come from this
tree of cells, whose boxes have disjoint interiors, so N of them prove N
distinct fixed points.

The tree is searched depth first, with the exclusion test batched: the
untested boxes at the top of the stack, up to _CHUNK of them, are tested in
one vectorised map call. Depth first, not level by level, because a
subdivision line through a fixed point aborts the attempt at the first leaf
that meets it; a level sweep would evaluate the whole tree before reaching
that leaf. Leaves are handled in exactly the one-box-at-a-time order, so
reports do not depend on the chunk size. A step makes one geometry pass: a
single tick grid per chunk, seven ticks an axis and box, holds the cell
centres, which are sampled, and the cell edges, from which the kept cells
are laid out, so the proved cells and the cells pushed are the same cells
by construction. The layout takes the whole tested chunk: a discarded box
has an empty mask, holds no slot and yields no row, so no step first
compresses the chunk to its kept boxes; and the sides hi - lo that cut a
box's grid also give its kind, computed once a chunk.

Every attempt subdivides a jittered copy of the caller's region (seeds 1 to
_ATTEMPTS), never the region as given: symmetric windows put the invariant
circle y = 0 of the shipped families on the first subdivision line. A
jittered region contains the original, so no fixed point of it is missed.
When the first attempt meets a fixed point on a subdivision line and the
fixed set looks one-dimensional there (diagnose_continuum, asked about the
box where attempt 1 failed), the search stops with FixedContinuum: no
jitter moves a line of fixed points off every subdivision line.

A completeness sweep counts each periodic point once, by its Nielsen class,
a residue of the deck offset k mod M = d^n - 1 (B. Jiang, Lectures on
Nielsen Fixed Point Theory, 1983). One enclosure of D = F^n - id over a
unit strip [x0, x0 + 1] x [y0, y1], which holds a lift of every periodic
point, on about _RANGE_SAMPLES cells that cover it, decides what is
searched: a translate F^n + (k, 0) is admitted when -k lies in the
enclosure of D_x, and its fixed points in the strip lie in the bounding box
of the cells whose |D(c) + (k, 0)| does not exceed the radius, grown by
half a cell and clipped to the strip, since every other cell is proved free
of them; a translate with no such cell fixes no point of the strip. As p is
fixed by F^n + (k + jM, 0) exactly when p + (j, 0) is fixed by F^n + (k, 0),
each class is isolated once, on its first translate with a region, over the
bounding box of its translates' regions, each moved onto that translate.
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
    restrict,
)
from .curves import check_rectangle, rectangle
from .errors import (
    BoundaryFixedPoint,
    BudgetExceeded,
    EmptyReport,
    FixedContinuum,
    FixedPointOnCurve,
    NonFiniteDisplacement,
    NotPeriodic,
    NonIntegerTranslation,
    ParamOutOfRange,
    ToolkitError,
)
from .index import lefschetz_index
from .proofs import enclosure

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
_RANGE_SAMPLES = 4096             # cells of a strip's displacement enclosure
# default strip [-1/2, 1/2): centred on the origin, which every shipped family
# fixes, like the y-window on y = 0; the jitter moves subdivision lines off both
_STRIP_X0 = -0.5

# boxes per vectorised exclusion call: large enough that numpy overhead is
# paid once per chunk, small enough that the sample arrays stay a few 100 kB
_CHUNK = 256
# 3 x 3 exclusion cells on one (N, 2, 7) tick grid per box, x ticks then y
# ticks: with h = (hi - lo) / 3 an axis, tick k is lo + h * k / 2, the last
# pinned to hi. Even tick 2i is edge i, so cell i spans ticks 2i and 2i + 2,
# and odd tick 2i + 1, lo + h * (i + 0.5), is its centre, where it is
# sampled. Cell c = 3 * i + j is row i, column j; it reads x tick 2j + 1 and
# y tick 2i + 1 of the grid flattened to (N, 14) (_CENTRES), and bit c of a
# kept mask is that cell
_TICKS = 0.5 * np.arange(2 * _EXCLUSION_GRID + 1)
_CENTRES = np.array([[2 * j + 1, 8 + 2 * i] for i in range(_EXCLUSION_GRID)
                     for j in range(_EXCLUSION_GRID)])
_BITS = 1 << np.arange(_EXCLUSION_GRID ** 2)
# Quadtree stack rows are (x0, x1, y0, y1, scale, kept): a box is a leaf once
# its size is at most its scale (the resolution, or the mop-up floor); kept is
# 0 for an untested box and the mask of its kept cells for a tested leaf.
# The rows that replace a kept box are the columns _LAYOUT[kind] of its
# extended row (its flattened grid 0-13, so x edges 0, 2, 4, 6 and y edges
# 7, 9, 11, 13; scale 14, 0 at 15, mask 16), one per slot that
# _USED[kind, mask] holds: a slot is held when it covers (_COVER[kind], a
# cell mask) a kept cell. Kinds: 0, the 3 x 3 cells; 1, the thirds across
# x; 2, across y; 3, a leaf, which stays whole, flagged by its mask. Slots
# run bottom-left to top-right, so the top-right child is pushed last (on
# top); unused slots stay 0.
_LAYOUT = np.zeros((4, 9, 6), dtype=int)
_LAYOUT[0] = [[2 * j, 2 * j + 2, 7 + 2 * i, 9 + 2 * i, 14, 15] for i in range(3)
              for j in range(3)]
_LAYOUT[1, :3] = [[2 * j, 2 * j + 2, 7, 13, 14, 15] for j in range(3)]
_LAYOUT[2, :3] = [[0, 6, 7 + 2 * i, 9 + 2 * i, 14, 15] for i in range(3)]
_LAYOUT[3, 0] = [0, 6, 7, 13, 14, 16]
_COVER = np.array([[1, 2, 4, 8, 16, 32, 64, 128, 256],
                   [73, 146, 292, 0, 0, 0, 0, 0, 0],     # column j: cells j, j + 3, j + 6
                   [7, 56, 448, 0, 0, 0, 0, 0, 0],       # row i: cells 3i to 3i + 2
                   [511, 0, 0, 0, 0, 0, 0, 0, 0]])
_USED = np.arange(512)[:, None] & _COVER[:, None, :] > 0   # (kind, mask, slot)


@dataclass(frozen=True)
class CertifiedFixedBox:
    """Axis-aligned box whose boundary degree certifies an interior fixed point.

    ``lift_offset`` is the k of the deck translate F + (k, 0) that the box
    was searched on (isolate_fixed_points' k): its point p has F(p) = p - (k, 0).
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

    discarded: list = field(default_factory=list)   # (box or cell, sampled_min, margin)
    unresolved: list = field(default_factory=list)  # fragments never resolved
    boxes_processed: int = 0                        # summed over attempts


class _BoundaryHit(Exception):
    """Internal: a fixed point sat on a subdivision boundary; jitter and retry.
    ``box`` is where the attempt stopped: the leaf whose boundary met a zero,
    or the mop-up fragment that survived."""

    def __init__(self, box):
        super().__init__(box)
        self.box = box


def _displacement(F, pts):
    return np.asarray(F(pts), dtype=float) - pts


def _grid(boxes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(grid, centres, half, size) of the 3 x 3 cells of an (N, 4) array of
    boxes: the (N, 2, 7) tick grid (_TICKS), whose even ticks are the cell
    edges; the cell centres, its odd ticks, (N * 9, 2), box by box; each
    box's half cell widths, (N, 2), which all its cells share; and its
    sides hi - lo, (N, 2), from which the cells are cut."""
    boxes = np.asarray(boxes, dtype=float)
    lo, hi = boxes[:, 0:4:2], boxes[:, 1:4:2]   # columns x, y
    size = hi - lo
    h = size / _EXCLUSION_GRID
    grid = lo[:, :, None] + h[:, :, None] * _TICKS
    grid[:, :, -1] = hi
    return (grid, grid.reshape(len(h), -1).take(_CENTRES, axis=1).reshape(-1, 2), 0.5 * h,
            size)


def _exclusion_margins(F, boxes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(margins, norms, grid, size) of the 3 x 3 cells of boxes: a cell's
    displacement norm at its centre less the enclosure radius, and the
    norm, each (N, 9), and the boxes' tick grid and sides (_grid); a
    margin > 0 proves the cell free of fixed points, and a box whose nine
    margins are all > 0 is."""
    grid, centres, half, size = _grid(boxes)
    _, norms, r = enclosure(F, centres, half)
    norms = norms.reshape(len(half), -1)
    return norms - r[:, None], norms, grid, size


def _layout(boxes, size, grid, masks, leaf: bool) -> tuple[np.ndarray, np.ndarray]:
    """(rows, kinds): the stack rows that replace untested (x0, x1, y0, y1,
    scale, 0) boxes, given their sides and tick grids (_grid) and the masks
    of their kept cells, and each box's kind (_LAYOUT). Every tested box is
    laid out: a box with an empty mask holds no slot, so it yields no row.
    With leaf true, a box at most its scale stays, flagged by its mask; any
    other box, and every box of a mop-up (leaf false), becomes its kept
    cells, or its kept thirds across the long side when one side is less
    than half the other, untested, top-right last. A few numpy calls for
    all boxes."""
    n = len(boxes)
    twice = 2.0 * size
    # 1 when the height is less than half the width, 2 in the mirror case
    kinds = (twice[:, 1] < size[:, 0]).astype(np.intp)
    kinds[twice[:, 0] < size[:, 1]] = 2
    if leaf:
        kinds[np.maximum(size[:, 0], size[:, 1]) <= boxes[:, 4]] = 3
    ext = np.empty((n, 17))
    ext[:, :14] = grid.reshape(n, 14)
    ext[:, 14:16] = boxes[:, 4:]
    ext[:, 16] = masks
    box, slot = _USED[kinds, masks].nonzero()   # box by box, slot by slot
    return ext[box[:, None], _LAYOUT[kinds[box], slot]], kinds


def _boundary_degree(F, box) -> int:
    x0, x1, y0, y1 = box
    curve = rectangle(x0, x1, y0, y1, per_side=_BOUNDARY_SAMPLES_PER_SIDE)
    return lefschetz_index(F, curve)


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
                  k: int) -> list[CertifiedFixedBox]:
    """One attempt: a depth-first tree of 3 x 3 cells over the region, whose
    certified boxes are stamped with k (F is already F + (k, 0)).

    The stack is an (N, 6) array of rows (x0, x1, y0, y1, scale, kept), top
    last. Each step tests the untested run at the top of the stack, at most
    _CHUNK boxes, in one _exclusion_margins call, and replaces it in place
    (_layout): a box goes when each of its 3 x 3 cells is proved free of
    fixed points, a box at leaf scale stays, flagged by the mask of its kept
    cells, and a larger one becomes its kept cells, or its kept thirds
    across the long side when one side is less than half the other, top
    right on top. Each sample proves its own cell, so no proved cell is
    tested again. A flagged leaf is handled when it reaches the top, so
    leaves are handled in exactly the order of a one-box-at-a-time
    depth-first search, whatever the chunk size.

    A leaf at resolution scale is certified by a nonzero boundary degree.
    A degree-0 leaf is mopped up: its kept cells (or thirds) go on the
    stack with the floor scale resolution / 256, to be searched down to it
    (the leaf itself is not tested again), and a mop-up fragment surviving
    there forces a jitter retry. No box is tested twice in an attempt. The
    subdivision budget counts the boxes tested in this attempt; an audit,
    when given, only observes. A non-finite displacement at any sample
    raises NonFiniteDisplacement (proofs.enclosure).
    """
    resolution = float(resolution)
    floor = resolution / 256.0
    certified = []
    processed = 0
    stack = np.array([[*region, resolution, 0.0]])
    while len(stack):
        if stack[-1, 5]:
            bx0, bx1, by0, by1, scale, mask = stack[-1].tolist()
            box = (bx0, bx1, by0, by1)
            stack = stack[:-1]
            if scale != resolution:  # a mop-up fragment
                if audit is not None:
                    audit.unresolved.append(box)
                raise _BoundaryHit(box)
            try:
                deg = _boundary_degree(F, box)
            except FixedPointOnCurve as exc:
                raise _BoundaryHit(box) from exc
            if deg != 0:
                certified.append(CertifiedFixedBox(box, deg, k))
                continue
            # the leaf failed exclusion, and its kept cells would fail it
            # again: go straight to them (or its kept thirds), as mop-up
            # fragments
            row = np.array([[*box, floor, 0.0]])
            grid, _, _, size = _grid(row)
            rows, _ = _layout(row, size, grid, np.array([int(mask)]), False)
            stack = np.concatenate([stack, rows])
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
        margin, norms, grid, size = _exclusion_margins(F, chunk[:, :4])
        # enclosure raised on any non-finite norm, so no margin is NaN
        masks = (margin <= 0).dot(_BITS)
        rows, kinds = _layout(chunk, size, grid, masks, True)
        if audit is not None:
            _audit_step(audit, chunk, masks, kinds, margin, norms, grid, resolution)
        stack = np.concatenate([stack[:start], rows])
    return sorted(certified, key=lambda c: c.box)


def _audit_step(audit, chunk, masks, kinds, margin, norms, grid, resolution) -> None:
    """Record a step's tested boxes and its discards at resolution scale
    (mop-up discards are not audited): each box that went whole, with its
    least sample and margin, then each cell dropped from a kept box, with
    its own."""
    audit.boxes_processed += len(chunk)
    top = chunk[:, 4] == resolution
    kept = masks > 0
    gone = ~kept & top
    audit.discarded.extend(zip(map(tuple, chunk[gone, :4].tolist()),
                               norms[gone].min(axis=1).tolist(),
                               margin[gone].min(axis=1).tolist()))
    covered = (_USED[kinds, masks] * _COVER[kinds]).sum(axis=1)   # slots are disjoint
    dropped = (covered[:, None] & _BITS == 0) & (kept & top)[:, None]
    cells = grid.reshape(-1, 14)[:, _LAYOUT[0, :, :4]]
    audit.discarded.extend(zip(map(tuple, cells[dropped].tolist()),
                               norms[dropped].tolist(), margin[dropped].tolist()))


def isolate_fixed_points(F: LiftMap, region, resolution: float, k: int = 0,
                         audit: Optional[IsolationAudit] = None
                         ) -> list[CertifiedFixedBox]:
    """Certified boxes around every fixed point of the deck translate
    F + (k, 0) inside the region, each stamped with k (its lift_offset).

    Adaptive tree of 3 x 3 cells: a cell is discarded only by the
    displacement lower bound that F's declared Lipschitz bound gives at its
    centre (its bound over the attempt's region, annulus_maps.restrict,
    which holds every cell of the attempt), a box is replaced by its kept
    cells while larger than the resolution, and a box at resolution scale
    is certified when its boundary degree is nonzero. A box is cut in thirds across its long side
    only while one side is less than half the other, so when the region's
    short side exceeds the resolution every certified box has aspect at
    most 2, whatever the region's aspect. The tree is searched depth first,
    a chunk of boxes per vectorised exclusion call, so that an attempt
    spoiled by a fixed point on a subdivision line stops at the first leaf
    that meets it.

    There are _ATTEMPTS attempts, each over the region translated and
    dilated by its own irrational offsets (jitter seeds 1, 2, ...; the
    dilation exceeds the translation, so each contains the original). The
    first attempt that meets no subdivision line returns. When the first
    attempt meets one, diagnose_continuum is asked about the box where it
    stopped (the leaf whose boundary met a zero, or the surviving mop-up
    fragment), descending from the box's centre with a step of a quarter of
    its longest side, and FixedContinuum (a BoundaryFixedPoint) is raised
    if the fixed set looks one-dimensional there; otherwise the other
    attempts run, and when all of them meet a line, BoundaryFixedPoint is
    raised. A non-finite displacement at any sample raises
    NonFiniteDisplacement, a reversed or overflowing region ValueError, and
    a map without a Lipschitz bound ParamOutOfRange. The boxes have disjoint
    interiors, so each certifies its own fixed point. The subdivision budget
    counts the boxes tested in one attempt; as a chunk is tested ahead of
    the depth-first order, an attempt that would fail on a boundary hit near
    the budget can report BudgetExceeded instead.
    """
    if not resolution > 0:  # NaN too
        raise ValueError("resolution must be positive")
    check_rectangle(*region)   # a ValueError for a bad region, before any attempt
    F = deck_translate(F, k)
    for attempt in range(1, _ATTEMPTS + 1):
        jittered = _jittered(region, attempt)
        try:
            return _isolate_once(restrict(F, jittered), jittered, resolution, audit, k)
        except _BoundaryHit as exc:
            last_exc = exc
        if attempt == 1 and diagnose_continuum(F, last_exc.box, resolution):
            raise FixedContinuum(
                "the fixed set looks one-dimensional: the first attempt met it "
                "on a subdivision line") from last_exc
    raise BoundaryFixedPoint(
        f"fixed point kept hitting subdivision boundaries after "
        f"{_ATTEMPTS} attempts") from last_exc


def polish_fixed_point(F, box: CertifiedFixedBox) -> np.ndarray:
    """Refine the certified point to high accuracy.

    Newton with a central-difference Jacobian, verified afterwards: each
    step is one map call on the first five points of _STENCIL, scaled by
    h, about p (the centre, then +-x and +-y). When Newton fails or leaves
    the box's neighbourhood, the point is found instead by the greedy
    descent that diagnose_continuum uses (_descend), from the box's centre
    with a step of a quarter of its size, so F needs no Lipschitz bound.
    The certification never relies on this step.
    """
    x0, x1, y0, y1 = box.box
    p = centre = np.array(box.center, dtype=float)
    size = box.size
    h = max(1e-9, 1e-3 * size)
    ok = False
    for _ in range(40):
        g, gx, g_x, gy, g_y = _displacement(F, p + h * _STENCIL[:5])
        if np.hypot(*g) < _POLISH_TOL:
            ok = True
            break
        jac = np.column_stack([(gx - g_x) / (2 * h), (gy - g_y) / (2 * h)])
        try:
            step = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError:
            break
        p = p + step
        if not (x0 - 3 * size <= p[0] <= x1 + 3 * size
                and y0 - 3 * size <= p[1] <= y1 + 3 * size):
            break
    if not ok:
        p = _descend(F, centre, size / 4)
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
        residue (-k) mod |d^n - 1|, or "" when d^n = 1 leaves no classes."""
        return tuple((-b.lift_offset) % self.modulus if self.modulus else ""
                     for b in self.fixed_boxes)

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


# the centre, +-x, +-y, then the diagonals: Newton's central differences read
# the first five
_STENCIL = np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1],
                     [1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)


def _descend(F, p, step: float) -> np.ndarray:
    """Greedy descent of the displacement norm from p on a 3 x 3 stencil,
    halving the step whenever p is the stencil's best point."""
    for _ in range(60):
        vals = np.hypot(*_displacement(F, p + step * _STENCIL).T)
        i = int(np.argmin(vals))
        p = p + step * _STENCIL[i]
        if i == 0:
            step *= 0.5
        if step < 1e-12:
            break
    return p


def diagnose_continuum(F, region, resolution: float) -> bool:
    """After isolation fails on a boundary hit: is the zero set of F - id
    not isolated, a curve or a region of zeros? isolate_fixed_points passes
    the box where its first attempt stopped as the region. A zero p is found
    by _descend from the region's centre, with a step of a quarter of its
    longest side, and a circle of radius 4 * resolution around p is probed.
    A curve of zeros through p crosses it twice, a region of zeros covers
    it, an isolated point keeps it clear: the circle must dip to at most
    0.05 of its median twice, at its lowest sample and a quarter turn or
    more from it, and each dip must descend to a zero, so that p and the two
    zeros lie pairwise at least 2 * resolution apart. Two isolated zeros, at
    any spacing, give no third; nor does a band where one component vanishes."""
    x0, x1, y0, y1 = map(float, region)
    p = _descend(F, np.array([0.5 * (x0 + x1), 0.5 * (y0 + y1)]),
                 0.25 * max(x1 - x0, y1 - y0))
    if not np.hypot(*_displacement(F, p)) <= 1e-6:   # NaN too
        return False
    n = 64
    ang = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    ring = p + 4.0 * resolution * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    vals = np.hypot(*_displacement(F, ring).T)
    first = int(np.argmin(vals))
    turn = (np.arange(n) - first) % n
    second = int(np.argmin(np.where(np.minimum(turn, n - turn) >= n // 4, vals, np.inf)))
    if not vals[second] <= 0.05 * _median(vals):   # vals[first] is no higher
        return False
    q = np.array([_descend(F, ring[i], resolution) for i in (first, second)])
    if not np.hypot(*_displacement(F, q).T).max() <= 1e-6:
        return False
    zeros = np.concatenate([p[None], q])
    gaps = np.hypot(*(zeros - np.roll(zeros, 1, axis=0)).T)   # all three pairs
    return bool(gaps.min() >= 2.0 * resolution)


def _strip_cells(F, region) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(centres, half, D, r): one enclosure of F - id over the region, on
    cells centred at a grid of about _RANGE_SAMPLES points, row by row in y,
    each with half the grid step as half-width (half, per axis), so that
    they cover the region; D (N, 2) at the centres, and the radius r that
    every cell shares."""
    x0, x1, y0, y1 = map(float, region)
    # square cells where the aspect allows (inf for a tiny y-span), two ticks an axis
    aspect = min((x1 - x0) / (y1 - y0), _RANGE_SAMPLES)
    nx = min(max(2, round(math.sqrt(_RANGE_SAMPLES * aspect))), _RANGE_SAMPLES // 2)
    ny = _RANGE_SAMPLES // nx
    half = np.array([0.5 * (x1 - x0) / (nx - 1), 0.5 * (y1 - y0) / (ny - 1)])
    centres = GridSpec(nx, ny, (x0, x1), (y0, y1)).points()
    D, _, (r,) = enclosure(F, centres, half[None])
    return centres, half, D, float(r)


def _x_range(cells) -> tuple[float, float]:
    """Enclosure [lo, hi] of D_x over _strip_cells' region: the range of D_x
    at the centres, widened by the radius."""
    _, _, D, r = cells
    return float(D[:, 0].min() - r), float(D[:, 0].max() + r)


def _translate_regions(cells, ks, strip) -> list:
    """For each translate k of ks, the region of the strip where it can fix
    points: the bounding box of the cells c (_strip_cells over the strip) with
    |D(c) + (k, 0)| <= r, grown by half a cell and clipped to the strip;
    None when there is no such cell. Every other cell holds no fixed point
    of F + (k, 0) (proofs), so the region holds each one in the strip, and
    None proves that there is none there.

    |D + (k, 0)| >= |D_y|, so a cell with |D_y| > r is out for every k; the
    rest are tested _CHUNK translates at a time, so no block holds more
    than _CHUNK x _RANGE_SAMPLES entries."""
    centres, half, D, r = cells
    near = np.abs(D[:, 1]) <= r
    if not near.any():
        return [None] * len(ks)
    xy, (Dx, Dy) = centres.compress(near, axis=0), D.compress(near, axis=0).T
    # the cells in x order, and in y order, which is the grid's row order
    orders = (np.argsort(xy[:, 0], kind="stable"), np.arange(len(xy)))
    x0, x1, y0, y1 = strip
    ks = np.asarray(ks, dtype=float)
    regions = []
    for start in range(0, len(ks), _CHUNK):
        t = np.add.outer(ks[start:start + _CHUNK], Dx)
        keep = np.hypot(t, Dy, out=t) <= r
        del t   # before the next block allocates its own
        lo, hi = np.empty((len(keep), 2)), np.empty((len(keep), 2))
        for axis, order in enumerate(orders):   # the first and last kept cell along it
            kept = keep[:, order]
            lo[:, axis] = xy[order[kept.argmax(axis=1)], axis]
            hi[:, axis] = xy[order[-1 - kept[:, ::-1].argmax(axis=1)], axis]
        lo = np.maximum(lo - half, (x0, y0)).tolist()
        hi = np.minimum(hi + half, (x1, y1)).tolist()
        regions.extend((a, b, c, d) if found else None
                       for (a, c), (b, d), found in zip(lo, hi, keep.any(axis=1).tolist()))
    return regions


def _class_regions(F: LiftMap, strip, only=None) -> dict:
    """{class: (k, region)}: the admissible translates of one enclosure of
    D = F - id over the strip that have a region (_translate_regions),
    grouped by class k mod |M|, M = d - 1 (k itself when M = 0), a class's
    region the bounding box of its translates' regions, each moved onto its
    first translate k; a class with no entry fixes no point with y in the strip.
    With ``only`` a translate, only its class's translates are enumerated,
    every |M|-th admissible one, and the budget bounds their count."""
    M = F.degree - 1
    cells = _strip_cells(F, strip)
    lo, hi = _x_range(cells)
    step = abs(M) if only is not None and M else 1
    if not (hi - lo) / step < _SUBDIVISION_BUDGET:   # inf too
        raise BudgetExceeded(f"about {(hi - lo) / step:.3g} admissible translates on {strip}")
    ks = range(math.ceil(-hi), math.floor(-lo) + 1)
    if only is not None:
        if M:
            ks = ks[(only - ks.start) % step::step]
        else:
            ks = range(only, only + 1) if only in ks else range(0)
    classes = {}   # k mod |M| -> (its first translate with a region, their merged region)
    for k, region in zip(ks, _translate_regions(cells, ks, strip)):
        if region is None:   # F + (k, 0) fixes no point of the strip
            continue
        key = k % abs(M) if M else k
        first, (x0, x1, y0, y1) = classes.setdefault(key, (k, region))
        s = (k - first) // M if M else 0   # moves the fixed points of k onto those of first
        classes[key] = (first, (min(x0, region[0] + s), max(x1, region[1] + s),
                                min(y0, region[2]), max(y1, region[3])))
    return classes


def _strip_report(F_iter: LiftMap, period: int, strip, resolution: float) -> NielsenReport:
    """One period on one strip: each class (_class_regions) is isolated once, on its
    first translate k, over its region; a continuum or error is the class's, keyed by k."""
    boxes, errors, continuum = [], {}, []
    for k, region in _class_regions(F_iter, strip).values():
        try:
            boxes.extend(isolate_fixed_points(F_iter, region, resolution, k))
        except FixedContinuum:
            continuum.append(k)
        except ToolkitError as exc:
            errors[k] = f"{type(exc).__name__}: {exc}"
    return NielsenReport(period=period, modulus=abs(F_iter.degree - 1), fixed_boxes=tuple(boxes),
                         errors=errors, continuum_offsets=tuple(continuum))


def completeness_check(F: LiftMap, n_max: int, region=None, resolution: float = 1e-3
                       ) -> list[NielsenReport]:
    """For each period n <= n_max, certify the period-n points, each once,
    classify them by Nielsen residue, and report whether all |d^n - 1|
    residue classes are realized.

    Every period-n point has a lift p in the unit strip
    S = [x0, x0 + 1] x [y0, y1], fixed by F^n + (k, 0) with
    k = -D_x(p), D = F^n - id, and its residue is (-k) mod |d^n - 1|. One
    enclosure of D over S, a proof under F's declared Lipschitz bound
    (ParamOutOfRange without one), admits the k with -k in its range of
    D_x and bounds where in S each can fix a point; a k with no room there
    fixes no point of S and is not searched. Each class is then isolated
    once, on one translate, over where the enclosure leaves room for the
    lifts of its points (_strip_report), so each periodic point is counted
    once, wherever it lies in S, on the strip's edges too.

    ``region`` supplies x0 and [y0, y1], not x1; the default is _STRIP_X0
    and the map's y_window. Failures are recorded per class; a class whose
    fixed set looks one-dimensional is a continuum, counted once.
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
    check_rectangle(x0, x0 + 1.0, y0, y1)   # a ValueError for a bad strip, before any sweep
    if not resolution > 0:  # NaN too
        raise ValueError("resolution must be positive")
    return [_strip_report(iterate(F, n), n, (x0, x0 + 1.0, y0, y1), resolution)
            for n in range(1, n_max + 1)]


def translate_region(F: LiftMap, k: int):
    """Default region of ``annulift fixed-points``: k's class region over
    [_STRIP_X0, _STRIP_X0 + 1] x y_window (_class_regions, enumerating only
    k's class), moved onto k;
    None proves, under F's declared bound, that F + (k, 0) fixes no point.
    For degree 1 it lies in the strip, searched jittered a little wider, so
    a point on the strip's edge is reported at both edges."""
    y0, y1 = F.y_window
    found = _class_regions(F, (_STRIP_X0, _STRIP_X0 + 1.0, y0, y1), only=k)
    if not found:
        return None
    (first, (x0, x1, y0, y1)), = found.values()
    M = F.degree - 1
    s = (first - k) // M if M else 0
    return (x0 + s, x1 + s, y0, y1)


def growth_rate(reports) -> float:
    """max over n of ln(count_lower_bound)/n; compare against ln|d|."""
    if not reports:
        raise EmptyReport("no reports to take a growth rate from")
    rates = [np.log(r.count_lower_bound) / r.period
             for r in reports if r.count_lower_bound >= 1]
    return float(max(rates)) if rates else float("-inf")
