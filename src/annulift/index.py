"""Lefschetz index of a map along a closed curve, and the index toolbox:
saddle rectangles, quadrilateral frames, index jumps pushed from a given
interior base point, and the index profile of a homotopy.

The index of a map f along a curve gamma (no fixed points on gamma) is the
winding number of the displacement loop t -> f(gamma(t)) - gamma(t) about
the origin. Everything here reduces to that one number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import (
    _MIN_NORM,
    ClosedCurve,
    _as_point,
    _cyclic_next,
    _integer_coords,
    _orient_signs,
    _segment_distances,
    _segments_meet,
    _turning_count,
    _turning_counts,
    distance_to_polyline,
    is_positively_oriented,
    point_in_polygon,
    rectangle,
)
from .errors import (
    BoundaryConditionViolation,
    ConfigurationViolation,
    FixedPointOnCurve,
    HomotopyConstructionFailure,
    NotAQuadrilateral,
    NotSimple,
    ToolkitError,
)
from .proofs import circle_index


_RECT_SAMPLES_PER_SIDE = 64   # saddle rectangle samples, for its conditions and its index
# homotopy times index_jump_experiment probes between its ends, i / (N + 1):
# an even count N keeps them off the crossing at 1/2, at least 1/(2N + 2) away
_JUMP_PROBES = 8


def lefschetz_index(F, curve: ClosedCurve) -> int:
    """Winding number of the displacement curve F(gamma) - gamma about 0.

    ``F`` is any vectorized plane-map callable (a LiftMap works). Raises
    FixedPointOnCurve when the displacement magnitude drops to the turning
    count's floor (curves._MIN_NORM) at any sample or refinement point,
    which means the index is undefined, and NonFiniteDisplacement when a
    displacement there is NaN or infinite.

    The index is the turning count of the sampled displacement, which
    refines only angle steps of at least pi/2: a displacement that turns by
    nearly a whole multiple of 2*pi between samples aliases undetected.
    A circle of a projected lift is therefore decided from its samples
    where they settle it: when F's images of ``curve.samples`` are the
    tagged images of a projected_plane_map callable, ``curve`` is a
    circle() that records its radius, and every sample displacement passes
    the count's checks (each component below 2^1023, one above _MIN_NORM),
    ``proofs.circle_index`` gives the index from the lift's cover images of
    the samples, with no further map call. So power(3)^5 and power(3)^6 on
    circle(r, 256), 1.1 <= r <= 2, give 243 and 729, where the count gives
    -13 and -39. A circle whose samples do not settle it, such as
    power(729) on circle(1.0001, 256) (the count gives 9, not 729), and
    every other curve or callable get the count.
    """
    def disp(t):
        pts = curve.point_at(t)
        return np.asarray(F(pts), dtype=float) - pts

    samples = curve.samples
    img = F(samples)
    v0 = np.asarray(img, dtype=float) - samples
    if curve.radius is not None and getattr(img, "points", None) is samples:
        # a norm lies between the max-norm and sqrt(2) times it: max-norms
        # in (_MIN_NORM, 2^1023) pass the count's checks on the samples
        size = np.abs(v0)
        size = np.maximum(size[:, 0], size[:, 1])
        if size.max() < 2.0 ** 1023 and size.min() > _MIN_NORM:
            index = circle_index(img.lift, img.cover, curve.radius)
            if index is not None:
                return index
    return _turning_count(v0, curve.params, disp, FixedPointOnCurve, "fixed point on curve")


# -- saddle rectangles ----------------------------------------------------------

def saddle_rectangle_index(F, rect) -> int:
    """Index of F along the positively oriented boundary of ``rect``.

    The vertical conditions are mandatory: the top side must map strictly
    below the top line and the bottom strictly above the bottom line. The
    horizontal conditions select the branch: right side strictly to the
    right and left strictly to the left gives index -1 (a topological
    saddle); the crossed variant (right lands left of the box, left lands
    right of it) gives +1. Anything else raises BoundaryConditionViolation
    naming the failing side and sample. The conditions are checked on the
    samples the index is computed on, rectangle(..., per_side=64), a side
    being the samples on its line, both corners included.
    """
    x0, x1, y0, y1 = map(float, rect)
    curve = rectangle(x0, x1, y0, y1, per_side=_RECT_SAMPLES_PER_SIDE)
    pts = curve.samples
    img = np.asarray(F(pts), dtype=float)
    on = {"top": pts[:, 1] == y1, "bottom": pts[:, 1] == y0,
          "right": pts[:, 0] == x1, "left": pts[:, 0] == x0}
    right_of, left_of = img[:, 0] > x1, img[:, 0] < x0

    def holds(side, ok):
        return bool(ok[on[side]].all())

    def fail(side, ok):
        pt = pts[np.flatnonzero(on[side] & ~ok)[0]]
        raise BoundaryConditionViolation(
            f"{side} side condition fails at ({pt[0]:.6g}, {pt[1]:.6g})",
            side=side, point=tuple(pt))

    for side, ok in (("top", img[:, 1] < y1), ("bottom", img[:, 1] > y0)):
        if not holds(side, ok):
            fail(side, ok)

    if holds("right", right_of) and holds("left", left_of):
        expect = -1
    elif holds("right", left_of) and holds("left", right_of):
        expect = 1
    elif not holds("right", right_of):
        fail("right", right_of)
    else:
        fail("left", left_of)

    idx = lefschetz_index(F, curve)
    if idx != expect:
        raise ToolkitError(f"boundary conditions promise index {expect}, computed {idx}")
    return idx


# -- quadrilateral frames -------------------------------------------------------

def _polyline_crossings(*lines):
    """Every meeting of two of the open polylines, as arrays (k, l, points,
    pos_k, pos_l): lines k < l meet at each point, at pos = segment index +
    fraction along each. All segment pairs are tested in one broadcast, and
    exactly (curves._segments_meet). Segment s owns [a_s, b_s), a line's last
    segment also its end, so a shared vertex counts once. Collinear segments
    that meet raise NotAQuadrilateral. A touch lies at its vertex exactly;
    only a proper crossing's fractions and point are rounded."""
    starts = np.concatenate([line[:-1] for line in lines])
    ends = np.concatenate([line[1:] for line in lines])
    sizes = [len(line) - 1 for line in lines]
    owner = np.repeat(np.arange(len(lines)), sizes)
    seg = np.arange(len(starts)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    last = seg == np.repeat(sizes, sizes) - 1
    i, j = np.nonzero(owner[:, None] < owner)
    meet, signs = _segments_meet(starts[i], ends[i], starts[j], ends[j])
    on = signs == 0   # q1, q2 on the line through p1 p2, then p1, p2 on q1 q2's
    if (meet & on.all(axis=0)).any():
        raise NotAQuadrilateral("segments of two frame lines overlap")
    # a meeting at a segment's end belongs to the line's next segment
    own = meet & ~(on[3] & ~last[i]) & ~(on[1] & ~last[j])
    i, j, on = i[own], j[own], on[:, own]
    p1, p2, q1, q2 = starts[i], ends[i], starts[j], ends[j]
    r, s, qp = p2 - p1, q2 - q1, q1 - p1
    with np.errstate(under="ignore"):   # rounded anyway, tiny products too
        denom = r[:, 0] * s[:, 1] - r[:, 1] * s[:, 0]
        # no division for a fraction that a touch sets below, or the loop
        t = np.divide(qp[:, 0] * s[:, 1] - qp[:, 1] * s[:, 0], denom, out=np.zeros(len(denom)),
                      where=(denom != 0) & ~(on[2] | on[3])).clip(0.0, 1.0)
        u = np.divide(qp[:, 0] * r[:, 1] - qp[:, 1] * r[:, 0], denom, out=np.zeros(len(denom)),
                      where=(denom != 0) & ~(on[0] | on[1])).clip(0.0, 1.0)
        # a meeting whose float r x s rounds to 0: exact, as _exact_orient_sign,
        # then rounded once, and in [0, 1] as the exact fraction is
        for k in (denom == 0).nonzero()[0].tolist():
            ax, ay, bx, by, cx, cy, ex, ey = _integer_coords([*p1[k], *p2[k], *q1[k], *q2[k]])
            rx, ry, sx, sy, qx, qy = bx - ax, by - ay, ex - cx, ey - cy, cx - ax, cy - ay
            den = rx * sy - ry * sx
            t[k], u[k] = (qx * sy - qy * sx) / den, (qx * ry - qy * rx) / den
        points = p1 + t[:, None] * r
    # a touch is the vertex on the other segment, at fraction 0 or 1
    for k, vertex, frac, value in ((0, q1, u, 0.0), (1, q2, u, 1.0),
                                   (2, p1, t, 0.0), (3, p2, t, 1.0)):
        points[on[k]] = vertex[on[k]]
        frac[on[k]] = value
    return owner[i], owner[j], points, seg[i] + t, seg[j] + u


def _sub_arc(poly: np.ndarray, corner: np.ndarray, pos_a: float, pos_b: float) -> np.ndarray:
    """The corner at position pos_a of an open polyline, followed by the
    vertices strictly between positions pos_a and pos_b, from a to b."""
    k = np.arange(len(poly))
    lo, hi = min(pos_a, pos_b), max(pos_a, pos_b)
    between = poly[(lo < k) & (k < hi)]
    return np.concatenate([corner[None], between if pos_a < pos_b else between[::-1]])


def _frame_sides(lines, queries) -> list:
    """Sides (+1, -1, or 0 on it) of each frame line for its own query
    points: the exact orientation sign against the nearest of that line's
    segments, ties to its lowest segment. One distance matrix and one sign
    call answer every line."""
    a = np.concatenate([line[:-1] for line in lines])
    b = np.concatenate([line[1:] for line in lines])
    pts = np.concatenate(queries)
    nseg = [len(line) - 1 for line in lines]
    first = np.cumsum(nseg) - nseg   # each line's first segment
    owner = np.repeat(np.arange(len(lines)), [len(q) for q in queries])
    dist = _segment_distances(pts, a, b)
    dist[owner[:, None] != np.repeat(np.arange(len(lines)), nseg)] = np.inf
    # a point whose own distances are all inf finds an earlier inf first:
    # its nearest is then its line's first segment, as over its line alone
    j = np.maximum(dist.argmin(axis=1), first[owner])
    signs = _orient_signs(a[j], b[j], pts)
    ends = np.cumsum([0] + [len(q) for q in queries]).tolist()
    return [signs[lo:hi] for lo, hi in zip(ends, ends[1:])]


@dataclass(frozen=True, eq=False)
class QuadFrame:
    """The quadrilateral bounded by two pairs of frame lines (quad_frame),
    built once and checked against any number of maps (index).

    ``lines`` are alpha, beta, gamma, delta as float arrays; ``corners`` the
    crossings alpha x gamma, alpha x delta, beta x delta, beta x gamma;
    ``arcs`` the sides along alpha, delta, beta and gamma, each from its
    corner to the next side's; ``ring`` the arcs end to end; ``curve`` the
    ring without repeated points, positively oriented.
    """

    lines: tuple
    corners: np.ndarray
    arcs: tuple
    ring: np.ndarray
    curve: ClosedCurve

    def index(self, F, expect: int) -> int:
        """Index of F along the frame's boundary, after the side and
        half-region conditions of the layout ``expect`` (quad_configuration_index)
        hold for F's images of the sides."""
        if expect not in (-1, 1):
            raise ValueError("expect must be -1 or +1")
        alpha, beta, gamma, delta = self.lines
        ring = self.ring
        img = np.asarray(F(np.concatenate([ring, ring[:1]])), float)
        ends = np.cumsum([0] + [len(arc) for arc in self.arcs])
        img_a, img_d, img_b, img_g = (img[lo:hi + 1] for lo, hi in zip(ends, ends[1:]))

        # sample-resolution membership checks for the four half-region conditions:
        # the four frame lines are queried together, each for the other line of
        # its pair and for the side images that must lie on (+1) or off (-1)
        # that line's side
        if expect == -1:
            pushed = ((img_g, "the gamma side"), (img_d, "the delta side"))
        else:
            pushed = ((img_d, "the delta side (swapped layout)"),
                      (img_g, "the gamma side (swapped layout)"))
        checks = ((alpha, beta, 1, img_a, "the alpha side"), (beta, alpha, 1, img_b, "the beta side"),
                  (gamma, delta, -1, *pushed[0]), (delta, gamma, -1, *pushed[1]))
        sides = _frame_sides(self.lines,
                             [np.concatenate([other, image]) for _, other, _, image, _ in checks])
        for (_, other, _, _, _), name, s in zip(checks, ("beta", "alpha", "delta", "gamma"), sides):
            if not (np.all(s[:len(other)] > 0) or np.all(s[:len(other)] < 0)):
                raise ConfigurationViolation(f"{name} does not lie on one side of the frame line")
        for (_, other, sense, _, what), s in zip(checks, sides):
            if not np.all(s[len(other):] == sense * s[0]):
                raise ConfigurationViolation(f"image of {what} is not in the required half region")

        idx = lefschetz_index(F, self.curve)
        if idx != expect:
            raise ToolkitError(f"frame conditions promise index {expect}, computed {idx}")
        return idx


def quad_frame(alpha, beta, gamma, delta) -> QuadFrame:
    """The quadrilateral of quad_configuration_index's frame lines, with no map:
    its crossings, sides, ring and positively oriented boundary curve.
    Raises NotAQuadrilateral when the lines do not bound one."""
    alpha, beta = np.asarray(alpha, float), np.asarray(beta, float)
    gamma, delta = np.asarray(gamma, float), np.asarray(delta, float)

    k, l, points, pos_k, pos_l = _polyline_crossings(alpha, beta, gamma, delta)
    pairs = list(zip(k.tolist(), l.tolist()))
    if (0, 1) in pairs:
        raise NotAQuadrilateral("alpha and beta must be disjoint")
    if (2, 3) in pairs:
        raise NotAQuadrilateral("gamma and delta must be disjoint")

    def single(pair, name):
        at = [n for n, p in enumerate(pairs) if p == pair]
        if len(at) != 1:
            raise NotAQuadrilateral(f"{name}: expected exactly one crossing, got {len(at)}")
        return points[at[0]], pos_k[at[0]], pos_l[at[0]]

    p_ag, a_at_g, g_at_a = single((0, 2), "alpha x gamma")
    p_ad, a_at_d, d_at_a = single((0, 3), "alpha x delta")
    p_bg, b_at_g, g_at_b = single((1, 2), "beta x gamma")
    p_bd, b_at_d, d_at_b = single((1, 3), "beta x delta")

    # each side runs from its corner to the next side's corner
    arcs = (_sub_arc(alpha, p_ag, a_at_g, a_at_d),
            _sub_arc(delta, p_ad, d_at_a, d_at_b),
            _sub_arc(beta, p_bd, b_at_d, b_at_g),
            _sub_arc(gamma, p_bg, g_at_b, g_at_a))
    ring = np.concatenate(arcs)
    boundary = ring[(ring != _cyclic_next(ring)).any(axis=1)]
    if len(boundary) < 3:
        raise NotAQuadrilateral("assembled boundary is not a simple closed curve")
    curve = ClosedCurve(boundary)
    try:
        positive = is_positively_oriented(curve)
    except NotSimple as exc:
        raise NotAQuadrilateral("assembled boundary is not a simple closed curve") from exc
    return QuadFrame(lines=(alpha, beta, gamma, delta),
                     corners=np.array([p_ag, p_ad, p_bd, p_bg]), arcs=arcs, ring=ring,
                     curve=curve if positive else curve.reversed())


def quad_configuration_index(F, alpha, beta, gamma, delta, expect: int) -> int:
    """Index of F along the quadrilateral bounded by two pairs of frame lines.

    alpha/beta and gamma/delta are open polylines standing in for disjoint
    proper lines; each of gamma, delta must cross each of alpha, beta
    exactly once. ``expect=-1`` demands the straight layout (images of the
    gamma/delta sides pushed beyond their own line, away from the other),
    ``expect=+1`` the swapped layout (each pushed beyond the *other* line).
    Side membership is decided at sample resolution. Crossings, sides and
    containment use exact orientation signs; only the choice of the nearest
    segment for a side and the coordinates of a crossing are floats.

    The same as ``quad_frame(alpha, beta, gamma, delta).index(F, expect)``;
    checking several maps against one frame builds it once.
    """
    if expect not in (-1, 1):
        raise ValueError("expect must be -1 or +1")
    return quad_frame(alpha, beta, gamma, delta).index(F, expect)


# -- index jumps across an arc --------------------------------------------------

def _arc_push(gamma: ClosedCurve, arc: tuple[float, float], inner_point):
    """(images, p_in, p_out) of the arc-push homotopy, where images(s, u)
    gives the time-s maps at curve parameters u for a 1-d array of times s,
    shape s.shape + u.shape + (2,): one broadcast of one formula, so a
    time's images are the same bits whichever times come with it."""
    t0, t1 = arc
    width = (t1 - t0) % 1.0
    if not 0.0 < width < 0.5:
        raise ValueError("arc width must lie in (0, 1/2) so the doubled arc fits")
    mid = (t0 + 0.5 * width) % 1.0
    pm = gamma.point_at(mid)

    h = width / 100.0
    tang = gamma.point_at(mid + h) - gamma.point_at(mid - h)
    tang = tang / np.hypot(*tang)
    outward = np.array([tang[1], -tang[0]])  # right of the tangent, CCW curve

    p_in = _as_point(inner_point)
    if not point_in_polygon(p_in, gamma.samples):
        raise HomotopyConstructionFailure("base point is not interior to the curve")

    rho = 0.25 * gamma.diameter
    for _ in range(40):
        p_out = pm + rho * outward
        if (not point_in_polygon(p_out, gamma.samples)
                and distance_to_polyline(p_out, gamma.samples) > 1e-9):
            break
        rho *= 0.5
    else:
        raise HomotopyConstructionFailure("could not place an exterior target")

    def images(s, u):
        u = np.asarray(u, dtype=float)
        # the moving target: p_in to the arc midpoint pm, then on to p_out
        s = np.asarray(s, dtype=float).reshape((-1,) + (1,) * u.ndim + (1,))
        p_s = np.where(s <= 0.5, p_in + 2.0 * s * (pm - p_in),
                       pm + (2.0 * s - 1.0) * (p_out - pm))
        # a piecewise linear bump on the doubled arc blends p_in toward it
        du = np.abs(np.mod(u - mid + 0.5, 1.0) - 0.5)   # cyclic distance to mid
        lam = np.clip(2.0 - 2.0 * du / width, 0.0, 1.0)[..., None]
        return (1.0 - lam) * p_in + lam * p_s

    return images, p_in, p_out


def index_jump_experiment(gamma: ClosedCurve, arc: tuple[float, float],
                          direction: str, inner_point) -> tuple[int, int]:
    """Push the image of an arc of gamma across gamma and report the index
    before and after.

    The homotopy starts from the constant map at ``inner_point``, which must
    lie inside gamma; a bump on the doubled arc drags the arc's image across
    the arc midpoint, at time 1/2, to an exterior point. direction="out"
    starts from the constant interior map (index 1) and ends with the arc's
    image outside (index 0): the difference is +1.
    direction="in" runs the same family backwards and the difference is -1.
    Raises HomotopyConstructionFailure if any probed time develops a fixed
    point away from the arc or the jump size is wrong.

    The 10 times, 0, 1 and the probes i / 9 between, are one stack of loops
    on one refined grid (curves._turning_counts), evaluated in one
    broadcast of the arc-push formula. The error raised is the one the
    times give in that order, one after another: a failure at an earlier
    time, or a broken plateau at an earlier probe, wins over a later one.
    """
    if direction not in ("out", "in"):
        raise ValueError("direction must be 'out' or 'in'")
    # a circle() that records its radius is counterclockwise and simple by
    # construction; any other curve is checked
    if gamma.radius is None and not is_positively_oriented(gamma):
        raise ValueError("gamma must be positively oriented")

    images, _, _ = _arc_push(gamma, arc, inner_point)
    # the family must sit on one index plateau on each side of the crossing
    probes = np.linspace(0.0, 1.0, _JUMP_PROBES + 2)[1:-1]
    times = np.concatenate([[0.0, 1.0], probes])
    counts, error = _turning_counts(
        images(times, gamma.params) - gamma.samples, gamma.params,
        lambda t, rows: images(times[:rows], t) - gamma.point_at(t),
        FixedPointOnCurve, "fixed point on curve")

    if len(counts) >= 2:
        i_inside, i_outside = counts[:2]   # arc image interior, then pushed exterior
        for s, idx in zip(probes.tolist(), counts[2:]):
            if idx != (i_inside if s < 0.5 else i_outside):
                raise HomotopyConstructionFailure(f"index plateau broken at time {s:.3f}")
    if isinstance(error, FixedPointOnCurve):
        raise HomotopyConstructionFailure(
            f"fixed point developed at homotopy time {times[len(counts)]}: {error}") from error
    if error is not None:
        raise error

    i_start, i_end = (i_inside, i_outside) if direction == "out" else (i_outside, i_inside)
    want = 1 if direction == "out" else -1
    if i_start - i_end != want:
        raise HomotopyConstructionFailure(
            f"index jump {i_start - i_end} instead of {want} for direction {direction!r}")
    return i_start, i_end


def homotopy_index_profile(images, curve: ClosedCurve, times: Sequence[float]) -> list[int]:
    """Indices along the curve of a homotopy's maps at the given times.

    ``images(times, points)`` gives the images of points under every time's
    map at once, an array of shape ``(len(times),) + points.shape``, for a
    1-d float array of times: the convention of _arc_push's images(s, u).
    The displacement loops of all times share one refined grid
    (curves._turning_counts), so the profile makes one ``images`` call on
    the curve's samples and one a refinement round, for the times still
    counted. No times gives [] without a call. Of the failures a turning
    count meets, a NaN, infinite or too short displacement, the earliest
    time's wins over a later one, as counting one time after another would
    give; an exception that ``images`` raises propagates as raised.
    """
    times = np.asarray(times, dtype=float)
    if not len(times):
        return []
    pts = curve.samples

    def disp(t, rows):
        at = curve.point_at(t)
        return np.asarray(images(times[:rows], at), dtype=float) - at

    counts, error = _turning_counts(np.asarray(images(times, pts), dtype=float) - pts,
                                    curve.params, disp, FixedPointOnCurve, "fixed point on curve")
    if error is not None:
        raise error
    return counts
