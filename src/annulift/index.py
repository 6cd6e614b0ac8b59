"""Lefschetz index of a map along a closed curve, and the index toolbox:
saddle rectangles, quadrilateral frames, and controlled index jumps.

The index of a map f along a curve gamma (no fixed points on gamma) is the
winding number of the displacement loop t -> f(gamma(t)) - gamma(t) about
the origin. Everything here reduces to that one number.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .curves import (
    ClosedCurve,
    _as_point,
    _turning_count,
    distance_to_polyline,
    interior_point,
    is_positively_oriented,
    point_in_polygon,
    polyline_self_intersects,
    rectangle,
)
from .errors import (
    BoundaryConditionViolation,
    ConfigurationViolation,
    FixedPointOnCurve,
    HomotopyConstructionFailure,
    NotAQuadrilateral,
    ToolkitError,
)


def lefschetz_index(F, curve: ClosedCurve, min_disp: float = 1e-6) -> int:
    """Winding number of the displacement curve F(gamma) - gamma about 0.

    ``F`` is any vectorized plane-map callable (a LiftMap works). Raises
    FixedPointOnCurve when the displacement magnitude drops to min_disp at
    any sample or refinement point, which means the index is undefined,
    and NonFiniteDisplacement when a displacement there is NaN or infinite.
    Refinement only reacts to angle steps of at least pi/2, so a
    displacement that turns by nearly a whole multiple of 2*pi between
    samples aliases undetected: on circle(r, 256) with 1 < r <= 2 the
    projected power(3)^5 and power(3)^6 give -13 and -39, not 243 and 729.
    """

    def disp(t):
        pts = curve.point_at(t)
        return np.asarray(F(pts), dtype=float) - pts

    v0 = np.asarray(F(curve.samples), dtype=float) - curve.samples
    return _turning_count(v0, curve.params, disp, min_disp,
                          FixedPointOnCurve, "fixed point on curve")


def _param_lefschetz(map_at: Callable[[np.ndarray], np.ndarray], curve: ClosedCurve,
                     min_disp: float) -> int:
    """Index for a map given directly in curve parameters (t -> image point)."""

    def disp(t):
        return np.asarray(map_at(t), dtype=float) - curve.point_at(t)

    v0 = np.asarray(map_at(curve.params), dtype=float) - curve.samples
    return _turning_count(v0, curve.params, disp, min_disp,
                          FixedPointOnCurve, "fixed point on curve")


# -- saddle rectangles ----------------------------------------------------------

def _side_samples(rect, per_side: int):
    x0, x1, y0, y1 = map(float, rect)
    if not (x1 > x0 and y1 > y0):
        raise ValueError("rectangle needs x1 > x0 and y1 > y0")
    u = np.linspace(0.0, 1.0, per_side)
    # bottom, top, left and right, written into one array
    out = np.empty((4, per_side, 2))
    out[:2, :, 0] = x0 + (x1 - x0) * u
    out[:2, :, 1] = ((y0,), (y1,))
    out[2:, :, 0] = ((x0,), (x1,))
    out[2:, :, 1] = y0 + (y1 - y0) * u
    return dict(zip(("bottom", "top", "left", "right"), out))


def saddle_rectangle_index(F, rect, per_side: int = 64, min_disp: float = 1e-6) -> int:
    """Index of F along the positively oriented boundary of ``rect``.

    The vertical conditions are mandatory: the top side must map strictly
    below the top line and the bottom strictly above the bottom line. The
    horizontal conditions select the branch: right side strictly to the
    right and left strictly to the left gives index -1 (a topological
    saddle); the crossed variant (right lands left of the box, left lands
    right of it) gives +1. Anything else raises BoundaryConditionViolation
    naming the failing side and sample.
    """
    x0, x1, y0, y1 = map(float, rect)
    sides = _side_samples(rect, per_side)
    imgs = {name: np.asarray(F(pts), dtype=float) for name, pts in sides.items()}

    def fail(side, mask):
        i = int(np.flatnonzero(mask)[0])
        pt = sides[side][i]
        raise BoundaryConditionViolation(
            f"{side} side condition fails at ({pt[0]:.6g}, {pt[1]:.6g})",
            side=side, point=tuple(pt))

    bad_top = ~(imgs["top"][:, 1] < y1)
    if bad_top.any():
        fail("top", bad_top)
    bad_bottom = ~(imgs["bottom"][:, 1] > y0)
    if bad_bottom.any():
        fail("bottom", bad_bottom)

    straight = (imgs["right"][:, 0] > x1).all() and (imgs["left"][:, 0] < x0).all()
    crossed = (imgs["right"][:, 0] < x0).all() and (imgs["left"][:, 0] > x1).all()
    if straight:
        expect = -1
    elif crossed:
        expect = 1
    else:
        bad_right = ~(imgs["right"][:, 0] > x1)
        side = "right" if bad_right.any() else "left"
        mask = bad_right if bad_right.any() else ~(imgs["left"][:, 0] < x0)
        fail(side, mask)

    curve = rectangle(x0, x1, y0, y1, per_side=per_side)
    idx = lefschetz_index(F, curve, min_disp=min_disp)
    if idx != expect:
        raise ToolkitError(f"boundary conditions promise index {expect}, computed {idx}")
    return idx


# -- quadrilateral frames -------------------------------------------------------

def _segment_crossing(p1, p2, q1, q2):
    """Intersection point of two segments, or None (parallel / disjoint)."""
    r = p2 - p1
    s = q2 - q1
    denom = r[0] * s[1] - r[1] * s[0]
    if denom == 0.0:
        return None
    qp = q1 - p1
    t = (qp[0] * s[1] - qp[1] * s[0]) / denom
    u = (qp[0] * r[1] - qp[1] * r[0]) / denom
    if 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0:
        return p1 + t * r, t, u
    return None


def _polyline_crossings(c1: np.ndarray, c2: np.ndarray):
    """All crossings of two open polylines as (point, pos1, pos2) with
    pos = segment index + fraction."""
    hits = []
    for i in range(len(c1) - 1):
        for j in range(len(c2) - 1):
            hit = _segment_crossing(c1[i], c1[i + 1], c2[j], c2[j + 1])
            if hit is not None:
                pt, t, u = hit
                hits.append((pt, i + t, j + u))
    # dedupe crossings that coincide (shared polyline vertices)
    unique = []
    for pt, s1, s2 in hits:
        if not any(np.hypot(*(pt - q)) < 1e-12 for q, _, _ in unique):
            unique.append((pt, s1, s2))
    return unique


def _sub_arc(poly: np.ndarray, pos_a: float, pos_b: float) -> np.ndarray:
    """Piece of an open polyline between two positions (index + fraction)."""
    if pos_a > pos_b:
        return _sub_arc(poly, pos_b, pos_a)[::-1]
    ia, ua = int(np.floor(pos_a)), pos_a - np.floor(pos_a)
    ib, ub = int(np.floor(pos_b)), pos_b - np.floor(pos_b)
    start = poly[ia] + ua * (poly[min(ia + 1, len(poly) - 1)] - poly[ia])
    end = poly[ib] + ub * (poly[min(ib + 1, len(poly) - 1)] - poly[ib])
    middle = poly[ia + 1:ib + 1]
    pts = [start] + list(middle) + [end]
    out = [pts[0]]
    for p in pts[1:]:
        if np.hypot(*(p - out[-1])) > 1e-12:
            out.append(p)
    return np.asarray(out)


def _side_of_line(poly: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Which side of a proper-line polyline each point lies on (+1/-1/0),
    by the cross product against the nearest segment's direction."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    a, b = poly[:-1], poly[1:]
    ab = b - a
    ab2 = np.einsum("ij,ij->i", ab, ab)
    ap = pts[:, None, :] - a[None, :, :]
    u = np.clip(np.einsum("nmj,mj->nm", ap, ab) / ab2, 0.0, 1.0)
    foot = a[None] + u[..., None] * ab[None]
    d = np.hypot(foot[..., 0] - pts[:, None, 0], foot[..., 1] - pts[:, None, 1])
    j = np.argmin(d, axis=1)
    seg_dir = ab[j]
    rel = pts - a[j]
    cross = seg_dir[:, 0] * rel[:, 1] - seg_dir[:, 1] * rel[:, 0]
    return np.sign(cross)


def _constant_side(poly: np.ndarray, pts: np.ndarray, what: str) -> float:
    sides = _side_of_line(poly, pts)
    if np.any(sides == 0.0) or not (np.all(sides > 0) or np.all(sides < 0)):
        raise ConfigurationViolation(f"{what} does not lie on one side of the frame line")
    return float(sides[0])


def quad_configuration_index(F, alpha, beta, gamma, delta, expect: int,
                             min_disp: float = 1e-6) -> int:
    """Index of F along the quadrilateral bounded by two pairs of frame lines.

    alpha/beta and gamma/delta are open polylines standing in for disjoint
    proper lines; each of gamma, delta must cross each of alpha, beta
    exactly once. ``expect=-1`` demands the straight layout (images of the
    gamma/delta sides pushed beyond their own line, away from the other),
    ``expect=+1`` the swapped layout (each pushed beyond the *other* line).
    Side membership is decided at sample resolution.
    """
    if expect not in (-1, 1):
        raise ValueError("expect must be -1 or +1")
    alpha, beta = np.asarray(alpha, float), np.asarray(beta, float)
    gamma, delta = np.asarray(gamma, float), np.asarray(delta, float)

    if _polyline_crossings(alpha, beta):
        raise NotAQuadrilateral("alpha and beta must be disjoint")
    if _polyline_crossings(gamma, delta):
        raise NotAQuadrilateral("gamma and delta must be disjoint")

    def single(c1, c2, name):
        hits = _polyline_crossings(c1, c2)
        if len(hits) != 1:
            raise NotAQuadrilateral(f"{name}: expected exactly one crossing, got {len(hits)}")
        return hits[0]

    p_ag, a_at_g, g_at_a = single(alpha, gamma, "alpha x gamma")
    p_ad, a_at_d, d_at_a = single(alpha, delta, "alpha x delta")
    p_bg, b_at_g, g_at_b = single(beta, gamma, "beta x gamma")
    p_bd, b_at_d, d_at_b = single(beta, delta, "beta x delta")

    arc_a = _sub_arc(alpha, a_at_g, a_at_d)      # alpha side, gamma-end first
    arc_b = _sub_arc(beta, b_at_d, b_at_g)       # beta side, delta-end first
    arc_g = _sub_arc(gamma, g_at_b, g_at_a)      # gamma side, beta-end first
    arc_d = _sub_arc(delta, d_at_a, d_at_b)      # delta side, alpha-end first

    ring = [arc_a, arc_d, arc_b, arc_g]
    pts = [ring[0][0]]
    for arc in ring:
        for p in arc:
            if np.hypot(*(p - pts[-1])) > 1e-12:
                pts.append(p)
    if np.hypot(*(pts[-1] - pts[0])) < 1e-12:
        pts.pop()
    boundary = np.asarray(pts)
    if len(boundary) < 3 or polyline_self_intersects(boundary):
        raise NotAQuadrilateral("assembled boundary is not a simple closed curve")
    curve = ClosedCurve(boundary)
    if not is_positively_oriented(curve):
        curve = curve.reversed()

    # sample-resolution membership checks for the four half-region conditions
    side_ab = _constant_side(alpha, beta, "beta")       # side of alpha holding beta
    side_ba = _constant_side(beta, alpha, "alpha")
    side_gd = _constant_side(gamma, delta, "delta")     # side of gamma holding delta
    side_dg = _constant_side(delta, gamma, "gamma")

    img_a = np.asarray(F(arc_a), float)
    img_b = np.asarray(F(arc_b), float)
    img_g = np.asarray(F(arc_g), float)
    img_d = np.asarray(F(arc_d), float)

    def require(img, line, want, what):
        sides = _side_of_line(line, img)
        if not np.all(sides == want):
            raise ConfigurationViolation(f"image of {what} is not in the required half region")

    require(img_a, alpha, side_ab, "the alpha side")
    require(img_b, beta, side_ba, "the beta side")
    if expect == -1:
        require(img_g, gamma, -side_gd, "the gamma side")
        require(img_d, delta, -side_dg, "the delta side")
    else:
        require(img_d, gamma, -side_gd, "the delta side (swapped layout)")
        require(img_g, delta, -side_dg, "the gamma side (swapped layout)")

    idx = lefschetz_index(F, curve, min_disp=min_disp)
    if idx != expect:
        raise ToolkitError(f"frame conditions promise index {expect}, computed {idx}")
    return idx


# -- index jumps across an arc --------------------------------------------------

def _cyclic_offset(u, center):
    return np.mod(u - center + 0.5, 1.0) - 0.5


def arc_push_family(gamma: ClosedCurve, arc: tuple[float, float],
                    inner_point=None, outer_point=None):
    """Homotopy that drags the image of an arc of gamma from a constant
    interior point across the arc's midpoint to an exterior point.

    The time-s map is defined on gamma in curve parameters: a piecewise
    linear bump supported on the doubled arc blends the constant base map
    toward a moving target that crosses gamma exactly at the arc midpoint
    at s = 1/2. Returns (family, p_in, p_out) where family(s) maps curve
    parameters to image points.
    """
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

    p_in = interior_point(gamma) if inner_point is None else _as_point(inner_point)
    if not point_in_polygon(p_in, gamma.samples):
        raise HomotopyConstructionFailure("base point is not interior to the curve")

    if outer_point is not None:
        p_out = _as_point(outer_point)
        if point_in_polygon(p_out, gamma.samples):
            raise HomotopyConstructionFailure("outer target is not exterior")
    else:
        p_out = None
        rho = 0.25 * gamma.diameter
        for _ in range(40):
            cand = pm + rho * outward
            if (not point_in_polygon(cand, gamma.samples)
                    and distance_to_polyline(cand, gamma.samples) > 1e-9):
                p_out = cand
                break
            rho *= 0.5
        if p_out is None:
            raise HomotopyConstructionFailure("could not place an exterior target")

    def bump(u):
        du = np.abs(_cyclic_offset(u, mid))
        return np.clip(2.0 - 2.0 * du / width, 0.0, 1.0)

    def target(s):
        if s <= 0.5:
            return p_in + 2.0 * s * (pm - p_in)
        return pm + (2.0 * s - 1.0) * (p_out - pm)

    def family(s):
        p_s = target(s)

        def map_at(u):
            lam = bump(np.asarray(u, dtype=float))[..., None]
            return (1.0 - lam) * p_in + lam * p_s

        return map_at

    return family, p_in, p_out


def index_jump_experiment(gamma: ClosedCurve, arc: tuple[float, float],
                          direction: str, inner_point=None, min_disp: float = 1e-6,
                          probe_times: int = 8) -> tuple[int, int]:
    """Push the image of an arc of gamma across gamma and report the index
    before and after.

    direction="out" starts from the constant interior map (index 1) and
    ends with the arc's image outside (index 0): the difference is +1.
    direction="in" runs the same family backwards and the difference is -1.
    Raises HomotopyConstructionFailure if any probed time develops a fixed
    point away from the arc or the jump size is wrong.
    """
    if direction not in ("out", "in"):
        raise ValueError("direction must be 'out' or 'in'")
    if not is_positively_oriented(gamma):
        raise ValueError("gamma must be positively oriented")

    family, _, _ = arc_push_family(gamma, arc, inner_point=inner_point)

    def index_at(s):
        try:
            return _param_lefschetz(family(s), gamma, min_disp)
        except FixedPointOnCurve as exc:
            raise HomotopyConstructionFailure(
                f"fixed point developed at homotopy time {s}: {exc}") from exc

    i_inside = index_at(0.0)   # arc image still interior
    i_outside = index_at(1.0)  # arc image pushed exterior

    # the family must sit on one index plateau on each side of the crossing
    for s in np.linspace(0.0, 1.0, probe_times + 2)[1:-1]:
        if abs(s - 0.5) < 0.05:
            continue
        if index_at(s) != (i_inside if s < 0.5 else i_outside):
            raise HomotopyConstructionFailure(f"index plateau broken at time {s:.3f}")

    if direction == "out":
        i_start, i_end = i_inside, i_outside
    else:
        i_start, i_end = i_outside, i_inside
    jump = i_start - i_end
    want = 1 if direction == "out" else -1
    if jump != want:
        raise HomotopyConstructionFailure(
            f"index jump {jump} instead of {want} for direction {direction!r}")
    return i_start, i_end


def homotopy_index_profile(family, curve: ClosedCurve, times: Sequence[float],
                           min_disp: float = 1e-6) -> list[int]:
    """Indices of family(t) along the curve at the given times; family(t)
    must be a vectorized plane-map callable for each t."""
    return [lefschetz_index(family(t), curve, min_disp=min_disp) for t in times]
