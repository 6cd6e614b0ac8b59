"""Executable index-identity suites: each run re-derives one of the index
facts the fixed-point machinery rests on, with exact integer expectations.

Used by the CLI ``lemmas`` subcommand and by the test suite. The suites
take no tolerances: they run at the fixed constants of the index and curves
modules.

Work that two checks share is done once in a run: the two frame layouts
are checked against one quadrilateral frame, the inward index jump is the
outward one reversed, and the six circles of z^2 are one homotopy profile
on the unit circle. Each homotopy evaluates all its times in one call a
round: the squash is one saddle image scaled row by row, the circles one
call of the z^2 map on the six scaled curves stacked. Nothing is kept from
one run to the next; only the z^2 map itself is built once, at import.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .annulus_maps import projected_plane_map, zoo
from .curves import ClosedCurve, circle
from .index import (
    QuadFrame,
    homotopy_index_profile,
    index_jump_experiment,
    quad_frame,
    saddle_rectangle_index,
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _scaled(pts, sx: float, sy: float) -> np.ndarray:
    """(sx * x, sy * y), written into one array."""
    pts = np.asarray(pts, dtype=float)
    out = np.empty(pts.shape)
    np.multiply(sx, pts[..., 0], out=out[..., 0])
    np.multiply(sy, pts[..., 1], out=out[..., 1])
    return out


def _saddle(pts):
    return _scaled(pts, 2.0, 0.5)


def _crossed(pts):
    return _scaled(pts, -2.0, 0.5)


def _squashed_saddle(times, pts):
    """The saddle's images under each time t's map, its vertical component
    scaled by 1 - t: one saddle image of pts, stacked (len(times),) +
    pts.shape. Element for element the arithmetic of one time alone."""
    img = _saddle(pts)
    scale = 1.0 - np.asarray(times, dtype=float)
    out = np.empty(scale.shape + img.shape)
    out[...] = img
    np.multiply(scale.reshape(scale.shape + (1,) * (img.ndim - 1)), img[..., 1],
                out=out[..., 1])
    return out


# the power map z^2 on the plane, whose index is 1 inside the unit circle and
# 2 outside it; built once, as building re-runs the lift's spot checks
_POWER2 = projected_plane_map(zoo("power", d=2))


def _power2_at_radii(radii, pts):
    """z^2 conjugated by z -> r z for each radius r, stacked (len(radii),) +
    pts.shape: one _POWER2 call on the points scaled by every radius. Its
    displacement along the unit circle is that of z^2 along circle(r),
    divided by r, so it has the same index."""
    r = np.asarray(radii, dtype=float)
    r = r.reshape(r.shape + (1,) * np.ndim(pts))
    return _POWER2(r * pts) / r


def _frame_lines():
    alpha = np.array([[-3.0, 1.0], [3.0, 1.0]])
    beta = np.array([[-3.0, -1.0], [3.0, -1.0]])
    gamma = np.array([[-1.0, -3.0], [-1.0, 3.0]])
    delta = np.array([[1.0, -3.0], [1.0, 3.0]])
    return alpha, beta, gamma, delta


def suite_saddle_rectangle() -> SuiteResult:
    idx = saddle_rectangle_index(_saddle, (-1, 1, -1, 1))
    return SuiteResult("saddle rectangle boundary", idx == -1, f"index {idx}, expected -1")


def suite_crossed_rectangle() -> SuiteResult:
    idx = saddle_rectangle_index(_crossed, (-1, 1, -1, 1))
    return SuiteResult("crossed rectangle boundary", idx == 1, f"index {idx}, expected +1")


def suite_quad_straight(frame: QuadFrame) -> SuiteResult:
    """Checked against the run's frame of _frame_lines."""
    idx = frame.index(_saddle, -1)
    return SuiteResult("quadrilateral frame, straight layout", idx == -1,
                       f"index {idx}, expected -1")


def suite_quad_swapped(frame: QuadFrame) -> SuiteResult:
    """Checked against the run's frame of _frame_lines."""
    idx = frame.index(_crossed, 1)
    return SuiteResult("quadrilateral frame, swapped layout", idx == 1,
                       f"index {idx}, expected +1")


def suite_index_jump() -> SuiteResult:
    """The arc-push homotopy is counted once: running it "in" runs the same
    family backwards, so the inward pair is the outward pair reversed."""
    g = circle(1.0, n=256)
    out_pair = index_jump_experiment(g, (0.0, 0.125), "out", inner_point=(0.0, 0.0))
    in_pair = out_pair[::-1]
    ok = out_pair == (1, 0) and in_pair == (0, 1)
    return SuiteResult("index jump across an arc", ok,
                       f"outward {out_pair} expected (1, 0); inward {in_pair} expected (0, 1)")


def suite_homotopy_invariance() -> SuiteResult:
    # squash the saddle image onto the horizontal axis: never a fixed point
    # on the boundary, so the index must stay -1 the whole way
    boundary = ClosedCurve(np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]))
    profile = homotopy_index_profile(_squashed_saddle, boundary, np.linspace(0.0, 1.0, 20))
    squash_ok = all(v == -1 for v in profile)

    # free homotopy of the curve: the power-map index is constant on each
    # side of the invariant circle
    indices = homotopy_index_profile(_power2_at_radii, circle(1.0, 256),
                                     (0.3, 0.5, 0.7, 1.5, 2.0, 3.0))
    inner, outer = indices[:3], indices[3:]
    radii_ok = inner == [1, 1, 1] and outer == [2, 2, 2]

    return SuiteResult(
        "homotopy invariance of the index",
        squash_ok and radii_ok,
        f"squash profile {sorted(set(profile))} expected [-1]; "
        f"inner radii {inner} expected all 1; outer radii {outer} expected all 2")


ALL_SUITES = (
    suite_saddle_rectangle,
    suite_crossed_rectangle,
    suite_quad_straight,
    suite_quad_swapped,
    suite_index_jump,
    suite_homotopy_invariance,
)


_FRAME_SUITES = (suite_quad_straight, suite_quad_swapped)


def run_all() -> list[SuiteResult]:
    frame = quad_frame(*_frame_lines())   # both frame suites check against it
    return [suite(frame) if suite in _FRAME_SUITES else suite() for suite in ALL_SUITES]
