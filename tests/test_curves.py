import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from annulift import curves
from annulift.curves import (
    ClosedCurve,
    circle,
    curve_from_json,
    curve_to_json,
    interior_point,
    is_positively_oriented,
    point_in_polygon,
    polyline_self_intersects,
    rectangle,
    winding_number,
)
from annulift.errors import (
    DistanceViolation,
    NotSimple,
    RefinementBudgetExceeded,
)


def brute_winding(fn, basepoint, n=10_000):
    """Independent oracle: plain principal-value angle sum over a dense
    sampling of the parametrized curve, no refinement machinery."""
    t = np.arange(n + 1) / n
    pts = fn(t) - np.asarray(basepoint, dtype=float)
    ang = np.arctan2(pts[:, 1], pts[:, 0])
    steps = np.mod(np.diff(ang) + np.pi, 2 * np.pi) - np.pi
    return int(round(steps.sum() / (2 * np.pi)))


def ray_parity(point, samples):
    """Independent even-odd oracle (crossing count, scalar loop)."""
    x, y = point
    inside = False
    n = len(samples)
    for i in range(n):
        x0, y0 = samples[i]
        x1, y1 = samples[(i + 1) % n]
        if (y0 <= y) != (y1 <= y):
            xc = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            if xc > x:
                inside = not inside
    return inside


def test_unit_circle_winding():
    assert winding_number(circle(1.0, n=16), (0.0, 0.0)) == 1


def test_reversed_circle_winding():
    assert winding_number(circle(1.0, n=16).reversed(), (0.0, 0.0)) == -1


def test_degree_three_curve_matches_brute_force_oracle():
    def fn(t):
        a = 2 * np.pi * 3 * np.asarray(t, dtype=float)
        return np.stack([np.cos(a), np.sin(a)], axis=-1)

    assert brute_winding(fn, (0.0, 0.0)) == 3
    t = np.arange(10) / 10
    curve = ClosedCurve(fn(t), params=t, curve_fn=fn)
    assert winding_number(curve, (0.0, 0.0)) == 3


def test_basepoint_too_close_raises():
    c = circle(1.0, n=64)
    with pytest.raises(DistanceViolation):
        winding_number(c, (1.0, 0.0), min_dist=1e-9)
    with pytest.raises(DistanceViolation):
        winding_number(c, (0.999, 0.0), min_dist=0.01)


def test_refinement_budget_exceeded(monkeypatch):
    def fn(t):
        a = 2 * np.pi * 3 * np.asarray(t, dtype=float)
        return np.stack([np.cos(a), np.sin(a)], axis=-1)

    t = np.arange(5) / 5
    curve = ClosedCurve(fn(t), params=t, curve_fn=fn)
    monkeypatch.setattr(curves, "_REFINEMENT_BUDGET", 1)
    with pytest.raises(RefinementBudgetExceeded):
        winding_number(curve, (0.0, 0.0))


@st.composite
def convex_polygons(draw):
    n = draw(st.integers(min_value=4, max_value=12))
    jitter = np.array(draw(st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n)))
    angles = (np.arange(n) + jitter) / n  # strictly increasing, well separated
    radius = draw(st.floats(0.5, 3.0))
    pts = radius * np.stack(
        [np.cos(2 * np.pi * angles), np.sin(2 * np.pi * angles)], axis=-1)
    return ClosedCurve(pts)


@given(convex_polygons(), st.integers(0, 1000))
def test_refinement_invariance(curve, seed):
    rng = np.random.default_rng(seed)
    extra = rng.uniform(0.0, 1.0, size=5)
    refined = curve.refined(extra)
    p = np.array([0.0, 0.0])
    assert winding_number(refined, p) == winding_number(curve, p)


@given(convex_polygons(), st.integers(0, 1000))
def test_reversal_antisymmetry(curve, seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(-4.0, 4.0, size=2)
    from annulift.curves import distance_to_polyline
    if distance_to_polyline(p, curve.samples) < 1e-3:
        return
    assert winding_number(curve, p) + winding_number(curve.reversed(), p) == 0


@given(convex_polygons(), st.integers(0, 1000))
def test_same_component_basepoints_agree(curve, seed):
    # convex interior: strict convex combinations of the vertices
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(len(curve.samples)))
    q = curve.samples.T @ w
    centroid = curve.samples.mean(axis=0)
    assert winding_number(curve, centroid) == winding_number(curve, 0.5 * (q + centroid))


def test_ccw_square_positively_oriented():
    sq = ClosedCurve(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    assert is_positively_oriented(sq) is True


def test_cw_square_not_positively_oriented():
    sq = ClosedCurve(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]))
    assert is_positively_oriented(sq) is False


def test_rectangle_orientation_with_ray_casting_oracle():
    rect = rectangle(-2.0, 2.0, -1.0, 1.0, per_side=8)
    p0 = interior_point(rect)
    assert ray_parity(p0, rect.samples)  # the certified point really is inside
    assert is_positively_oriented(rect) is True
    assert is_positively_oriented(rect.reversed()) is False


def test_point_in_polygon_matches_oracle():
    rng = np.random.default_rng(7)
    tri = np.array([[0.0, 0.0], [2.0, 0.3], [0.7, 1.9]])
    for _ in range(200):
        p = rng.uniform(-1.0, 3.0, size=2)
        assert point_in_polygon(p, tri) == ray_parity(p, tri)


def test_figure_eight_not_simple():
    eight = ClosedCurve(np.array(
        [[-1.0, -1.0], [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]]))
    assert polyline_self_intersects(eight.samples)
    with pytest.raises(NotSimple):
        is_positively_oriented(eight)


def test_consecutive_duplicate_samples_rejected():
    with pytest.raises(ValueError):
        ClosedCurve(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))


def test_curve_json_round_trip():
    c = circle(2.0, n=12)
    data = json.loads(json.dumps(curve_to_json(c)))
    back = curve_from_json(data)
    assert np.allclose(back.samples, c.samples)
    assert len(back) == 12
