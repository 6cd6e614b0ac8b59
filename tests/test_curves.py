import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from annulift import curves
from annulift.curves import (
    ClosedCurve,
    _collinear_on,
    _orient2,
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


def _all_pairs_self_intersects(samples, closed=True):
    """Reference: the same proper-or-touch predicate on every pair of
    non-adjacent segments, no pruning."""
    pts = np.asarray(samples, dtype=float)
    if len(pts) < 4:
        return False
    a, b = (pts, np.roll(pts, -1, axis=0)) if closed else (pts[:-1], pts[1:])
    m = len(a)
    i, j = np.triu_indices(m, k=2)
    if closed:
        keep = ~((i == 0) & (j == m - 1))
        i, j = i[keep], j[keep]
    if i.size == 0:
        return False
    p1, p2, q1, q2 = a[i], b[i], a[j], b[j]
    d1, d2 = _orient2(p1, p2, q1), _orient2(p1, p2, q2)
    d3, d4 = _orient2(q1, q2, p1), _orient2(q1, q2, p2)
    proper = (d1 * d2 < 0) & (d3 * d4 < 0)
    touch = (((d1 == 0) & _collinear_on(p1, p2, q1))
             | ((d2 == 0) & _collinear_on(p1, p2, q2))
             | ((d3 == 0) & _collinear_on(q1, q2, p1))
             | ((d4 == 0) & _collinear_on(q1, q2, p2)))
    return bool(np.any(proper | touch))


def _polylines(kind, rng, n):
    if kind == "random":
        return rng.uniform(-1.0, 1.0, size=(n, 2))
    if kind == "lattice":  # collinear runs, touching and repeated vertices
        return rng.integers(0, 4, size=(n, 2)).astype(float)
    # near-circular; neighbours may swap order, which folds the curve back
    t = (np.arange(n) + rng.uniform(-0.8, 0.8, size=n)) / n
    r = 1.0 + rng.uniform(-0.05, 0.05, size=n)
    return np.stack([r * np.cos(2 * np.pi * t), r * np.sin(2 * np.pi * t)], axis=-1)


@pytest.mark.parametrize("kind", ["random", "lattice", "near_circle"])
def test_pruned_self_intersection_matches_all_pairs(kind):
    rng = np.random.default_rng(["random", "lattice", "near_circle"].index(kind))
    answers = set()
    for _ in range(300):
        pts = _polylines(kind, rng, int(rng.integers(3, 61)))
        for closed in (True, False):
            expected = _all_pairs_self_intersects(pts, closed)
            assert polyline_self_intersects(pts, closed) == expected, (pts, closed)
            answers.add(expected)
    assert answers == {True, False}


def test_self_intersection_fixed_cases():
    eight = np.array([[-1.0, -1.0], [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])
    c256 = circle(1.0, 256).samples
    for pts, expected in ((c256, False), (eight, True)):
        assert polyline_self_intersects(pts) is expected
        assert _all_pairs_self_intersects(pts) is expected


def test_disjoint_segments_never_cross():
    # four points on one line, segments 0 and 2 far apart in x: rounding in
    # _orient2 makes the all-pairs test see a proper crossing, the pruned
    # test never looks at the pair
    x = np.array([130.1395767928599, 369.5079637628719,
                  456.78430920336456, 987.0944758123702])
    pts = np.stack([x, 0.1 * x + 1.0 / 3.0], axis=-1)
    assert _all_pairs_self_intersects(pts, closed=False)
    assert not polyline_self_intersects(pts, closed=False)


def test_consecutive_duplicate_samples_rejected():
    with pytest.raises(ValueError):
        ClosedCurve(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))


def test_curve_json_round_trip():
    c = circle(2.0, n=12)
    data = json.loads(json.dumps(curve_to_json(c)))
    back = curve_from_json(data)
    assert np.allclose(back.samples, c.samples)
    assert len(back) == 12
