import json
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from annulift import curves
from annulift.curves import (
    ClosedCurve,
    _collinear_on,
    _turning_count,
    circle,
    curve_from_json,
    curve_to_json,
    is_positively_oriented,
    point_in_polygon,
    polyline_self_intersects,
    rectangle,
    winding_number,
)
from annulift.errors import (
    DistanceViolation,
    NonFiniteDisplacement,
    NotSimple,
    RefinementBudgetExceeded,
    WindingResidualError,
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
    # on a sample, and within the one floor curves._MIN_NORM of one
    c = circle(1.0, n=64)
    with pytest.raises(DistanceViolation):
        winding_number(c, (1.0, 0.0))
    with pytest.raises(DistanceViolation, match=f"<= {curves._MIN_NORM:.3e} at t=0.000000"):
        winding_number(c, (1.0 - 0.5 * curves._MIN_NORM, 0.0))


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
    assert ray_parity((0.0, 0.0), rect.samples)  # the centre really is inside
    assert winding_number(rect, (0.0, 0.0)) == 1
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


def _orient2(a, b, c):
    """Twice the signed area of triangle (a, b, c) in float arithmetic."""
    return ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
            - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))


def _all_pairs_self_intersects(samples):
    """Reference: the same proper-or-touch predicate on every pair of
    non-adjacent segments of the closed polyline, no pruning, float
    orientation signs."""
    pts = np.asarray(samples, dtype=float)
    if len(pts) < 4:
        return False
    a, b = pts, np.roll(pts, -1, axis=0)
    m = len(a)
    i, j = np.triu_indices(m, k=2)
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
        expected = _all_pairs_self_intersects(pts)
        assert polyline_self_intersects(pts) == expected, pts
        answers.add(expected)
    assert answers == {True, False}


def test_self_intersection_fixed_cases():
    eight = np.array([[-1.0, -1.0], [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])
    c256 = circle(1.0, 256).samples
    for pts, expected in ((c256, False), (eight, True)):
        assert polyline_self_intersects(pts) is expected
        assert _all_pairs_self_intersects(pts) is expected


def test_disjoint_segments_never_cross():
    # four points on one line, closed through an apex far above it;
    # segments 0 and 2 lie far apart in x: rounding in _orient2 makes the
    # all-pairs test see a proper crossing, the pruned test never looks at
    # the pair
    x = np.array([130.1395767928599, 369.5079637628719,
                  456.78430920336456, 987.0944758123702])
    pts = np.vstack([np.stack([x, 0.1 * x + 1.0 / 3.0], axis=-1), [[558.0, 1000.0]]])
    assert _all_pairs_self_intersects(pts)
    assert not polyline_self_intersects(pts)


def test_consecutive_duplicate_samples_rejected():
    with pytest.raises(ValueError):
        ClosedCurve(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))


def test_curve_json_round_trip():
    c = circle(2.0, n=12)
    data = json.loads(json.dumps(curve_to_json(c)))
    back = curve_from_json(data)
    assert np.allclose(back.samples, c.samples)
    assert len(back) == 12


def test_near_collinear_polylines_match_exact_arithmetic():
    # vertices rounded onto y = 0.1x + 1/3: in float arithmetic about a fifth
    # of these report a crossing that does not exist or miss a touch
    def orient(a, b, c):
        det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return (det > 0) - (det < 0)

    def on(a, b, c):
        return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))

    def meet(p1, p2, q1, q2):
        d1, d2 = orient(p1, p2, q1), orient(p1, p2, q2)
        d3, d4 = orient(q1, q2, p1), orient(q1, q2, p2)
        return ((d1 * d2 < 0 and d3 * d4 < 0)
                or (d1 == 0 and on(p1, p2, q1)) or (d2 == 0 and on(p1, p2, q2))
                or (d3 == 0 and on(q1, q2, p1)) or (d4 == 0 and on(q1, q2, p2)))

    def exact_self_intersects(pts):
        # a closed 4-gon has two non-adjacent pairs: segments 0 and 2, 1 and 3
        a, b, c, d = [tuple(map(Fraction, p)) for p in pts.tolist()]
        return meet(a, b, c, d) or meet(b, c, d, a)

    x = np.random.default_rng(0).uniform(0.0, 1000.0, size=(20_000, 4))
    answers, wrong = set(), 0
    for row in x:
        pts = np.stack([row, 0.1 * row + 1.0 / 3.0], axis=-1)
        expected = exact_self_intersects(pts)
        wrong += polyline_self_intersects(pts) != expected
        answers.add(expected)
    assert wrong == 0
    assert answers == {True, False}


def test_exact_orientation_path_is_rare_on_smooth_curves(monkeypatch):
    # every non-adjacent segment pair of circle(1, 256), four orientations
    # each: the static filter vouches for all 129,536 float signs
    pts = circle(1.0, 256).samples
    a, b = pts, np.roll(pts, -1, axis=0)
    i, j = np.triu_indices(len(pts), k=2)
    keep = ~((i == 0) & (j == len(pts) - 1))
    i, j = i[keep], j[keep]
    monkeypatch.setattr(curves, "_exact_orient_sign", None)   # the exact path would raise
    for p, q, r in ((a[i], b[i], a[j]), (a[i], b[i], b[j]),
                    (a[j], b[j], a[i]), (a[j], b[j], b[i])):
        assert np.array_equal(curves._orient_signs(p, q, r), np.sign(_orient2(p, q, r)))


# -- the lean kernels against the code they replaced -----------------------------

def _reference_rectangle(x0, x1, y0, y1, per_side=16):
    """rectangle() as first written: four stacked sides."""
    k = max(1, int(per_side))
    u = np.arange(k, dtype=float) / k
    bottom = np.stack([x0 + (x1 - x0) * u, np.full(k, y0)], axis=-1)
    right = np.stack([np.full(k, x1), y0 + (y1 - y0) * u], axis=-1)
    top = np.stack([x1 - (x1 - x0) * u, np.full(k, y1)], axis=-1)
    left = np.stack([np.full(k, x0), y1 - (y1 - y0) * u], axis=-1)
    return np.vstack([bottom, right, top, left])


@pytest.mark.parametrize("per_side", [16, 64])
def test_rectangle_matches_reference_bitwise(per_side):
    rng = np.random.default_rng(per_side)
    lo = rng.uniform(-30.0, 30.0, size=(300, 2))
    size = 10.0 ** rng.uniform(-8.0, 1.0, size=(300, 2))
    boxes = [(x0, x0 + w, y0, y0 + h) for (x0, y0), (w, h) in zip(lo, size)]
    boxes += [(-0.0, 1.0, -0.0, 0.5), (-1.0, 0.0, -2.0, -0.0), (-2, 2, -1, 1)]
    for box in boxes:
        got = rectangle(*box, per_side=per_side)
        assert got.samples.tobytes() == _reference_rectangle(*box, per_side).tobytes(), box
        assert got.params.tobytes() == (np.arange(4 * per_side) / (4 * per_side)).tobytes()


def test_circle_and_point_at_match_reference_bitwise():
    for radius, n in ((1.0, 256), (0.37, 17), (-2.5, 64)):
        ang = 2.0 * np.pi * (np.arange(n, dtype=float) / n)
        expected = np.stack([radius * np.cos(ang), radius * np.sin(ang)], axis=-1)
        assert circle(radius, n).samples.tobytes() == expected.tobytes()
    rect = rectangle(0.1, 0.4, -0.3, 0.2, per_side=8)
    t = np.random.default_rng(3).uniform(-2.0, 2.0, 200)
    tt = rect.params[0] + np.mod(t - rect.params[0], 1.0)
    px = np.append(rect.params, rect.params[0] + 1.0)
    closed = np.vstack([rect.samples, rect.samples[:1]])
    expected = np.stack([np.interp(tt, px, closed[:, 0]), np.interp(tt, px, closed[:, 1])],
                        axis=-1)
    for _ in range(2):   # the closed polyline is cached after the first call
        assert rect.point_at(t).tobytes() == expected.tobytes()


def _reference_curve_error(samples, params=None):
    """The message ClosedCurve's checks gave as first written, with params
    also required to be finite, or None."""
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        return "samples must be an (n, 2) array"
    if len(pts) < 3:
        return "a closed curve needs at least 3 samples"
    if not np.all(np.isfinite(pts)):
        return "samples must be finite"
    gaps = np.hypot(*(np.roll(pts, -1, axis=0) - pts).T)
    if np.any(gaps == 0.0):
        i = int(np.flatnonzero(gaps == 0.0)[0])
        return f"consecutive samples {i} and {(i + 1) % len(pts)} coincide"
    if params is not None:
        t = np.asarray(params, dtype=float)
        if t.shape != (len(pts),):
            return "params must match samples in length"
        if not np.all(np.isfinite(t)):
            return "params must be finite"
        if np.any(np.diff(t) <= 0.0):
            return "params must be strictly ascending"
        if t[0] < 0.0 or t[-1] >= t[0] + 1.0:
            return "params must fit in one period [t0, t0+1)"
    return None


def test_closed_curve_rejects_what_the_reference_rejects():
    sq = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    tiny = 5e-324
    cases = [
        (np.zeros(6), None), (np.zeros((4, 3)), None), (sq[:2], None),
        (sq[:3] + [[np.nan, 0.0]], None), (sq[:3] + [[0.0, np.inf]], None),
        ([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]], None),
        (sq + [[0.0, 0.0]], None),                        # last meets first
        (sq[:2] + [[1.0, 0.0]] + sq[2:], None),           # one in the middle
        ([[0.0, 0.0], [tiny, 0.0], [1.0, 1.0]], None),    # distinct by one subnormal
        ([[-0.0, 0.0], [0.0, 0.0], [1.0, 1.0]], None),    # signed zeros coincide
        (sq, [0.0, 0.25, 0.5]), (sq, [0.0, 0.25, 0.25, 0.5]),
        (sq, [0.0, 0.5, 0.25, 0.75]), (sq, [-0.1, 0.2, 0.3, 0.4]),
        (sq, [0.0, 0.3, 0.6, 1.0]), (sq, [0.5, 0.9, 1.2, 1.4]),
        (sq, [0.0, 0.2, np.inf, np.inf]), (sq, [0.0, np.nan, 0.5, 0.7]),
        (sq, [0.0, 0.2, 0.4, 0.6]), (sq, None),
    ]
    for samples, params in cases:
        expected = _reference_curve_error(samples, params)
        if expected is None:
            ClosedCurve(np.asarray(samples, dtype=float), params=params)
            continue
        with pytest.raises(ValueError) as info:
            ClosedCurve(np.asarray(samples, dtype=float), params=params)
        assert str(info.value) == expected, (samples, params)


def _reference_turning_count(vectors, params, vec_fn, too_close_cls, too_close_msg, budget):
    """_turning_count as first written: two real arrays, np.insert refinement."""
    min_norm = curves._MIN_NORM
    t = np.asarray(params, dtype=float)
    v = np.asarray(vectors, dtype=float)
    inserted = 0
    while True:
        norms = np.hypot(v[:, 0], v[:, 1])
        if not norms.max() < np.inf:
            i = int(np.argmin(np.isfinite(norms)))
            raise NonFiniteDisplacement(
                f"non-finite vector ({v[i, 0]}, {v[i, 1]}) at t={t[i] % 1.0:.6f}")
        if norms.min() <= min_norm:
            i = int(norms.argmin())
            raise too_close_cls(
                f"{too_close_msg}: |v|={norms[i]:.3e} <= {min_norm:.3e} at t={t[i] % 1.0:.6f}")
        z = v[:, 0] + 1j * v[:, 1]
        steps = np.angle(np.roll(z, -1) / z)
        bad = np.flatnonzero(np.abs(steps) >= 0.5 * np.pi)
        if bad.size == 0:
            total = steps.sum() / (2.0 * np.pi)
            nearest = round(total)
            if abs(total - nearest) > curves._WINDING_RESIDUAL:
                raise WindingResidualError(
                    f"turning {total:.6f} not within {curves._WINDING_RESIDUAL} of an integer")
            return int(nearest)
        inserted += bad.size
        if inserted > budget:
            raise RefinementBudgetExceeded(f"needed more than {budget} refinement points")
        t_next = np.concatenate([t[1:], t[:1] + 1.0])
        t_mid = 0.5 * (t[bad] + t_next[bad])
        v_mid = np.asarray(vec_fn(t_mid), dtype=float).reshape(-1, 2)
        t = np.insert(t, bad + 1, t_mid)
        v = np.insert(v, bad + 1, v_mid, axis=0)


@pytest.mark.parametrize("k", [-1000, 0, 30, 900])
def test_a_vector_exactly_at_the_floor_fails_its_row(monkeypatch, k):
    # |(3, 4) 2^-k| is exactly 5 * 2^-k, the floor: a vector no longer than
    # the floor fails its row, and the rows before it keep their counts
    scale = 2.0 ** -k
    monkeypatch.setattr(curves, "_MIN_NORM", 5.0 * scale)
    ang = 2.0 * np.pi * np.arange(8) / 8
    loop = 10.0 * scale * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    touching = loop.copy()
    touching[3] = (3.0 * scale, 4.0 * scale)
    counts, error = curves._turning_counts(np.stack([loop, touching, loop]), np.arange(8) / 8,
                                           None, DistanceViolation, "too close")
    assert counts == [1]
    assert isinstance(error, DistanceViolation) and str(error).startswith("too close: |v|=")


def _seeded_loop(rng):
    """A loop t -> sum of a few harmonics, shifted off the origin by a random
    vector; winding numbers up to 7, some passing close to 0, some NaN."""
    k = rng.integers(1, 4)
    freq = rng.integers(-7, 8, size=k)
    amp = rng.uniform(0.2, 1.5, size=k)
    phase = rng.uniform(0.0, 2 * np.pi, size=k)
    shift = rng.uniform(-1.5, 1.5, size=2)
    nan_at = rng.uniform() if rng.uniform() < 0.1 else None

    def fn(t):
        t = np.asarray(t, dtype=float)
        ang = 2 * np.pi * freq * t[:, None] + phase
        out = np.stack([(amp * np.cos(ang)).sum(axis=1), (amp * np.sin(ang)).sum(axis=1)],
                       axis=-1) + shift
        if nan_at is not None:
            out[np.abs(t - nan_at) < 0.01] = np.nan
        return out

    n = int(rng.integers(3, 40))
    t = np.sort(rng.uniform(0.0, 1.0, n))
    return fn, t


def _outcome(kernel, fn, t):
    seen = []

    def counted(tm):
        seen.append(len(tm))
        return fn(tm)

    try:
        result = kernel(fn(t), t, counted, DistanceViolation, "too close")
    except Exception as exc:  # the outcome is compared, type and message
        result = (type(exc), str(exc))
    return result, sum(seen)


@pytest.mark.parametrize("budget", [curves._REFINEMENT_BUDGET, 12])
def test_turning_count_matches_reference(monkeypatch, budget):
    monkeypatch.setattr(curves, "_REFINEMENT_BUDGET", budget)
    rng = np.random.default_rng(budget)
    kinds = set()
    for _ in range(400):
        fn, t = _seeded_loop(rng)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(curves, "_MIN_NORM", float(rng.choice([1e-9, 0.05, 0.3])))
            got = _outcome(_turning_count, fn, t)
            ref = _outcome(lambda *a: _reference_turning_count(*a, budget), fn, t)
        assert got == ref
        kinds.add(got[0][0] if isinstance(got[0], tuple) else int)
        kinds.add("refined" if got[1] else "unrefined")
    # the seeded loops reach every branch: integers with and without
    # refinement, too close, non-finite, and (with budget 12) out of budget
    expected = {int, DistanceViolation, NonFiniteDisplacement, "refined", "unrefined"}
    if budget == 12:
        expected.add(RefinementBudgetExceeded)
    assert expected <= kinds


# -- orientation from one exact corner test ----------------------------------------

class _NoInteriorPoint(Exception):
    """The reference search below found no certified interior point."""


def _reference_interior_point(curve):
    """interior_point before the convex-corner construction: step inward
    along the bisector at the leftmost sample, validated by ray-casting
    parity and edge clearance."""
    pts = curve.samples
    n = len(pts)
    v_i = int(np.lexsort((pts[:, 1], pts[:, 0]))[0])
    v = pts[v_i]
    prev_pt, next_pt = pts[v_i - 1], pts[(v_i + 1) % n]
    u1 = prev_pt - v
    u2 = next_pt - v
    u1 = u1 / np.hypot(*u1)
    u2 = u2 / np.hypot(*u2)
    bis = u1 + u2
    if np.hypot(*bis) < 1e-12:
        bis = np.array([-u2[1], u2[0]])
        if bis[0] < 0:
            bis = -bis  # interior lies toward +x at the leftmost vertex
    bis = bis / np.hypot(*bis)
    base = min(np.hypot(*(prev_pt - v)), np.hypot(*(next_pt - v)))
    for k in range(60):
        delta = 0.5 * base / 2.0 ** k
        cand = v + delta * bis
        if curves.distance_to_polyline(cand, pts) < 0.1 * delta:
            continue
        if point_in_polygon(cand, pts):
            return cand
    raise _NoInteriorPoint(f"no certified interior point near sample {v_i}")


def _reference_is_positively_oriented(curve):
    """is_positively_oriented before the exact corner test: wind the curve
    once around a certified interior point."""
    if polyline_self_intersects(curve.samples):
        raise NotSimple("sampled segments cross")
    p0 = _reference_interior_point(curve)
    clearance = curves.distance_to_polyline(p0, curve.samples)
    w = winding_number(curve, p0)
    if abs(w) != 1:
        raise NotSimple(f"winding {w} about an interior point; curve is not simple")
    return w == 1


@st.composite
def star_polygons(draw):
    """Simple polygons star-shaped about a random center, most of them
    non-convex: increasing angles with a random radius at each vertex. The
    bounds keep corners blunt enough for the reference's interior point
    search, which fails on sharp corners."""
    n = draw(st.integers(min_value=3, max_value=16))
    jitter = np.array(draw(st.lists(st.floats(0.25, 0.75), min_size=n, max_size=n)))
    radii = np.array(draw(st.lists(st.floats(1.0, 2.5), min_size=n, max_size=n)))
    center = np.array(draw(st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))))
    angles = 2 * np.pi * (np.arange(n) + jitter) / n
    pts = center + radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    return ClosedCurve(pts)


@given(star_polygons())
def test_orientation_matches_reference_on_star_polygons(curve):
    for c in (curve, curve.reversed()):
        assert is_positively_oriented(c) is _reference_is_positively_oriented(c)
    assert is_positively_oriented(curve) is True


def test_spike_at_the_extreme_corner_is_not_simple():
    # the segments at the leftmost sample run along one ray and overlap;
    # with three samples no non-adjacent pair exists to catch it
    spike = ClosedCurve(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]]))
    assert not polyline_self_intersects(spike.samples)
    for c in (spike, spike.reversed()):
        with pytest.raises(NotSimple, match="overlap"):
            is_positively_oriented(c)
    # with four samples the overlap is a touch between non-adjacent segments
    with pytest.raises(NotSimple):
        is_positively_oriented(ClosedCurve(np.array(
            [[0.0, 0.0], [2.0, 0.0], [3.0, 1.0], [1.0, 0.0]])))


def test_thin_sliver_gets_an_orientation():
    # the corner at the leftmost sample is too sharp for the interior point
    # search, so the reference cannot answer
    sliver = ClosedCurve(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.01]]))
    with pytest.raises(_NoInteriorPoint):
        _reference_is_positively_oriented(sliver)
    assert is_positively_oriented(sliver) is True
    assert is_positively_oriented(sliver.reversed()) is False


def test_circle_template_is_read_only():
    unit, gap = curves._circle_template(64)
    assert 0.0 < gap < np.abs(unit[1] - unit[0]).max()
    assert not unit.flags.writeable
    with pytest.raises(ValueError):
        unit[0] = 0.5
    t = np.arange(64) / 64
    c = circle(2.0, 64)
    assert c.samples.flags.writeable and not np.shares_memory(c.samples, unit)
    assert circle(2.0, 64).samples.tobytes() == c.samples.tobytes()
    # a negative radius keeps its signed zeros: the samples are the products
    # radius * (cos, sin), bit for bit
    for radius in (-1.5, 1e-200, 3.0):
        ang = 2.0 * np.pi * t
        expected = np.stack([radius * np.cos(ang), radius * np.sin(ang)], axis=-1)
        assert circle(radius, 64).samples.tobytes() == expected.tobytes()
    assert np.signbit(circle(-1.5, 64).samples[0, 1])


def test_circle_params_are_derived():
    for n in (3, 16, 17, 256, 1000):
        c = circle(1.5, n)
        assert c.params.tobytes() == (np.arange(n) / n).tobytes()
    # the sample checks stay: no radius makes a circle of coinciding or
    # non-finite samples
    with pytest.raises(ValueError, match="^consecutive samples 0 and 1 coincide$"):
        circle(0.0, 16)
    with pytest.raises(ValueError, match="^samples must be finite$"):
        circle(float("nan"), 16)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError,
                                                      match="^samples must be finite$"):
        circle(float("inf"), 16)


def test_only_a_proved_circle_records_its_radius():
    # the radius tells lefschetz_index and index_jump_experiment that the
    # curve is the counterclockwise circle of that radius about 0
    c = circle(2.5, 64)
    assert c.radius == 2.5 and circle(-2.5, 64).radius == 2.5
    for other in (c.refined([0.01]), c.reversed(), ClosedCurve(c.samples, curve_fn=c.curve_fn),
                  curve_from_json(curve_to_json(c)), rectangle(-1.0, 1.0, -1.0, 1.0)):
        assert other.radius is None
    with pytest.raises(TypeError):
        ClosedCurve(c.samples, radius=2.5)
    # samples the scalar bound cannot prove distinct are scanned: the scan
    # passes this subnormal circle, and it records no radius
    with np.errstate(under="ignore"):
        assert circle(5e-324, 3).radius is None


def test_circle_radius_must_be_a_real_number():
    # an array radius once scaled the template axis by axis into an ellipse,
    # and a complex one lost its imaginary part with a ComplexWarning
    with pytest.raises(TypeError):
        circle(np.array([1.0, 2.0]), 8)
    with pytest.raises(TypeError):
        circle(1.0 + 2.0j, 8)
    c, ref = circle(np.array(0.5), 16), circle(0.5, 16)
    t = np.linspace(0.0, 1.0, 11)
    assert c.samples.tobytes() == ref.samples.tobytes()
    assert c.point_at(t).tobytes() == ref.point_at(t).tobytes()


@pytest.mark.filterwarnings("error")
def test_circle_refuses_a_numpy_complex_radius():
    # float() of a NumPy complex scalar or 0-d array warns ComplexWarning and
    # keeps the real part, which made circle(np.complex128(1+2j), 8) the
    # unit circle
    for radius in (np.complex128(1 + 2j), np.complex64(0.5), np.array(1 + 2j),
                   np.complex128(1.0)):
        with pytest.raises(TypeError, match="circle radius must be a real number"):
            circle(radius, 8)
    # NumPy real scalars and 0-d arrays are still radii
    for radius in (np.float32(0.5), np.float64(0.5), np.int64(2), np.array(2.0)):
        assert circle(radius, 8).samples.tobytes() == circle(float(radius), 8).samples.tobytes()


def test_rectangle_refuses_a_bad_per_side():
    # per_side=2.5 once gave 8 samples, and 0 or -3 gave 4
    for bad in (2.5, 2.0, "4", None):
        with pytest.raises(TypeError):
            rectangle(0.0, 1.0, 0.0, 1.0, per_side=bad)
    for bad in (0, -3):
        with pytest.raises(ValueError, match=f"^rectangle needs per_side >= 1, got {bad}$"):
            rectangle(0.0, 1.0, 0.0, 1.0, per_side=bad)
    # integers of any kind are sample counts
    for k in (1, np.int64(3), True):
        assert len(rectangle(0.0, 1.0, 0.0, 1.0, per_side=k)) == 4 * int(k)


def test_template_curves_skip_the_scan(monkeypatch):
    scanned = []
    scan = ClosedCurve.__post_init__
    monkeypatch.setattr(ClosedCurve, "__post_init__",
                        lambda self: (scanned.append(len(self.samples)), scan(self))[1])
    circle(0.7, 256)
    circle(-1.5, 3)
    rectangle(-1, 1, -1, 1, per_side=64)
    rectangle(0.1, 0.4, -0.3, 0.2)
    assert scanned == []
    # the scalar bound fails but the scan passes: the largest float radius
    # overflows the bound's magnitude term, while its samples stay finite
    # and distinct; the rectangle's steps at 1e15 are exactly one spacing
    circle(sys.float_info.max, 256)
    rectangle(1e15, 1e15 + 1.0, 0.0, 1.0, per_side=8)
    assert scanned == [256, 32]
    # refinement and reversal keep their scans
    circle(0.7, 16).refined([0.01])
    circle(0.7, 16).reversed()
    assert scanned == [256, 32, 17, 16]


_SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


@st.composite
def _template_circles(draw):
    """(radius, n). Radii run from subnormal to the largest float, with
    signed zeros, NaN and infinity: a subnormal radius rounds consecutive
    samples together, and one near the largest float overflows the scalar
    bound's magnitude term."""
    n = draw(st.sampled_from([0, 1, 2, 3, 4, 17, 256]))
    radius = draw(st.one_of(_SIGNED_ZEROS, st.sampled_from([5e-324, np.inf, np.nan]),
                            st.floats(5e-324, 1e-300), st.floats(5e-324, 1e300),
                            st.floats(1e300, sys.float_info.max)))
    return draw(st.sampled_from([1.0, -1.0])) * radius, n


def _circle_formula(radius, t):
    ang = 2.0 * np.pi * np.asarray(t, dtype=float)
    return np.stack([radius * np.cos(ang), radius * np.sin(ang)], axis=-1)


def _scanned_or_error(build, reference):
    """build() against reference(), the ClosedCurve scanned from the same
    samples: both give a curve, byte for byte the same, or both raise the
    same ValueError text. Returns the two curves, or None on the error."""
    try:
        ref = reference()
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            build()
        return None
    got = build()
    assert got.samples.tobytes() == ref.samples.tobytes()
    assert got.params.tobytes() == ref.params.tobytes()
    return got, ref


@settings(max_examples=100)
@given(_template_circles())
@example((sys.float_info.max, 256))
@example((5e-324, 256))
def test_template_circle_is_the_scanned_circle(case):
    """Whether or not the scalar bound skips the scan, circle() returns the
    curve the scan accepts, or raises the scan's error."""
    radius, n = case
    t = np.arange(n, dtype=float) / n
    with np.errstate(all="ignore"):   # subnormal products, 0 * inf
        built = _scanned_or_error(lambda: circle(radius, n),
                                  lambda: ClosedCurve(_circle_formula(radius, t)))
        if built is not None:
            tt = np.linspace(-1.0, 2.0, 37)
            want = _circle_formula(radius, np.mod(tt, 1.0))
            assert built[0].point_at(tt).tobytes() == want.tobytes()


@st.composite
def _template_rectangles(draw):
    """(x0, x1, y0, y1, k): each side is a few times k float spacings of its
    corners long, so that side / k is near the spacing; corners run from
    subnormal to the largest floats, just below powers of two included."""
    k = draw(st.sampled_from([1, 2, 5, 16, 64]))

    def axis():
        lo = draw(st.one_of(_SIGNED_ZEROS, st.floats(-1.7e308, 1.7e308),
                            st.integers(-1074, 1023).map(lambda e: -math.nextafter(2.0 ** e, 0.0))))
        steps = draw(st.floats(0.25, 6.0))
        return lo, lo + steps * k * math.ulp(lo)

    (x0, x1), (y0, y1) = axis(), axis()
    return x0, x1, y0, y1, k


@settings(max_examples=100)
@given(_template_rectangles())
@example((1e15, 1e15 + 1.0, 0.0, 1.0, 8))
@example((-1.0, 1.0, -4.0, -4.0 + 2.0 ** -50, 64))
def test_template_rectangle_is_the_scanned_rectangle(case):
    x0, x1, y0, y1, k = case
    with np.errstate(all="ignore"):   # subnormal products
        built = _scanned_or_error(
            lambda: rectangle(x0, x1, y0, y1, per_side=k),
            lambda: ClosedCurve(_reference_rectangle(*curves.check_rectangle(x0, x1, y0, y1), k)))
        if built is not None:
            tt = np.linspace(-1.0, 2.0, 37)
            assert built[0].point_at(tt).tobytes() == built[1].point_at(tt).tobytes()


# -- exact containment -------------------------------------------------------------

def _fraction_point_in_polygon(point, samples):
    """Even-odd parity of a horizontal ray toward +x in Fraction arithmetic:
    an edge straddling the ray's height is crossed when its exact x there
    lies right of the point. The straddle test is exact in floats already."""
    x, y = map(Fraction, point)
    inside = False
    for (x0, y0), (x1, y1) in zip(samples.tolist(), np.roll(samples, -1, axis=0).tolist()):
        if (y0 <= y) != (y1 <= y):
            x0, y0, x1, y1 = map(Fraction, (x0, y0, x1, y1))
            inside ^= x0 + (y - y0) * (x1 - x0) / (y1 - y0) > x
    return inside


@st.composite
def _polygon_and_point(draw):
    """A closed polyline on a small lattice (or with float vertices) and a
    point that is often a vertex, on an edge or at a vertex's height."""
    lattice = draw(st.booleans())
    coord = st.integers(-4, 4).map(float) if lattice else st.floats(-4.0, 4.0)
    pts = np.array(draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=12)))
    i = draw(st.integers(0, len(pts) - 1))
    a, b = pts[i], pts[(i + 1) % len(pts)]
    w = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    with np.errstate(under="ignore"):   # w * a subnormal edge: any point is a fair case
        on_edge = tuple(a + w * (b - a))
    point = draw(st.one_of(
        st.just(on_edge),                                          # on an edge or a vertex
        st.tuples(coord, st.sampled_from(pts[:, 1].tolist())),     # at a vertex's height
        st.tuples(coord, coord)))
    return pts, point


@given(_polygon_and_point())
def test_point_in_polygon_matches_fraction_reference(case):
    pts, point = case
    assert point_in_polygon(point, pts) == _fraction_point_in_polygon(point, pts)
