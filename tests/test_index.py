from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from annulift.annulus_maps import projected_plane_map, zoo
from annulift.curves import ClosedCurve, circle, rectangle
from annulift.lemma_suite import _saddle
from annulift.errors import (
    BoundaryConditionViolation,
    ConfigurationViolation,
    FixedPointOnCurve,
    HomotopyConstructionFailure,
    NonFiniteDisplacement,
    NotAQuadrilateral,
)
from annulift.index import (
    _polyline_crossings,
    arc_push_family,
    homotopy_index_profile,
    index_jump_experiment,
    lefschetz_index,
    quad_configuration_index,
    saddle_rectangle_index,
)


def const_map(p):
    p = np.asarray(p, dtype=float)

    def fn(pts):
        return np.broadcast_to(p, np.shape(pts)).copy()

    return fn


def saddle(pts):
    pts = np.asarray(pts, dtype=float)
    return np.stack([2.0 * pts[..., 0], 0.5 * pts[..., 1]], axis=-1)


def crossed(pts):
    pts = np.asarray(pts, dtype=float)
    return np.stack([-2.0 * pts[..., 0], 0.5 * pts[..., 1]], axis=-1)


def brute_displacement_winding(F, fn, n=20_000):
    """Oracle: dense angle sum of the displacement along a parametrized curve."""
    t = np.arange(n + 1) / n
    pts = fn(t)
    disp = np.asarray(F(pts), dtype=float) - pts
    ang = np.arctan2(disp[:, 1], disp[:, 0])
    steps = np.mod(np.diff(ang) + np.pi, 2 * np.pi) - np.pi
    return int(round(steps.sum() / (2 * np.pi)))


# -- circle indices of the power maps -----------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 5])
def test_power_map_circle_dichotomy(d):
    f = projected_plane_map(zoo("power", d=d))
    assert lefschetz_index(f, circle(0.5, 256)) == 1
    assert lefschetz_index(f, circle(2.0, 256)) == d


def test_negative_degree_inverts_the_circle_dichotomy():
    # image radius is r^d: for d < 0 large circles map inside (index 1)
    # and small circles map outside (index d)
    f = projected_plane_map(zoo("power", d=-2))
    assert lefschetz_index(f, circle(2.0, 256)) == 1
    assert lefschetz_index(f, circle(0.5, 256)) == -2


def test_constant_map_inside_and_outside():
    g = circle(1.0, 64)
    assert lefschetz_index(const_map([0.2, -0.1]), g) == 1
    assert lefschetz_index(const_map([3.0, 1.0]), g) == 0


def test_fixed_point_on_curve_detected():
    g = circle(1.0, 64)
    with pytest.raises(FixedPointOnCurve):
        lefschetz_index(const_map(g.samples[3]), g)


def _cube_with_hole(pts):
    """z -> z**3, NaN for arguments in (0.7, 0.9): finite at the four
    samples of circle(2, 4), NaN at its first refinement point (pi/4)."""
    pts = np.asarray(pts, dtype=float)
    z = (pts[..., 0] + 1j * pts[..., 1]) ** 3
    out = np.stack([z.real, z.imag], axis=-1)
    ang = np.arctan2(pts[..., 1], pts[..., 0])
    out[(ang > 0.7) & (ang < 0.9)] = np.nan
    return out


def test_non_finite_displacement_is_typed():
    with pytest.raises(NonFiniteDisplacement):
        lefschetz_index(_cube_with_hole, circle(2.0, 4))
    with pytest.raises(NonFiniteDisplacement):
        lefschetz_index(lambda p: np.full(np.shape(p), np.inf), circle(2.0, 8))


def test_index_invariant_under_refinement_and_start_rotation():
    f = projected_plane_map(zoo("power", d=3))
    g = circle(1.5, 64)
    assert lefschetz_index(f, g.refined(np.linspace(0.01, 0.97, 31))) == 3
    k = 17
    rolled = ClosedCurve(np.roll(g.samples, -k, axis=0))
    assert lefschetz_index(f, rolled) == 3


# -- saddle rectangles ---------------------------------------------------------------

def test_saddle_rectangle_matches_brute_force_oracle():
    def boundary(t):
        return rectangle(-1, 1, -1, 1, per_side=64).point_at(t)

    assert brute_displacement_winding(saddle, boundary) == -1
    assert saddle_rectangle_index(saddle, (-1, 1, -1, 1)) == -1


def test_crossed_rectangle_gives_plus_one():
    assert saddle_rectangle_index(crossed, (-1, 1, -1, 1)) == 1


def test_expanding_map_violates_top_condition():
    with pytest.raises(BoundaryConditionViolation) as err:
        saddle_rectangle_index(lambda p: 2.0 * np.asarray(p, float), (-1, 1, -1, 1))
    assert err.value.side == "top"


def test_side_conditions_are_checked_on_the_index_samples():
    # a tent of height 1 and half-width 2e-4 at (1 - 1/32, 1), a top sample
    # of rectangle(-1, 1, -1, 1, per_side=64), lifts the saddle's image above
    # the top line there; it is 5e-4 from the nearest point of an evenly
    # spaced 64-point side, so only the index samples see it
    tip, width = np.array([1.0 - 1.0 / 32.0, 1.0]), 2e-4

    def tented(pts):
        img = saddle(pts)
        w = np.clip(1.0 - np.abs(np.asarray(pts, float) - tip) / width, 0.0, None)
        img[..., 1] += w[..., 0] * w[..., 1]
        return img

    assert rectangle(-1, 1, -1, 1, per_side=64).samples.tolist().count(tip.tolist()) == 1
    with pytest.raises(BoundaryConditionViolation) as err:
        saddle_rectangle_index(tented, (-1, 1, -1, 1))
    assert err.value.side == "top"
    assert err.value.point == tuple(tip)


def test_saddle_on_shifted_rectangle():
    # conditions are relative to the box, not the origin
    def f(pts):
        pts = np.asarray(pts, dtype=float)
        return np.stack([10.0 + 2.0 * (pts[..., 0] - 10.0),
                         5.0 + 0.5 * (pts[..., 1] - 5.0)], axis=-1)

    assert saddle_rectangle_index(f, (9.0, 11.0, 4.0, 6.0)) == -1


# -- quadrilateral frames --------------------------------------------------------------

def frame():
    alpha = np.array([[-3.0, 1.0], [3.0, 1.0]])
    beta = np.array([[-3.0, -1.0], [3.0, -1.0]])
    gamma = np.array([[-1.0, -3.0], [-1.0, 3.0]])
    delta = np.array([[1.0, -3.0], [1.0, 3.0]])
    return alpha, beta, gamma, delta


def test_quad_straight_layout():
    assert quad_configuration_index(saddle, *frame(), expect=-1) == -1


def test_quad_swapped_layout():
    assert quad_configuration_index(crossed, *frame(), expect=1) == 1


def test_quad_polyline_frame():
    # same layout with curved (polyline) frame lines
    xs = np.linspace(-3, 3, 25)
    alpha = np.stack([xs, 1.0 + 0.05 * np.sin(xs)], axis=-1)
    beta = np.stack([xs, -1.0 + 0.05 * np.cos(xs)], axis=-1)
    ys = np.linspace(-3, 3, 25)
    gamma = np.stack([-1.0 + 0.05 * np.sin(ys), ys], axis=-1)
    delta = np.stack([1.0 + 0.05 * np.cos(ys), ys], axis=-1)
    assert quad_configuration_index(saddle, alpha, beta, gamma, delta, expect=-1) == -1


def test_quad_missing_crossing():
    alpha, beta, _, delta = frame()
    gamma_short = np.array([[-1.0, 2.0], [-1.0, 3.0]])
    with pytest.raises(NotAQuadrilateral):
        quad_configuration_index(saddle, alpha, beta, gamma_short, delta, expect=-1)


def test_quad_wrong_layout_rejected():
    with pytest.raises(ConfigurationViolation):
        quad_configuration_index(saddle, *frame(), expect=1)


# -- index jumps ------------------------------------------------------------------------

def test_jump_outward():
    g = circle(1.0, 256)
    assert index_jump_experiment(g, (0.0, 0.125), "out", inner_point=(0, 0)) == (1, 0)


def test_jump_inward():
    g = circle(1.0, 256)
    assert index_jump_experiment(g, (0.0, 0.125), "in", inner_point=(0, 0)) == (0, 1)


@pytest.mark.parametrize("width", [0.125, 0.25])
def test_jump_is_arc_width_independent(width):
    g = circle(1.0, 256)
    assert index_jump_experiment(g, (0.3, 0.3 + width), "out", inner_point=(0, 0)) == (1, 0)


def test_jump_needs_an_interior_base_point():
    with pytest.raises(HomotopyConstructionFailure, match="base point is not interior"):
        index_jump_experiment(circle(1.0, 256), (0.0, 0.125), "out", inner_point=(2.0, 0.0))


def test_jump_family_midpoint_crosses_curve():
    g = circle(1.0, 128)
    family, p_in, p_out = arc_push_family(g, (0.0, 0.125), inner_point=(0, 0))
    from annulift.curves import point_in_polygon
    assert point_in_polygon(p_in, g.samples)
    assert not point_in_polygon(p_out, g.samples)
    # at the crossing time the pushed arc sits on the curve
    mid_image = family(0.5)(np.array([0.0625]))
    assert abs(np.hypot(*mid_image[0]) - 1.0) < 1e-6


# -- homotopy invariance -----------------------------------------------------------------

def test_homotopy_invariance_over_twenty_steps():
    boundary = ClosedCurve(np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]))

    def family(t):
        def f(pts):
            img = saddle(pts)
            return np.stack([img[..., 0], (1.0 - t) * img[..., 1]], axis=-1)
        return f

    profile = homotopy_index_profile(family, boundary, np.linspace(0, 1, 20))
    assert profile == [-1] * 20


def test_free_homotopy_radius_independence():
    f = projected_plane_map(zoo("power", d=2))
    assert [lefschetz_index(f, circle(r, 256)) for r in (0.3, 0.5, 0.7)] == [1, 1, 1]
    assert [lefschetz_index(f, circle(r, 256)) for r in (1.5, 2.0, 3.0)] == [2, 2, 2]


def test_local_perturbation_stability():
    # perturb the map and the curve inside small disks around a finite set of
    # curve points, images confined near the original images: index unchanged
    rng = np.random.default_rng(11)
    f = projected_plane_map(zoo("power", d=2))
    base = circle(2.0, 256)
    base_idx = lefschetz_index(f, base)
    delta = 0.04
    for _ in range(25):
        anchors_t = rng.uniform(0.0, 1.0, 3)
        anchors = base.point_at(anchors_t)

        samples = base.samples.copy()
        for a in anchors:
            near = np.hypot(*(samples - a).T) < delta
            samples[near] += rng.uniform(-0.3 * delta, 0.3 * delta, (near.sum(), 2))
        moved = ClosedCurve(samples)

        shifts = rng.uniform(-0.02, 0.02, (3, 2))

        def perturbed(pts, anchors=anchors, shifts=shifts):
            out = f(pts)
            pts = np.asarray(pts, dtype=float)
            for a, s in zip(anchors, shifts):
                w = np.clip(1.0 - np.hypot(*(pts - a).T) / delta, 0.0, 1.0)
                out = out + w[..., None] * s
            return out

        assert lefschetz_index(perturbed, moved) == base_idx


# -- one-array kernels against their np.stack references -------------------------------

def _reference_scaled(pts, sx, sy):
    pts = np.asarray(pts, dtype=float)
    return np.stack([sx * pts[..., 0], sy * pts[..., 1]], axis=-1)


def _reference_squashed_saddle(t):
    def f(pts):
        img = _reference_scaled(pts, 2.0, 0.5)
        return np.stack([img[..., 0], (1.0 - t) * img[..., 1]], axis=-1)
    return f


def _same_bits(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.array_equal(got.view(np.int64), want.view(np.int64)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lemma_suite_maps_match_stacked_reference_bitwise():
    from annulift.lemma_suite import _crossed, _saddle, _squashed_saddle
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -1e300]
    rng = np.random.default_rng(11)
    rand = rng.uniform(-3.0, 3.0, size=(60, 2))
    sets = [rand, np.array([(a, b) for a in special for b in special]), rand[0],
            rand[:24].reshape(4, 6, 2), rand[:6].reshape(3, 2, 2)[:, ::-1]]
    maps = [(_saddle, lambda p: _reference_scaled(p, 2.0, 0.5)),
            (_crossed, lambda p: _reference_scaled(p, -2.0, 0.5))]
    maps += [(_squashed_saddle(t), _reference_squashed_saddle(t))
             for t in np.linspace(0.0, 1.0, 20)]
    for f, ref in maps:
        for pts in sets:
            assert _same_bits(f(pts), ref(pts))


# -- exact frame crossings ---------------------------------------------------------------

def _fraction_orient(a, b, c):
    det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (det > 0) - (det < 0)


def _fraction_on(a, b, c):
    return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))


def _reference_crossings(lines):
    """_polyline_crossings in Fraction arithmetic, one segment pair at a time,
    in the order of the first segment, then the second: (k, l, point, pos_k,
    pos_l) for each meeting of lines k < l, a meeting at
    a segment's end owned by the next segment of its line; raises
    NotAQuadrilateral when collinear segments meet."""
    lines = [[tuple(map(Fraction, p)) for p in line.tolist()] for line in lines]
    hits = []
    for k in range(len(lines)):
        n = len(lines[k]) - 1
        for i in range(n):
            for l in range(k + 1, len(lines)):
                m = len(lines[l]) - 1
                for j in range(m):
                    p1, p2 = lines[k][i], lines[k][i + 1]
                    q1, q2 = lines[l][j], lines[l][j + 1]
                    s = [_fraction_orient(p1, p2, q1), _fraction_orient(p1, p2, q2),
                         _fraction_orient(q1, q2, p1), _fraction_orient(q1, q2, p2)]
                    on = [s[0] == 0 and _fraction_on(p1, p2, q1),
                          s[1] == 0 and _fraction_on(p1, p2, q2),
                          s[2] == 0 and _fraction_on(q1, q2, p1),
                          s[3] == 0 and _fraction_on(q1, q2, p2)]
                    if not (any(on) or (s[0] * s[1] < 0 and s[2] * s[3] < 0)):
                        continue
                    if s == [0, 0, 0, 0]:
                        raise NotAQuadrilateral("overlap")
                    if (s[3] == 0 and i < n - 1) or (s[1] == 0 and j < m - 1):
                        continue
                    r = (p2[0] - p1[0], p2[1] - p1[1])
                    sv = (q2[0] - q1[0], q2[1] - q1[1])
                    qp = (q1[0] - p1[0], q1[1] - p1[1])
                    den = r[0] * sv[1] - r[1] * sv[0]
                    t = (qp[0] * sv[1] - qp[1] * sv[0]) / den
                    u = (qp[0] * r[1] - qp[1] * r[0]) / den
                    hits.append((k, l, (p1[0] + t * r[0], p1[1] + t * r[1]), i + t, j + u))
    return hits


@st.composite
def _frame_line_sets(draw):
    """Two or three open polylines on a small integer lattice, so that
    vertices on lines, touches and collinear overlaps are common, or
    with float vertices."""
    lattice = draw(st.booleans())
    coord = st.integers(-3, 3).map(float) if lattice else st.floats(-3.0, 3.0)
    lines = []
    for _ in range(draw(st.integers(2, 3))):
        n = draw(st.integers(2, 5))
        pts = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
        lines.append(np.array(pts, dtype=float))
    return lines


@given(_frame_line_sets())
def test_polyline_crossings_match_fraction_reference(lines):
    try:
        expected = _reference_crossings(lines)
    except NotAQuadrilateral:
        with pytest.raises(NotAQuadrilateral, match="overlap"):
            _polyline_crossings(*lines)
        return
    k, l, points, pos_k, pos_l = _polyline_crossings(*lines)
    assert list(zip(k.tolist(), l.tolist())) == [(a, b) for a, b, _, _, _ in expected]
    for n, (_, _, point, pk, pl) in enumerate(expected):
        assert abs(pos_k[n] - float(pk)) <= 1e-9 and abs(pos_l[n] - float(pl)) <= 1e-9
        if pk.denominator == 1 or pl.denominator == 1:   # a touch: the vertex exactly
            assert tuple(points[n]) == tuple(map(float, point))
        else:
            assert np.hypot(*(points[n] - np.array(point, dtype=float))) <= 1e-9


def test_crossings_at_shared_vertices_count_once():
    # gamma runs through alpha's middle vertex; alpha's vertex is also an
    # end of gamma's first segment
    alpha = np.array([[-2.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
    gamma = np.array([[0.0, -1.0], [0.0, 0.0], [0.0, 1.0]])
    k, l, points, pos_k, pos_l = _polyline_crossings(alpha, gamma)
    assert (k.tolist(), l.tolist()) == ([0], [1])
    assert points.tolist() == [[0.0, 0.0]] and pos_k.tolist() == [1.0] and pos_l.tolist() == [1.0]
    # a line ending on another counts once; the last segment owns its end
    k, _, points, pos_k, pos_l = _polyline_crossings(alpha, np.array([[1.0, -1.0], [1.0, 0.0]]))
    assert points.tolist() == [[1.0, 0.0]] and pos_k.tolist() == [1.5] and pos_l.tolist() == [1.0]


@pytest.mark.filterwarnings("error")
def test_crossing_with_an_underflowing_cross_product():
    # r x s = -2e-640 rounds to 0: the fractions come from exact arithmetic
    k, l, points, pos_k, pos_l = _polyline_crossings(
        np.array([[0.0, 0.0], [1e-320, 1e-320]]), np.array([[0.0, 1e-320], [1e-320, 0.0]]))
    assert (k.tolist(), l.tolist()) == ([0], [1])
    assert pos_k.tolist() == pos_l.tolist() == [0.5] and np.isfinite(points).all()


@pytest.mark.parametrize("beta", [
    [[-2.0, 1.0], [2.0, 1.0]],                           # inside alpha
    [[-3.0, -1.0], [0.0, -1.0], [0.0, 1.0], [3.0, 1.0]],  # runs along alpha's right half
    [[3.0, 1.0], [5.0, 1.0]],                            # only touches alpha's end
])
def test_collinear_alpha_and_beta_are_not_a_quadrilateral(beta):
    alpha, _, gamma, delta = frame()
    with pytest.raises(NotAQuadrilateral, match="overlap"):
        quad_configuration_index(saddle, alpha, np.array(beta), gamma, delta, expect=-1)


def test_frames_with_a_vertex_on_gamma():
    # alpha bends at a vertex that lies on gamma up to a relative 1e-3: the
    # float crossing parameters of both of alpha's segments can round to
    # just outside [0, 1], which used to report no crossing at all
    beta = np.array([[-3.0, -1.0], [3.0, -1.0]])
    delta = np.array([[1.0, -3.0], [1.0, 3.0]])
    rng = np.random.default_rng(5)
    for _ in range(3000):
        q1 = np.array([-1.0 + rng.uniform(-0.3, 0.3), -3.0])
        q2 = np.array([-1.0 + rng.uniform(-0.3, 0.3), 3.0])
        lam = (1.0 - q1[1]) / (q2[1] - q1[1]) * (1.0 + rng.uniform(-1e-3, 1e-3))
        v = q1 + (q2 - q1) * lam
        alpha = np.array([(-3.0, 1.0), v, (3.0, 1.0)])
        gamma = np.array([q1, q2])
        assert quad_configuration_index(_saddle, alpha, beta, gamma, delta, expect=-1) == -1
