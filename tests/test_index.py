from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annulift import curves, fixed_points, index, lemma_suite
from annulift.annulus_maps import projected_plane_map, zoo
from annulift.curves import ClosedCurve, circle, rectangle
from annulift.lemma_suite import _saddle, _squashed_saddle
from annulift.errors import (
    BoundaryConditionViolation,
    ConfigurationViolation,
    DistanceViolation,
    FixedPointOnCurve,
    HomotopyConstructionFailure,
    NonFiniteDisplacement,
    NotAQuadrilateral,
)
from annulift.index import (
    _arc_push,
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


def _double(pts):
    return 2.0 * np.asarray(pts, dtype=float)


@pytest.mark.parametrize("count, want, too_close", [
    (lambda: lefschetz_index(_double, rectangle(-1, 1, -1, 1)), 1, FixedPointOnCurve),
    (lambda: curves.winding_number(rectangle(-1, 1, -1, 1), (0.0, 0.0)), 1,
     DistanceViolation),
    (lambda: fixed_points._boundary_degree(_double, (-1.0, 1.0, -1.0, 1.0)), 1,
     FixedPointOnCurve),
    (lambda: homotopy_index_profile(lambda t: _double, rectangle(-1, 1, -1, 1), [0.0, 1.0]),
     [1, 1], FixedPointOnCurve),
], ids=["lefschetz_index", "winding_number", "boundary_degree", "homotopy_index_profile"])
def test_every_count_has_the_one_floor(monkeypatch, count, want, too_close):
    # each loop is p on the square's boundary, exactly: its shortest vector
    # is a side's midpoint sample, of length exactly 1, and no step refines
    monkeypatch.setattr(curves, "_MIN_NORM", np.nextafter(1.0, 0.0))
    assert count() == want
    monkeypatch.setattr(curves, "_MIN_NORM", np.nextafter(1.0, 2.0))
    with pytest.raises(too_close, match=r"\|v\|=1\.000e\+00 <= 1\.000e\+00"):
        count()


def test_a_loop_within_1e_8_of_zero_counts(monkeypatch):
    # 2p - q displaces p by p - q: on the unit circle that bottoms out near
    # 1e-8 at p = (1, 0) for q = (1 - 1e-8, 0), above the floor 1e-10 and
    # below the 1e-6 that indices once took, and reaches 0 there for q = (1, 0)
    g = circle(1.0, 64)
    near, on = np.array([1.0 - 1e-8, 0.0]), np.array([1.0, 0.0])
    assert lefschetz_index(lambda p: 2.0 * p - near, g) == curves.winding_number(g, near) == 1
    with pytest.raises(FixedPointOnCurve):
        lefschetz_index(lambda p: 2.0 * p - on, g)
    with pytest.raises(DistanceViolation):
        curves.winding_number(g, on)
    monkeypatch.setattr(curves, "_MIN_NORM", 1e-6)
    with pytest.raises(FixedPointOnCurve, match="<= 1.000e-06 at t=0.000000"):
        lefschetz_index(lambda p: 2.0 * p - near, g)


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


def _reference_arc_push_map(gamma, arc, inner_point, s):
    """The time-s map of arc_push_family as first written: a scalar target
    and a bump closure, one time at a time."""
    _, p_in, p_out = arc_push_family(gamma, arc, inner_point=inner_point)
    t0, t1 = arc
    width = (t1 - t0) % 1.0
    mid = (t0 + 0.5 * width) % 1.0
    pm = gamma.point_at(mid)
    p_s = p_in + 2.0 * s * (pm - p_in) if s <= 0.5 else pm + (2.0 * s - 1.0) * (p_out - pm)

    def map_at(u):
        du = np.abs(np.mod(np.asarray(u, dtype=float) - mid + 0.5, 1.0) - 0.5)
        lam = np.clip(2.0 - 2.0 * du / width, 0.0, 1.0)[..., None]
        return (1.0 - lam) * p_in + lam * p_s

    return map_at


def _recording_kernel(monkeypatch, module):
    """Replace module._turning_counts by a wrapper that records each call's
    loops and vec_fn, and returns the list it records into."""
    seen = []
    inner = module._turning_counts

    def record(vectors, params, vec_fn, *rest):
        seen.append((np.array(vectors), vec_fn))
        return inner(vectors, params, vec_fn, *rest)

    monkeypatch.setattr(module, "_turning_counts", record)
    return seen


@pytest.mark.parametrize("arc", [(0.0, 0.125), (0.3, 0.55), (0.9, 0.05)])
def test_jump_times_are_one_broadcast_of_the_family(monkeypatch, arc):
    # the loops index_jump_experiment counts, at times 0, 1 and the eight
    # probes, are the bits of arc_push_family's time-s maps, and of the
    # one-time-at-a-time formula, at the samples and at inserted parameters
    g = circle(1.0, 256)
    seen = _recording_kernel(monkeypatch, index)
    assert index_jump_experiment(g, arc, "out", inner_point=(0, 0)) == (1, 0)
    (v0, vec_fn), = seen
    times = [0.0, 1.0, *np.linspace(0.0, 1.0, 10)[1:-1]]
    family, _, _ = arc_push_family(g, arc, inner_point=(0, 0))
    u = np.random.default_rng(3).uniform(0.0, 1.0, 40)
    inserted = vec_fn(u, len(times))
    images, _, _ = _arc_push(g, arc, (0, 0))
    for i, s in enumerate(times):
        want = family(s)(g.params) - g.samples
        assert _same_bits(v0[i], want)
        assert _same_bits(inserted[i], family(s)(u) - g.point_at(u))
        assert _same_bits(family(s)(u), _reference_arc_push_map(g, arc, (0, 0), s)(u))
        assert _same_bits(images(np.array([s]), u)[0], family(s)(u))
    # a scalar parameter gives one image point, as the closure did
    assert _same_bits(family(0.25)(0.1), _reference_arc_push_map(g, arc, (0, 0), 0.25)(0.1))


def test_jump_probe_with_a_fixed_point_names_its_time(monkeypatch):
    # with three probes, the one at 1/2 puts the arc midpoint's image on the
    # curve: the midpoint of (0, 1/8) is a sample of circle(1, 256)
    monkeypatch.setattr(index, "_JUMP_PROBES", 3)
    g = circle(1.0, 256)
    with pytest.raises(HomotopyConstructionFailure,
                       match=r"^fixed point developed at homotopy time 0\.5: fixed point on curve"):
        index_jump_experiment(g, (0.0, 0.125), "out", inner_point=(0, 0))


def test_jump_plateau_break_before_a_later_fixed_point_wins(monkeypatch):
    # a family whose probe at 1/4 leaves the plateau and whose probe at 3/4
    # has a fixed point: the earlier probe's failure is the one raised, as
    # it would be probing one time after another
    monkeypatch.setattr(index, "_JUMP_PROBES", 3)
    g = circle(1.0, 64)
    at_sample = g.samples[5]

    def images(s, u):
        s = np.asarray(s, dtype=float)[:, None, None]
        u = np.asarray(u, dtype=float)
        base = np.where(s == 0.25, 3.0, 0.0)        # outside at s = 1/4
        out = np.broadcast_to(base, s.shape[:1] + u.shape + (2,)).copy()
        out[(s == 0.75)[:, 0, 0]] = at_sample       # on the curve at s = 3/4
        out[(s == 1.0)[:, 0, 0]] = (3.0, 0.0)
        return out

    monkeypatch.setattr(index, "_arc_push", lambda *a: (images, None, None))
    with pytest.raises(HomotopyConstructionFailure, match="index plateau broken at time 0.250"):
        index_jump_experiment(g, (0.0, 0.125), "out", inner_point=(0, 0))


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


def _outcome(fn):
    """A call's value, or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:   # the outcome is compared, type and message
        return type(exc), str(exc)


def _sequential_profile(family, curve, times):
    return [lefschetz_index(family(t), curve) for t in times]


def _power_blend(a, b, turn):
    """t -> e^(2 pi i turn t) ((1 - t) z^a + t z^b) as plane maps."""

    def family(t):
        w = np.exp(2j * np.pi * turn * t)

        def f(pts):
            z = pts[..., 0] + 1j * pts[..., 1]
            img = w * ((1.0 - t) * z ** a + t * z ** b)
            return np.stack([img.real, img.imag], axis=-1)
        return f

    return family


_SQUARE = ClosedCurve(np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]))


@st.composite
def _homotopies(draw):
    """A family and a curve: blends and rotations of z^a on circles of 16 to
    256 samples (some refine: z^4 turns a right angle a sample on 16), or
    the squash suite's saddle family on its 4-vertex square."""
    times = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    if draw(st.booleans()):
        return _squashed_saddle, _SQUARE, times
    a, b = draw(st.integers(-2, 5)), draw(st.integers(-2, 5))
    turn = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, -1.5]))
    n = draw(st.sampled_from([16, 32, 64, 128, 256]))
    r = draw(st.sampled_from([0.35, 0.6, 0.9, 1.1, 1.5, 2.2]))
    center = draw(st.sampled_from([(0.0, 0.0), (0.05, -0.1)]))
    return _power_blend(a, b, turn), circle(r, n, center), times


@settings(derandomize=True)
@given(_homotopies())
def test_profile_matches_one_index_a_time(case):
    family, curve, times = case
    got = _outcome(lambda: homotopy_index_profile(family, curve, times))
    assert got == _outcome(lambda: _sequential_profile(family, curve, times))


def test_profile_of_no_times_is_empty():
    assert homotopy_index_profile(_squashed_saddle, _SQUARE, []) == []
    assert homotopy_index_profile(_squashed_saddle, _SQUARE, np.array([])) == []


def _moving_constant(t):
    """The constant map at (2 - 2t, 0): on sample 0 of circle(1, 16) at t = 1/2."""
    return const_map([2.0 - 2.0 * t, 0.0])


def _off_samples(fail):
    """z -> 3 z^8, which turns by about a half turn from each sample of
    circle(1, 16) to the next, so the count refines; at any other points
    than those 16 samples it calls fail()."""

    def f(pts):
        pts = np.asarray(pts, dtype=float)
        z = 3.0 * (pts[..., 0] + 1j * pts[..., 1]) ** 8
        out = np.stack([z.real, z.imag], axis=-1)
        if len(pts) != 16:
            out[:] = fail()
        return out

    return f


def _raise(exc):
    raise exc


_RAISES_OFF_SAMPLES = _off_samples(lambda: _raise(KeyError("refinement point")))
_NAN_OFF_SAMPLES = _off_samples(lambda: np.nan)


def _pick(maps):
    """A family from {time: map}, where a map may be an exception to raise
    when the family is built at that time."""

    def family(t):
        m = maps[t]
        if isinstance(m, Exception):
            raise m
        return m

    return family


_BAD_MAP = lambda pts: _raise(IndexError("map fails"))  # noqa: E731


@pytest.mark.parametrize("family, times, error", [
    # a fixed point on the curve at the middle time
    (_moving_constant, np.linspace(0.0, 1.0, 5).tolist(), FixedPointOnCurve),
    # ... wins over a family that cannot be built at a later time
    (lambda t: _moving_constant(t) if t < 0.6 else 1 / 0, np.linspace(0.0, 1.0, 5).tolist(),
     FixedPointOnCurve),
    # a family that cannot be built at the middle time, later times fine
    (lambda t: 1 / 0 if t == 0.5 else _moving_constant(t + 0.1), [0.0, 0.25, 0.5, 1.0],
     ZeroDivisionError),
    # a map that raises at a middle time wins over a later fixed point
    (_pick({0.0: _moving_constant(0.0), 0.5: _BAD_MAP, 1.0: _moving_constant(0.5)}),
     [0.0, 0.5, 1.0], IndexError),
    # errors that only refinement meets, in either order: a NaN and a raise
    (_pick({0.0: _moving_constant(0.0), 0.5: _NAN_OFF_SAMPLES, 1.0: _RAISES_OFF_SAMPLES}),
     [0.0, 0.5, 1.0], NonFiniteDisplacement),
    (_pick({0.0: _moving_constant(0.0), 0.5: _RAISES_OFF_SAMPLES, 1.0: _NAN_OFF_SAMPLES}),
     [0.0, 0.5, 1.0], KeyError),
    # a map raising on refinement points after a later time's fixed point
    (_pick({0.0: _RAISES_OFF_SAMPLES, 0.5: _moving_constant(0.5)}), [0.0, 0.5], KeyError),
    (_pick({0.0: _moving_constant(0.5), 0.5: _RAISES_OFF_SAMPLES}), [0.0, 0.5],
     FixedPointOnCurve),
    # one time fails to build: no loop is counted at all
    (_pick({0.0: ValueError("no map")}), [0.0], ValueError),
])
def test_profile_raises_what_one_index_a_time_raises(family, times, error):
    curve = circle(1.0, 16)
    want = _outcome(lambda: _sequential_profile(family, curve, times))
    assert want[0] is error
    assert _outcome(lambda: homotopy_index_profile(family, curve, times)) == want


def test_lemma_suite_work_is_pinned(monkeypatch):
    # the turning counts one run_all() makes, the loops they count together
    # and the map points their refinement evaluates (rows x parameters): the
    # two saddle rectangles and two frames, the one jump of ten times (the
    # inward pair is the outward one reversed), the squash profile of twenty
    # times, then the six circles of z^2 in one stack
    work = {"calls": 0, "loops": 0, "points": 0}
    inner = curves._turning_counts

    def counted(vectors, params, vec_fn, *rest):
        work["calls"] += 1
        work["loops"] += len(vectors)

        def fn(t, rows):
            work["points"] += rows * len(t)
            return vec_fn(t, rows)
        return inner(vectors, params, fn, *rest)

    for module in (curves, index):
        monkeypatch.setattr(module, "_turning_counts", counted)
    assert all(r.passed for r in lemma_suite.run_all())
    assert work == {"calls": 7, "loops": 40, "points": 84}


def test_lemma_suite_output_is_pinned():
    assert [(r.name, r.passed, r.detail) for r in lemma_suite.run_all()] == [
        ("saddle rectangle boundary", True, "index -1, expected -1"),
        ("crossed rectangle boundary", True, "index 1, expected +1"),
        ("quadrilateral frame, straight layout", True, "index -1, expected -1"),
        ("quadrilateral frame, swapped layout", True, "index 1, expected +1"),
        ("index jump across an arc", True,
         "outward (1, 0) expected (1, 0); inward (0, 1) expected (0, 1)"),
        ("homotopy invariance of the index", True,
         "squash profile [-1] expected [-1]; inner radii [1, 1, 1] expected all 1; "
         "outer radii [2, 2, 2] expected all 2"),
    ]


def test_power2_circles_match_one_index_a_time():
    radii = (0.3, 0.5, 0.7, 1.5, 2.0, 3.0)
    f = lemma_suite._POWER2
    assert lemma_suite._power2_indices(radii) == [lefschetz_index(f, circle(r, 256))
                                                  for r in radii]
    # z^2 is fixed at (1, 0), a sample of the unit circle: the first failing
    # circle's error is raised, with lefschetz_index's message
    with pytest.raises(FixedPointOnCurve) as one:
        lefschetz_index(f, circle(1.0, 256))
    with pytest.raises(FixedPointOnCurve) as stacked:
        lemma_suite._power2_indices((0.5, 1.0, 2.0))
    assert str(stacked.value) == str(one.value)


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


def _reference_sides(line, pts):
    """Side of one frame line for each point: the exact orientation sign
    against the nearest of its segments, the line queried alone."""
    a, b = line[:-1], line[1:]
    j = curves._segment_distances(pts, a, b).argmin(axis=1)
    return curves._orient_signs(a[j], b[j], pts)


# coordinates on a coarse grid, so that distance ties and points on a line
# occur, with a few far out (infinite distances) and NaN
_FRAME_COORDS = st.one_of(st.integers(-3, 3).map(float),
                          st.sampled_from([0.5, -1.5, 1e308, -1e308, float("nan")]))


@st.composite
def _frame_queries(draw):
    lines, queries = [], []
    for _ in range(draw(st.integers(1, 4))):
        nv, nq = draw(st.integers(2, 6)), draw(st.integers(0, 8))
        lines.append(np.array(draw(st.lists(_FRAME_COORDS, min_size=2 * nv, max_size=2 * nv)))
                     .reshape(nv, 2))
        queries.append(np.array(draw(st.lists(_FRAME_COORDS, min_size=2 * nq, max_size=2 * nq)))
                       .reshape(nq, 2))
    return lines, queries


@settings(derandomize=True)
@given(_frame_queries())
def test_batched_frame_sides_match_per_line(case):
    lines, queries = case
    with np.errstate(all="ignore"):
        got = index._frame_sides(lines, queries)
        want = [_reference_sides(line, q) for line, q in zip(lines, queries)]
    assert len(got) == len(lines)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_batched_frame_sides_with_all_distances_infinite():
    # the second line's point is at an infinite float distance from every
    # segment: it takes its own line's first segment, on whose line it lies,
    # not the first line's, below which it lies
    lines = [np.array([[0.0, 0.0], [1.0, 0.0]]),
             np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 3.0]])]
    queries = [np.array([[0.5, 1.0]]), np.array([[-1.5e308, -1.5e308]])]
    with np.errstate(over="ignore"):
        got = index._frame_sides(lines, queries)
        want = [_reference_sides(line, q) for line, q in zip(lines, queries)]
        assert np.isinf(curves._segment_distances(queries[1], lines[1][:-1], lines[1][1:])).all()
    assert [g.tolist() for g in got] == [w.tolist() for w in want] == [[1.0], [0.0]]


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
