from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from annulift import curves, fixed_points, index, lemma_suite
from annulift.annulus_maps import LiftMap, projected_plane_map, zoo
from annulift.curves import ClosedCurve, circle, rectangle
from annulift.lemma_suite import _crossed, _saddle, _squashed_saddle
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
    homotopy_index_profile,
    index_jump_experiment,
    lefschetz_index,
    quad_configuration_index,
    quad_frame,
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
    (lambda: homotopy_index_profile(lambda s, p: np.stack([_double(p)] * len(s)),
                                    rectangle(-1, 1, -1, 1), [0.0, 1.0]),
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


@pytest.mark.parametrize("F, side", [
    (lambda p: 0.5 * np.asarray(p, float), "right"),   # lands inside: neither layout
    (lambda p: np.asarray(p, float) * (1.0, 0.5) + (2.0, 0.0), "left"),   # all pushed right
])
def test_a_failing_horizontal_side_is_named(F, side):
    with pytest.raises(BoundaryConditionViolation,
                       match=f"^{side} side condition fails at ") as err:
        saddle_rectangle_index(F, (-1, 1, -1, 1))
    assert err.value.side == side


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


@pytest.mark.parametrize("lines, error, message", [
    # beta rises through alpha
    ({1: [[-3.0, -1.0], [3.0, 2.0]]}, NotAQuadrilateral, "alpha and beta must be disjoint"),
    # delta bends back through gamma
    ({3: [[1.0, -3.0], [1.0, 3.0], [-2.0, 2.0]]}, NotAQuadrilateral,
     "gamma and delta must be disjoint"),
    # beta passes alpha's end and climbs above its line
    ({1: [[-3.0, -1.0], [3.0, -1.0], [5.0, 3.0]]}, ConfigurationViolation,
     "beta does not lie on one side of the frame line"),
], ids=["alpha-beta", "gamma-delta", "one-side"])
def test_quad_frame_errors(lines, error, message):
    frame_lines = list(frame())
    for i, line in lines.items():
        frame_lines[i] = np.array(line)
    with pytest.raises(error, match=f"^{message}$"):
        quad_configuration_index(saddle, *frame_lines, expect=-1)


def test_quad_wrong_layout_rejected():
    with pytest.raises(ConfigurationViolation):
        quad_configuration_index(saddle, *frame(), expect=1)


_OFFSETS = st.sampled_from(np.arange(-1.5, 1.75, 0.25).tolist())


@st.composite
def _bent_frames(draw):
    """frame()'s lines, each bent at one inner vertex and moved across
    itself at its three vertices by offsets on a quarter grid up to 1.5:
    mostly frames, but lines can cross twice, touch or overlap."""
    lines = []
    for base, upright in ((1.0, False), (-1.0, False), (-1.0, True), (1.0, True)):
        along = (-3.0, draw(st.sampled_from([-2.0, -1.0, 0.0, 0.5, 2.0])), 3.0)
        pts = [(t, base + draw(_OFFSETS)) for t in along]
        lines.append(np.array([(y, x) if upright else (x, y) for x, y in pts]))
    return lines


_TWICE = [*frame()[:2], np.array([[-1.0, -3.0], [-1.0, 2.0], [-0.5, 0.0]]), frame()[3]]
_OVERLAP = [frame()[0], np.array([[-3.0, -1.0], [0.0, -1.0], [0.0, 1.0], [3.0, 1.0]]),
            *frame()[2:]]


@given(lines=_bent_frames(), F=st.sampled_from([_saddle, _crossed]),
       expect=st.sampled_from([-1, 1]))
@example(lines=list(frame()), F=_saddle, expect=-1)
@example(lines=list(frame()), F=_crossed, expect=1)
@example(lines=list(frame()), F=_crossed, expect=-1)
@example(lines=_TWICE, F=_saddle, expect=-1)
@example(lines=_OVERLAP, F=_crossed, expect=1)
def test_a_frame_checks_a_map_as_quad_configuration_index_does(lines, F, expect):
    # the same value, or the same error type and message
    assert _outcome(lambda: quad_frame(*lines).index(F, expect)) == _outcome(
        lambda: quad_configuration_index(F, *lines, expect=expect))


def test_one_frame_checks_both_layouts():
    quad = quad_frame(*frame())
    assert quad.corners.tolist() == [[-1.0, 1.0], [1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]]
    assert curves.is_positively_oriented(quad.curve)
    assert (quad.index(_saddle, -1), quad.index(_crossed, 1)) == (-1, 1)
    with pytest.raises(ValueError, match="expect must be -1 or \\+1"):
        quad.index(_saddle, 0)
    # a bad expect is refused before the lines are looked at
    with pytest.raises(ValueError, match="expect must be -1 or \\+1"):
        quad_configuration_index(_saddle, *_TWICE, expect=0)


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


@pytest.mark.parametrize("arc", [(0.2, 0.2), (0.0, 0.5), (0.1, 0.75)],
                         ids=["empty", "half", "over-half"])
def test_arc_push_needs_an_arc_under_half_the_curve(arc):
    with pytest.raises(ValueError, match=r"^arc width must lie in \(0, 1/2\) "):
        _arc_push(circle(1.0, 256), arc, (0.0, 0.0))


@pytest.mark.parametrize("gamma, direction, message", [
    (circle(1.0, 256), "up", "direction must be 'out' or 'in'"),
    (circle(1.0, 256).reversed(), "out", "gamma must be positively oriented"),
], ids=["direction", "clockwise"])
def test_jump_refuses_bad_input(gamma, direction, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        index_jump_experiment(gamma, (0.0, 0.125), direction, inner_point=(0, 0))


def test_jump_family_midpoint_crosses_curve():
    g = circle(1.0, 128)
    images, p_in, p_out = _arc_push(g, (0.0, 0.125), (0, 0))
    from annulift.curves import point_in_polygon
    assert point_in_polygon(p_in, g.samples)
    assert not point_in_polygon(p_out, g.samples)
    # at the crossing time the pushed arc sits on the curve
    mid_image = images(np.array([0.5]), np.array([0.0625]))[0]
    assert abs(np.hypot(*mid_image[0]) - 1.0) < 1e-6


def _reference_arc_push_map(gamma, arc, inner_point, s):
    """The time-s map of the arc push as first written: a scalar target and
    a bump closure, one time at a time."""
    _, p_in, p_out = _arc_push(gamma, arc, inner_point)
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
    # probes, are the bits of _arc_push's images one time at a time, and of
    # the one-time-at-a-time formula, at the samples and at inserted parameters
    g = circle(1.0, 256)
    seen = _recording_kernel(monkeypatch, index)
    assert index_jump_experiment(g, arc, "out", inner_point=(0, 0)) == (1, 0)
    (v0, vec_fn), = seen
    times = [0.0, 1.0, *np.linspace(0.0, 1.0, 10)[1:-1]]
    images, _, _ = _arc_push(g, arc, (0, 0))

    def at(s, u):
        return images(np.array([s]), u)[0]

    u = np.random.default_rng(3).uniform(0.0, 1.0, 40)
    inserted = vec_fn(u, len(times))
    for i, s in enumerate(times):
        assert _same_bits(v0[i], at(s, g.params) - g.samples)
        assert _same_bits(inserted[i], at(s, u) - g.point_at(u))
        assert _same_bits(at(s, u), _reference_arc_push_map(g, arc, (0, 0), s)(u))
    # a scalar parameter gives one image point, as the closure did
    assert _same_bits(at(0.25, 0.1), _reference_arc_push_map(g, arc, (0, 0), 0.25)(0.1))


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

    def images(times, pts):
        img = saddle(pts)
        return np.stack([np.broadcast_to(img[..., 0], (len(times), len(pts))),
                         (1.0 - times)[:, None] * img[..., 1]], axis=-1)

    profile = homotopy_index_profile(images, boundary, np.linspace(0, 1, 20))
    assert profile == [-1] * 20


def _outcome(fn):
    """A call's value, or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:   # the outcome is compared, type and message
        return type(exc), str(exc)


def _sequential_profile(images, curve, times):
    """One lefschetz_index a time, of that time's row of the images."""
    return [lefschetz_index(lambda pts, t=t: images(np.array([t]), pts)[0], curve)
            for t in times]


def _power_blend(a, b, turn):
    """The images of z under e^(2 pi i turn t) ((1 - t) z^a + t z^b) for
    every time t at once."""

    def images(times, pts):
        t = np.asarray(times, dtype=float)[:, None]
        z = pts[..., 0] + 1j * pts[..., 1]
        img = np.exp(2j * np.pi * turn * t) * ((1.0 - t) * z ** a + t * z ** b)
        return np.stack([img.real, img.imag], axis=-1)

    return images


_SQUARE = ClosedCurve(np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]))


def _shifted(curve, offset):
    """The curve moved by offset, samples and parametrization alike."""
    offset = np.asarray(offset, dtype=float)
    return ClosedCurve(curve.samples + offset, curve_fn=lambda t: curve.curve_fn(t) + offset)


@st.composite
def _homotopies(draw):
    """A homotopy's images and a curve: blends and rotations of z^a on
    circles of 16 to 256 samples (some refine: z^4 turns a right angle a
    sample on 16), some of them moved off the origin, or the squash suite's
    saddle family on its 4-vertex square."""
    times = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    if draw(st.booleans()):
        return _squashed_saddle, _SQUARE, times
    a, b = draw(st.integers(-2, 5)), draw(st.integers(-2, 5))
    turn = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, -1.5]))
    n = draw(st.sampled_from([16, 32, 64, 128, 256]))
    r = draw(st.sampled_from([0.35, 0.6, 0.9, 1.1, 1.5, 2.2]))
    curve = circle(r, n)
    if draw(st.booleans()):
        curve = _shifted(curve, (0.05, -0.1))
    return _power_blend(a, b, turn), curve, times


@settings(derandomize=True)
@given(_homotopies())
def test_profile_matches_one_index_a_time(case):
    images, curve, times = case
    got = _outcome(lambda: homotopy_index_profile(images, curve, times))
    assert got == _outcome(lambda: _sequential_profile(images, curve, times))


def test_profile_of_no_times_is_empty():
    def images(times, pts):
        raise AssertionError("no times need no images")

    assert homotopy_index_profile(images, _SQUARE, []) == []
    assert homotopy_index_profile(images, _SQUARE, np.array([])) == []


def _moving_constant(times, pts):
    """The constant map at (2 - 2t, 0) at each time t: on sample 0 of
    circle(1, 16) at t = 1/2."""
    out = np.zeros((len(times),) + np.shape(pts))
    out[..., 0] = (2.0 - 2.0 * np.asarray(times, dtype=float))[:, None]
    return out


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


_REFINE_ERROR = KeyError("refinement point")
_RAISES_OFF_SAMPLES = _off_samples(lambda: _raise(_REFINE_ERROR))
_NAN_OFF_SAMPLES = _off_samples(lambda: np.nan)


def _pick(maps):
    """A homotopy's images from {time: map}, each time's map called on the
    points in turn; a map may be an exception, raised when its time is
    among the times."""

    def family(times, pts):
        out = []
        for t in times.tolist():
            m = maps[t]
            if isinstance(m, Exception):
                raise m
            out.append(m(pts))
        return np.stack(out)

    return family


_OUTSIDE, _ON_SAMPLE_0 = const_map([2.0, 0.0]), const_map([1.0, 0.0])
_BAD_MAP = lambda pts: _raise(IndexError("map fails"))  # noqa: E731


@pytest.mark.parametrize("family, times, error", [
    # a fixed point on the curve at the middle time
    (_moving_constant, np.linspace(0.0, 1.0, 5).tolist(), FixedPointOnCurve),
    # ... wins over a NaN at a later time
    (lambda s, pts: np.where((s < 0.6)[:, None, None], _moving_constant(s, pts), np.nan),
     np.linspace(0.0, 1.0, 5).tolist(), FixedPointOnCurve),
    # images that raise for the middle time are raised, later times fine
    (lambda s, pts: 1 / 0 if 0.5 in s else _moving_constant(s + 0.1, pts),
     [0.0, 0.25, 0.5, 1.0], ZeroDivisionError),
    # ... and so are images that raise for a middle time, before a later fixed point
    (_pick({0.0: _OUTSIDE, 0.5: _BAD_MAP, 1.0: _ON_SAMPLE_0}), [0.0, 0.5, 1.0], IndexError),
    # a NaN that only refinement meets wins over a later fixed point on a sample
    (_pick({0.0: _OUTSIDE, 0.5: _NAN_OFF_SAMPLES, 1.0: _ON_SAMPLE_0}), [0.0, 0.5, 1.0],
     NonFiniteDisplacement),
    # images that raise on refinement points, a later time's NaN there too
    (_pick({0.0: _OUTSIDE, 0.5: _RAISES_OFF_SAMPLES, 1.0: _NAN_OFF_SAMPLES}),
     [0.0, 0.5, 1.0], KeyError),
    # ... and a later time's fixed point on a sample
    (_pick({0.0: _RAISES_OFF_SAMPLES, 0.5: _ON_SAMPLE_0}), [0.0, 0.5], KeyError),
    # a fixed point on a sample drops the later times before any refinement
    (_pick({0.0: _ON_SAMPLE_0, 0.5: _RAISES_OFF_SAMPLES}), [0.0, 0.5], FixedPointOnCurve),
    # images that raise for the only time: no loop is counted at all
    (_pick({0.0: ValueError("no map")}), [0.0], ValueError),
])
def test_profile_raises_what_one_index_a_time_raises(family, times, error):
    curve = circle(1.0, 16)
    want = _outcome(lambda: _sequential_profile(family, curve, times))
    assert want[0] is error
    assert _outcome(lambda: homotopy_index_profile(family, curve, times)) == want


@pytest.mark.parametrize("maps", [
    {0.0: _OUTSIDE, 0.5: _RAISES_OFF_SAMPLES},          # raised in the refinement round
    {0.0: _NAN_OFF_SAMPLES, 0.5: _RAISES_OFF_SAMPLES},  # ... where time 0 fails too
    {0.0: _ON_SAMPLE_0, 0.5: _REFINE_ERROR},            # raised on the samples
], ids=["refinement", "refinement-after-nan", "samples-after-fixed-point"])
def test_profile_raises_what_images_raise(maps):
    # all times are one images call a round: what it raises propagates
    # unchanged, also where an earlier time alone would fail first
    curve, images = circle(1.0, 16), _pick(maps)
    with pytest.raises(KeyError) as raised:
        homotopy_index_profile(images, curve, [0.0, 0.5])
    assert raised.value is _REFINE_ERROR


def test_lemma_suite_work_is_pinned(monkeypatch):
    # the turning counts one run_all() makes, the loops they count together
    # and the map points their refinement evaluates (rows x parameters): the
    # two saddle rectangles and two frames, the one jump of ten times (the
    # inward pair is the outward one reversed), the squash profile of twenty
    # times, then the six circles of z^2 in one stack
    work = {"calls": 0, "loops": 0, "points": 0, "crossings": 0}
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
    # the two frame layouts are checked against one frame, built once
    crossings = index._polyline_crossings

    def counted_crossings(*lines):
        work["crossings"] += 1
        return crossings(*lines)

    monkeypatch.setattr(index, "_polyline_crossings", counted_crossings)
    assert all(r.passed for r in lemma_suite.run_all())
    assert work == {"calls": 7, "loops": 40, "points": 84, "crossings": 1}


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
    # the suite's family, z^2 conjugated by z -> r z, has along the unit
    # circle the index z^2 has along circle(r)
    radii = (0.3, 0.5, 0.7, 1.5, 2.0, 3.0)
    f, unit = lemma_suite._POWER2, circle(1.0, 256)
    assert homotopy_index_profile(lemma_suite._power2_at_radii, unit, radii) == [
        lefschetz_index(f, circle(r, 256)) for r in radii]
    # z^2 is fixed at (1, 0), a sample of the unit circle: the first failing
    # circle's error is raised, with lefschetz_index's message
    with pytest.raises(FixedPointOnCurve) as one:
        lefschetz_index(f, unit)
    with pytest.raises(FixedPointOnCurve) as stacked:
        homotopy_index_profile(lemma_suite._power2_at_radii, unit, (0.5, 1.0, 2.0))
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
    times = np.linspace(0.0, 1.0, 20)
    maps = [(_saddle, lambda p: _reference_scaled(p, 2.0, 0.5)),
            (_crossed, lambda p: _reference_scaled(p, -2.0, 0.5)),
            (lambda p: _squashed_saddle(times, p),
             lambda p: np.stack([_reference_squashed_saddle(t)(p) for t in times]))]
    for f, ref in maps:
        for pts in sets:
            assert _same_bits(f(pts), ref(pts))


def test_lemma_families_match_one_time_a_call():
    # each time's row of a stacked family is, bit for bit, that time's map
    # called alone: the squash's saddle scaled by 1 - t, and z^2 conjugated
    # by z -> r z; as displacements on the suite's curves, at their samples
    # and at 300 refinement parameters
    rng = np.random.default_rng(3)
    square = ClosedCurve(np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]))
    radii = np.array([0.3, 0.5, 0.7, 1.5, 2.0, 3.0])
    families = [(_squashed_saddle, _reference_squashed_saddle, np.linspace(0.0, 1.0, 20), square),
                (lemma_suite._power2_at_radii,
                 lambda r: lambda p: lemma_suite._POWER2(r * p) / r, radii, circle(1.0, 256))]
    for images, one, times, curve in families:
        for pts in (curve.samples, curve.point_at(rng.uniform(0.0, 1.0, 300))):
            want = np.stack([one(t)(pts) - pts for t in times.tolist()])
            assert _same_bits(images(times, pts) - pts, want)


def test_lemma_suite_map_calls_are_pinned(monkeypatch):
    # each homotopy of one run_all() evaluates all its times in one call a
    # round: the six circles of z^2 are one lift call, as no step refines;
    # the squash images the square's samples, then the one round's midpoints
    lift_calls, squash_calls = [], []
    lift_call, squash = LiftMap.__call__, lemma_suite._squashed_saddle

    def counted_lift(lift, pts):
        lift_calls.append(np.shape(pts))
        return lift_call(lift, pts)

    def counted_squash(times, pts):
        squash_calls.append((len(times), len(pts)))
        return squash(times, pts)

    monkeypatch.setattr(LiftMap, "__call__", counted_lift)
    monkeypatch.setattr(lemma_suite, "_squashed_saddle", counted_squash)
    assert all(r.passed for r in lemma_suite.run_all())
    assert lift_calls == [(6, 256, 2)]
    assert squash_calls == [(20, 4), (20, 4)]


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
