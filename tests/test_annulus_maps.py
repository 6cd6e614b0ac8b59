import numpy as np
import pytest
from hypothesis import given, strategies as st

import annulift.annulus_maps as am
from annulift.annulus_maps import (
    GridSpec,
    LiftMap,
    counterexample_deg_minus1,
    counterexample_restriction,
    counterexample_spine,
    deck_translate,
    degree_check,
    grid_lift_from_values,
    iterate,
    load_grid_lift,
    make_lift,
    project,
    projected_plane_map,
    write_grid_lift,
    zoo,
)
from annulift.errors import (
    EquivarianceViolation,
    ParamOutOfRange,
    UnknownZooEntry,
)

RNG = np.random.default_rng(42)


def grid_points(n=40, span=3.0):
    return np.stack([RNG.uniform(-span, span, n), RNG.uniform(-2, 2, n)], axis=-1)


# -- degree checks ---------------------------------------------------------------

def test_degree_check_power_two():
    assert degree_check(zoo("power", d=2), GridSpec(8, 8, (0, 1), (-1, 1))) == 2


def test_degree_check_end_swap():
    # direct evaluation oracle: (-2(x+1), -y) - (-2x, -y) = (-2, 0)
    F = zoo("end_swap", d=-2)
    pts = grid_points()
    np.testing.assert_allclose(F(pts + [1, 0]) - F(pts), np.tile([-2.0, 0.0], (len(pts), 1)))
    assert degree_check(F) == -2


def test_degree_check_translation_lift():
    F = make_lift(lambda p: np.asarray(p, float) + np.array([0.3, 0.0]), 1)
    assert degree_check(F) == 1


def test_equivariance_violation_at_construction():
    with pytest.raises(EquivarianceViolation):
        make_lift(lambda p: np.stack([p[..., 0] ** 2, p[..., 1]], axis=-1), 1)


def test_degree_check_rejects_wrong_declared_degree():
    bad = LiftMap(fn=lambda p: 2.0 * np.asarray(p, float), degree=3)
    with pytest.raises(EquivarianceViolation):
        degree_check(bad)


# -- deck translates and iteration -------------------------------------------------

def test_deck_translate_power():
    F = zoo("power", d=2)
    T = deck_translate(F, 1)
    pts = grid_points()
    np.testing.assert_allclose(T(pts), 2.0 * pts + np.array([1.0, 0.0]))
    assert deck_translate(F, 0) is F
    assert T.degree == 2


def test_conjugation_by_deck_translation():
    # T1 o F o T1^{-1} = F + (1 - d, 0); for the degree-3 power lift that is
    # (3x - 2, 3y), derived by expanding F(x - 1, y) + (1, 0)
    F = zoo("power", d=3)
    pts = grid_points()
    conj = F(pts - [1, 0]) + np.array([1.0, 0.0])
    np.testing.assert_allclose(conj, np.stack(
        [3 * pts[:, 0] - 2.0, 3 * pts[:, 1]], axis=-1))
    np.testing.assert_allclose(conj, deck_translate(F, 1 - 3)(pts))


def test_iterate_power():
    F2 = iterate(zoo("power", d=2), 2)
    pts = grid_points()
    np.testing.assert_allclose(F2(pts), 4.0 * pts)
    assert F2.degree == 4


def test_iterate_degree_is_power():
    assert degree_check(iterate(zoo("power", d=-2), 3)) == -8


def test_iterate_once_is_the_map():
    F = zoo("ends_attracting", d=2, lam=0.5)
    pts = grid_points()
    np.testing.assert_allclose(iterate(F, 1)(pts), F(pts))


def test_iterated_translate_is_translate_of_iterate():
    # translation amount k * (d^n - 1) / (d - 1)
    pts = grid_points(15)
    for d in (2, 3):
        F = zoo("power", d=d)
        for n in (1, 2, 3):
            for k in (-2, 1, 3):
                shift = k * (d ** n - 1) // (d - 1)
                left = iterate(deck_translate(F, k), n)(pts)
                right = deck_translate(iterate(F, n), shift)(pts)
                np.testing.assert_allclose(left, right, atol=1e-9)


# -- projection --------------------------------------------------------------------

def test_project_examples():
    a = project((1.25, 0.5))
    assert (a.theta, a.y) == (0.25, 0.5)
    b = project((-0.25, 0.0))
    assert (b.theta, b.y) == (0.75, 0.0)


def _theta_close(a, b, tol=1e-9):
    dt = abs(a.theta - b.theta)
    return min(dt, 1.0 - dt) < tol


@given(st.floats(-10, 10), st.floats(-3, 3), st.integers(-4, 4))
def test_project_deck_invariance(x, y, k):
    a, b = project((x, y)), project((x + k, y))
    assert _theta_close(a, b) and a.y == b.y


@given(st.integers(-3, 3), st.floats(-2, 2), st.floats(-1.5, 1.5))
def test_translate_projects_to_same_annulus_map(k, x, y):
    F = zoo("power", d=2)
    p = np.array([x, y])
    qa = project(F(p))
    qb = project(deck_translate(F, k)(p))
    assert _theta_close(qa, qb) and abs(qa.y - qb.y) < 1e-12


def test_projected_plane_map_is_power_map():
    f = projected_plane_map(zoo("power", d=2))
    z = np.array([[0.3, 0.4], [-1.0, 0.5], [0.0, 2.0]])
    w = z[:, 0] + 1j * z[:, 1]
    expected = w ** 2
    out = f(z)
    np.testing.assert_allclose(out[:, 0] + 1j * out[:, 1], expected, atol=1e-12)


# -- the zoo -----------------------------------------------------------------------

ZOO_CASES = [
    ("power", {"d": 2}, 2),
    ("power", {"d": -3}, -3),
    ("perturbed_power", {"d": 2, "eps": 0.05}, 2),
    ("ends_attracting", {"d": 2, "lam": 1.0}, 2),
    ("ends_repelling", {"d": -2, "lam": 0.7}, -2),
    ("end_swap", {"d": -2}, -2),
    ("counterexample_deg_minus1", {}, -1),
]


@pytest.mark.parametrize("name,params,d", ZOO_CASES)
def test_zoo_degrees_on_randomized_grid(name, params, d):
    F = zoo(name, **params)
    x0 = float(RNG.uniform(-2, 2))
    spec = GridSpec(nx=7, ny=5, x_range=(x0, x0 + 1.0),
                    y_range=(-0.5, 0.9) if name.startswith("counter") else (-1.5, 1.5))
    assert degree_check(F, spec) == d


def test_perturbed_power_preserves_invariant_circle_exactly():
    F = zoo("perturbed_power", d=3, eps=0.07)
    x = RNG.uniform(-5, 5, 64)
    pts = np.stack([x, np.zeros_like(x)], axis=-1)
    assert np.all(F(pts)[:, 1] == 0.0)


def test_end_swap_square_fixes_circle_and_has_degree_four():
    F = zoo("end_swap", d=-2)
    F2 = iterate(F, 2)
    x = RNG.uniform(-3, 3, 32)
    pts = np.stack([x, np.zeros_like(x)], axis=-1)
    np.testing.assert_allclose(F2(pts)[:, 1], 0.0)
    assert degree_check(F2) == 4


def test_zoo_errors():
    with pytest.raises(UnknownZooEntry):
        zoo("moebius")
    with pytest.raises(ParamOutOfRange):
        zoo("power", d=0)
    with pytest.raises(ParamOutOfRange):
        zoo("perturbed_power", d=2, eps=0.2)  # above 1/(4*pi)
    with pytest.raises(ParamOutOfRange):
        zoo("ends_attracting", d=2, lam=0.0)
    with pytest.raises(ParamOutOfRange):
        zoo("ends_repelling", d=2, lam=1.5)
    with pytest.raises(ParamOutOfRange):
        zoo("power", d=2.5)


# -- tabulated lifts ----------------------------------------------------------------

def _tabulate_power(d=2, nx=16, y0=-1.0, y1=1.0, ny=9):
    xs = np.arange(nx) / nx
    ys = np.linspace(y0, y1, ny)
    gx, gy = np.meshgrid(xs, ys)
    return np.stack([d * gx, d * gy], axis=-1)


def test_grid_lift_reproduces_linear_map():
    # bilinear interpolation is exact on a linear map
    values = _tabulate_power()
    F = grid_lift_from_values(values, 2, 0.0, -1.0, 1.0)
    pts = np.stack([RNG.uniform(-3, 3, 50), RNG.uniform(-1, 1, 50)], axis=-1)
    np.testing.assert_allclose(F(pts), 2.0 * pts, atol=1e-12)
    assert degree_check(F) == 2


@pytest.mark.parametrize("fmt", ["inline", "csv", "binary"])
def test_grid_lift_file_round_trip(tmp_path, fmt):
    values = _tabulate_power(d=-2)
    path = tmp_path / "lift.json"
    write_grid_lift(path, values, -2, 0.0, -1.0, 1.0, fmt=fmt, name="tab")
    F = load_grid_lift(path)
    pts = np.stack([RNG.uniform(-2, 2, 30), RNG.uniform(-1, 1, 30)], axis=-1)
    np.testing.assert_allclose(F(pts), -2.0 * pts, atol=1e-12)
    assert degree_check(F) == -2


# -- the shipped degree -1 example ---------------------------------------------------

def test_counterexample_degree():
    assert degree_check(counterexample_deg_minus1()) == -1


def test_counterexample_lift_displacement_floor_on_spine():
    # frozen from a dense scan of the exact restriction: the minimum lift
    # displacement on the invariant set is ~0.1031
    t = np.linspace(-0.5, 1.5, 20001)
    pts = counterexample_spine(t)
    exact = counterexample_restriction(t)
    d = np.hypot(*(exact - pts).T)
    assert d.min() > 0.1
    C = counterexample_deg_minus1()
    d_tab = np.hypot(*(C(pts) - pts).T)
    assert d_tab.min() > 0.09


def test_counterexample_restriction_is_continuous_at_the_glue():
    # all four parameter approaches to the glued point give the same image
    eps = 1e-9
    vals = counterexample_restriction(np.array([0.2 - eps, 0.2 + eps, 0.8 - eps, 0.8 + eps]))
    assert np.max(np.abs(vals - vals[0])) < 1e-6


def test_counterexample_restriction_is_continuous_at_the_jump():
    eps = 1e-9
    vals = counterexample_restriction(np.array([0.5 - eps, 0.5, 0.5 + eps]))
    assert np.max(np.abs(vals - vals[0])) < 1e-6


def test_counterexample_glue_point_is_single_point():
    pts = counterexample_spine(np.array([0.2, 0.8]))
    np.testing.assert_allclose(pts[0], pts[1])
