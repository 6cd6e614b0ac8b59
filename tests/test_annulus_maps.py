import functools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import annulift.annulus_maps as am
from annulift.annulus_maps import (
    PERTURBATION_MAX,
    ZOO_SCHEMAS,
    GridSpec,
    LiftMap,
    _norm_bound,
    counterexample_deg_minus1,
    counterexample_restriction,
    counterexample_spine,
    counterexample_spine_segments,
    counterexample_tube_cover,
    deck_translate,
    degree_check,
    grid_lift_from_values,
    iterate,
    load_grid_lift,
    make_lift,
    project,
    projected_plane_map,
    restrict,
    write_grid_lift,
    zoo,
)
from annulift.errors import (
    EquivarianceViolation,
    NonFiniteDisplacement,
    ParamOutOfRange,
    UnknownZooEntry,
)
from annulift.curves import circle
from annulift.index import lefschetz_index
from annulift.proofs import enclosure

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

@pytest.mark.parametrize("d, n, k", [(2, 1, 0), (2, 3, 5), (3, 2, 7), (-2, 3, 4)])
def test_lipschitz_bound_propagates(d, n, k):
    F = zoo("power", d=d)
    assert F.lipschitz == abs(d)
    G = deck_translate(iterate(F, n), k)
    assert G.lipschitz == abs(d) ** n
    # the propagated bound holds on random pairs, some of them close; the
    # slack covers rounding of images up to about 100
    rng = np.random.default_rng(n * 10 + k)
    p = rng.uniform(-3.0, 3.0, (500, 2))
    q = p + rng.normal(size=(500, 2)) * 10.0 ** rng.uniform(-3, 0, (500, 1))
    moved = np.hypot(*(G(p) - G(q)).T)
    assert np.all(moved <= G.lipschitz * np.hypot(*(p - q).T) * (1 + 1e-9))


@pytest.fixture(scope="module")
def tabulated(tmp_path_factory):
    """The benchmark's 256 x 257 copy of perturbed_power(2, 0.05), and the
    shear (2x + y, 2y) loaded from a file: bilinear is exact on it, so its
    bound is its spectral norm, above both column norms."""
    path = tmp_path_factory.mktemp("grid") / "lift.json"
    shear = _tabulate(lambda p: p @ np.array([[2.0, 0.0], [1.0, 2.0]]), nx=40, ny=21)
    write_grid_lift(path, shear, 2, 0.0, -1.0, 1.0, fmt="binary")
    values = _tabulate(zoo("perturbed_power", d=2, eps=0.05), nx=256, ny=257, y0=-2.0, y1=2.0)
    return {"grid_copy": grid_lift_from_values(values, 2, 0.0, -2.0, 2.0),
            "grid_file": load_grid_lift(path)}


@pytest.mark.parametrize("name", sorted(ZOO_SCHEMAS) + ["grid_copy", "grid_file"])
@given(d=st.integers(-50, 50).filter(bool), lam=st.floats(0.0, 1.0, exclude_min=True),
       eps=st.floats(-PERTURBATION_MAX, PERTURBATION_MAX, exclude_min=True, exclude_max=True),
       seed=st.integers(0, 2 ** 32 - 1))
def test_declared_lipschitz_bound_holds(tabulated, name, d, lam, eps, seed):
    # every zoo family across its documented parameters and every grid lift
    # declares a bound that random pairs, at scales from 1e-6 to 1, obey;
    # y reaches past the grids, where evaluation clamps it
    schema = ZOO_SCHEMAS.get(name, {"params": ()})["params"]   # documented parameters
    params = {k: v for k, v in {"d": d, "lam": lam, "eps": eps}.items() if k in schema}
    rng = np.random.default_rng(seed)
    p = rng.uniform((-2.0, -2.5), (2.0, 2.5), (2000, 2))
    step = rng.normal(size=(2000, 2))
    step *= 10.0 ** rng.uniform(-6.0, 0.0, (2000, 1)) / np.hypot(*step.T)[:, None]
    q = p + step
    F = tabulated.get(name) or zoo(name, **params)
    moved = np.hypot(*(F(p) - F(q)).T)
    assert np.all(moved <= F.lipschitz * np.hypot(*(p - q).T) * (1 + 1e-9))


@pytest.mark.parametrize("name, params, point", [
    ("perturbed_power", {"d": 2, "eps": 0.05}, (0.25, 1e-160)),             # y * y
    ("perturbed_power", {"d": 2, "eps": 0.05}, (0.3, 0.999294926603846)),   # the bump's tail
    ("ends_attracting", {"d": 2, "lam": 1e-300}, (0.0, 1e-10)),             # slope * y
])
def test_map_underflow_is_no_error(name, params, point):
    # an underflow errs by less than 2^-1074, below the image's rounding
    with np.errstate(all="raise"):
        image = zoo(name, **params)(np.array([point]))
    assert np.isfinite(image).all()


@given(m=st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
       slack=st.lists(st.floats(0.0, 10.0), min_size=3, max_size=3))
def test_norm_bound_dominates_the_spectral_norm(m, slack):
    # exact at zero slack, and larger column bounds only raise it
    M = np.array(m).reshape(2, 2)
    c1, c2 = M[:, 0], M[:, 1]
    with np.errstate(under="ignore"):
        a2, b2, p = c1 @ c1, c2 @ c2, abs(c1 @ c2)
    exact = _norm_bound(a2, b2, p)
    # a Python float, so approx's own tolerance arithmetic cannot flag underflow
    assert exact == pytest.approx(float(np.linalg.norm(M, 2)), rel=1e-9, abs=1e-12)
    assert _norm_bound(a2 + slack[0], b2 + slack[1], p + slack[2]) >= exact


@pytest.mark.parametrize("bound", [float("nan"), float("inf"), -1.0])
def test_make_lift_rejects_invalid_lipschitz(bound):
    with pytest.raises(ParamOutOfRange):
        make_lift(lambda p: 2.0 * np.asarray(p, float), 2, lipschitz=bound)


def test_make_lift_rejects_contradicted_lipschitz():
    # 2x moves adjacent grid points twice as far apart as they are
    with pytest.raises(ParamOutOfRange, match="contradicted"):
        make_lift(lambda p: 2.0 * np.asarray(p, float), 2, lipschitz=1.9)
    assert make_lift(lambda p: 2.0 * np.asarray(p, float), 2, lipschitz=2).lipschitz == 2.0


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


def test_projected_images_carry_their_lift_points_and_cover_images():
    F = zoo("power", d=3)
    f = projected_plane_map(F)
    z = np.array([[0.3, 0.4], [-1.0, 0.5], [0.0, 2.0]])
    w = f(z)
    assert isinstance(w, am.ProjectedImages)
    assert w.lift is F and w.points is z
    cover = np.stack([np.arctan2(z[:, 1], z[:, 0]), np.log(np.hypot(*z.T))], axis=-1) / np.array(
        [am.TWO_PI, -am.TWO_PI])
    np.testing.assert_allclose(w.cover, 3.0 * cover, rtol=1e-15)
    # no array derived from the images, and no view of them, keeps the tag
    for derived in (w * 2.0, w[1:], w[:], w + 0.0, -w):
        assert (derived.lift, derived.points, derived.cover) == (None, None, None)
    assert type(np.asarray(w)) is np.ndarray


def _reference_plane_map(F):
    """projected_plane_map before its origin test and its exp were trimmed;
    bit for bit the first-written form with stacked coordinate arrays."""

    def fn(pts):
        pts = np.asarray(pts, dtype=float)
        r = np.hypot(pts[..., 0], pts[..., 1])
        if (r == 0.0).any():
            raise ValueError("plane map is undefined at the origin")
        cover = np.empty(pts.shape)
        x, y = cover[..., 0], cover[..., 1]
        np.arctan2(pts[..., 1], pts[..., 0], out=x)
        x /= am.TWO_PI
        np.log(r, out=y)
        y /= -am.TWO_PI
        img = F(cover)
        rad = np.exp(img[..., 1] * -am.TWO_PI)
        ang = am.TWO_PI * img[..., 0]
        out = np.empty(img.shape)
        np.cos(ang, out=out[..., 0])
        np.sin(ang, out=out[..., 1])
        out *= rad[..., None]
        return out

    return fn


def _bits_and_warnings(fn, pts):
    """fn(pts) as int64 bits, or its exception's type and text, and the
    RuntimeWarnings it raised under np.seterr(all="warn"), in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(pts).view(np.int64).tolist()
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            out = (type(exc), str(exc))
    return out, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("F", [zoo("power", d=2), iterate(zoo("power", d=3), 3),
                               zoo("end_swap", d=-2), zoo("perturbed_power", d=2, eps=0.05)],
                         ids=["power(2)", "power(3)^3", "end_swap(-2)", "perturbed_power"])
def test_projected_plane_map_matches_reference_bitwise(F):
    f, ref = projected_plane_map(F), _reference_plane_map(F)
    rng = np.random.default_rng(5)
    radius = 10.0 ** rng.uniform(-1.0, 1.0, 500)
    ang = rng.uniform(-np.pi, np.pi, 500)
    pts = np.stack([radius * np.cos(ang), radius * np.sin(ang)], axis=-1)
    pts[:4] = [[1.0, 0.0], [-1.0, 0.0], [0.0, -2.0], [-0.0, 0.5]]
    assert f(pts).tobytes() == ref(pts).tobytes()
    assert f(pts[7]).shape == (2,)
    assert f(pts[7]).tobytes() == ref(pts[7]).tobytes()
    for origin in (np.zeros(2), np.array([[1.0, 1.0], [0.0, -0.0]])):
        with pytest.raises(ValueError, match="undefined at the origin"):
            f(origin)
    # signed zeros, NaN and infinite coordinates, and radii whose images
    # overflow or underflow exp, alone (each may raise) and all at once: the
    # same bits, errors and warnings
    with np.errstate(all="ignore"):   # subnormal radii
        extreme = 10.0 ** rng.uniform(-320.0, 308.0, 40)
        odd = np.stack([extreme * np.cos(ang[:40]), extreme * np.sin(ang[:40])], axis=-1)
    odd[:10] = [[-0.0, 0.5], [0.5, -0.0], [-0.0, -3.0], [np.nan, 1.0], [1.0, np.nan],
                [np.inf, 0.0], [-np.inf, 2.0], [5e-324, -0.0], [1e300, 1e300], [1e-300, 0.0]]
    for case in [*odd, odd, np.array([[0.5, 0.5], [-0.0, 0.0]]), np.array([-0.0, -0.0])]:
        assert _bits_and_warnings(f, case) == _bits_and_warnings(ref, case), case


def test_projected_plane_map_calls_its_lift_as_the_reference_does():
    """On the index workload's 18 maps, power(d)^n for d in (2, 3, -2) and
    n <= 6, each lefschetz_index call makes the same lift calls, with the
    same point counts, and gets the same index."""
    for d in (2, 3, -2):
        for n in range(1, 7):
            F = iterate(zoo("power", d=d), n)
            runs = []
            for plane_map in (projected_plane_map, _reference_plane_map):
                for r in (0.7, 1.6):
                    sizes = []

                    def counted(pts, sizes=sizes):
                        sizes.append(np.asarray(pts).size // 2)
                        return F(pts)

                    runs.append((lefschetz_index(plane_map(counted), circle(r, 256)), sizes))
            assert runs[:2] == runs[2:], (d, n)
            assert all(sizes for _, sizes in runs)


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


# e^(1 - s), s = 1/(1 - y^2), leaves the normal floats at |y| ~ 0.999295
_NEAR_BUMP_CUT = st.floats(0.9992, 0.9994)


@given(ys=st.lists(st.floats(-1.5, 1.5) | _NEAR_BUMP_CUT | _NEAR_BUMP_CUT.map(lambda v: -v),
                   min_size=1, max_size=40))
def test_smooth_bump_is_its_formula_while_the_exponential_is_normal(ys):
    # bit for bit y e^(1 - s) where that factor is a normal float; elsewhere
    # 0, where the formula is below 2.3e-308 in magnitude
    y = np.array(ys)
    inside = np.abs(y) < 1.0
    with np.errstate(under="ignore"):
        factor = np.zeros_like(y)
        factor[inside] = np.exp(1.0 - 1.0 / (1.0 - y[inside] * y[inside]))
        formula = y * factor
        bump = am._smooth_bump(y)
    normal = factor >= np.finfo(float).tiny
    assert np.array_equal(bump[normal].view(np.int64), formula[normal].view(np.int64))
    assert np.all(bump[~normal] == 0.0)
    assert np.all(np.abs(formula[~normal]) < 2.3e-308)


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

def _tabulate(F, nx=16, ny=9, y0=-1.0, y1=1.0):
    """F on nx columns of [0, 1) and ny rows of [y0, y1]."""
    gx, gy = np.meshgrid(np.arange(nx) / nx, np.linspace(y0, y1, ny))
    return F(np.stack([gx, gy], axis=-1))


def test_grid_lift_reproduces_linear_map():
    # bilinear interpolation is exact on a linear map
    values = _tabulate(zoo("power", d=2))
    F = grid_lift_from_values(values, 2, 0.0, -1.0, 1.0)
    pts = np.stack([RNG.uniform(-3, 3, 50), RNG.uniform(-1, 1, 50)], axis=-1)
    np.testing.assert_allclose(F(pts), 2.0 * pts, atol=1e-12)
    assert degree_check(F) == 2


@pytest.mark.parametrize("fmt", ["inline", "csv", "binary"])
def test_grid_lift_file_round_trip(tmp_path, fmt):
    values = _tabulate(zoo("power", d=-2))
    path = tmp_path / "lift.json"
    write_grid_lift(path, values, -2, 0.0, -1.0, 1.0, fmt=fmt, name="tab")
    F = load_grid_lift(path)
    pts = np.stack([RNG.uniform(-2, 2, 30), RNG.uniform(-1, 1, 30)], axis=-1)
    np.testing.assert_allclose(F(pts), -2.0 * pts, atol=1e-12)
    assert degree_check(F) == -2


# -- region bounds of tabulated lifts -------------------------------------------------

@functools.lru_cache(maxsize=1)
def _rough_grid():
    """A degree -1 tabulated lift over [-0.5, 0.7] whose slopes vary by
    three orders of magnitude from node to node."""
    rng = np.random.default_rng(3)
    values = rng.normal(size=(13, 24, 2)) * 10.0 ** rng.uniform(-1.0, 2.0, (13, 24, 1))
    return grid_lift_from_values(values, -1, 0.3, -0.5, 0.7)


@given(x=st.floats(-3.0, 3.0), width=st.floats(0.0, 1.5), y=st.floats(-1.5, 1.5),
       height=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
@example(x=0.9, width=0.5, y=1.2, height=0.2, seed=0)     # wraps x0 + 1, above both windows
@example(x=-2.05, width=0.1, y=-1.5, height=0.3, seed=1)  # below both windows
@example(x=0.0, width=0.0, y=0.0, height=8.670424674727764e-305, seed=0)  # step * height underflows
def test_pairs_in_a_region_obey_its_bound(x, width, y, height, seed):
    # restrict(F, region) declares F's bound over the region: random pairs
    # inside it, some close, obey it, in regions past the y window (where
    # evaluation clamps y) and across the wrap of the columns; it never
    # exceeds the global bound
    region = (x, x + width, y, y + height)
    lo, hi = np.array([x, y]), np.array([x + width, y + height])
    rng = np.random.default_rng(seed)
    p = rng.uniform(lo, hi, (1000, 2))
    step = rng.normal(size=(1000, 2)) * 10.0 ** rng.uniform(-6.0, 0.0, (1000, 1))
    with np.errstate(under="ignore"):   # a tiny region's steps may underflow
        q = np.clip(p + step * (hi - lo), lo, hi)
    for F in (_rough_grid(), counterexample_deg_minus1()):
        G = restrict(F, region)
        assert (G.fn, G.degree, G.y_window) == (F.fn, F.degree, F.y_window)
        assert 0.0 <= G.lipschitz <= F.lipschitz
        fp, fq = F(p), F(q)
        rounding = 8.0 * float(np.spacing(np.abs(np.concatenate([fp, fq])).max()))
        moved = np.hypot(*(fp - fq).T)
        with np.errstate(under="ignore"):   # the bound of a pair a subnormal distance apart
            bound = G.lipschitz * np.hypot(*(p - q).T) * (1 + 1e-9) + rounding
        assert np.all(moved <= bound)


@pytest.mark.parametrize("side", ["left", "right", "below", "above"])
def test_a_region_bound_takes_one_margin_cell_on_each_side(side):
    # the region bound covers the cells a region meets and one more on each
    # side, against the rounding of the cell indices. One node of a linear
    # grid is moved, which steepens its four cells, all in one block of b x b;
    # the region is the middle of the cell beside them, in the next block
    b = am._BOUND_BLOCK
    (ni, nj), (ci, cj) = {"left": ((b + 1, b + 1), (b, b - 1)),
                          "right": ((b + 1, 2 * b - 1), (b, 2 * b)),
                          "below": ((b + 1, b + 1), (b - 1, b)),
                          "above": ((2 * b - 1, b + 1), (2 * b, b))}[side]
    nx, ny = 4 * b, 4 * b + 1
    values = _tabulate(zoo("power", d=2), nx=nx, ny=ny)
    values[ni, nj, 0] += 5.0
    F = grid_lift_from_values(values, 2, 0.0, -1.0, 1.0)
    sy = 2.0 / (ny - 1)
    cell = lambda i, j: ((j + 0.25) / nx, (j + 0.75) / nx,   # noqa: E731
                         -1.0 + (i + 0.25) * sy, -1.0 + (i + 0.75) * sy)
    assert restrict(F, cell(ci, cj)).lipschitz > 20.0
    assert restrict(F, cell(0, 3 * b)).lipschitz < 2.0 + 1e-9


def test_region_bounds_follow_translates_not_iterates():
    # a translate moves no slope, so it keeps the lift's region bound; an
    # iterate's orbit leaves the region, so it has none; a map without a
    # table passes through restrict as itself
    F = counterexample_deg_minus1()
    region = (0.1, 0.2, 0.0, 0.1)
    G = deck_translate(F, 3)
    assert G.region_bound is F.region_bound
    assert restrict(G, region).lipschitz == restrict(F, region).lipschitz < F.lipschitz
    assert iterate(F, 1) is F
    F2 = iterate(F, 2)
    assert F2.region_bound is None and restrict(F2, region) is F2
    for name, params, _ in ZOO_CASES:
        H = zoo(name, **params)
        if name != "counterexample_deg_minus1":
            assert restrict(H, region) is H


def _reference_grid_lipschitz(values, degree, y0, y1):
    """The whole-grid bound of a tabulated lift, in one pass over all cells:
    _norm_bound of the largest squared edge slopes and corner dot product."""
    ny, nx, _ = values.shape
    ext = np.concatenate([values, values[:, :1] + np.array([float(degree), 0.0])], axis=1)
    h = np.diff(ext, axis=1) / (1.0 / nx)
    v = np.diff(ext, axis=0) / ((y1 - y0) / (ny - 1))
    dot = lambda a, c: a[..., 0] * c[..., 0] + a[..., 1] * c[..., 1]   # noqa: E731
    p = max(abs(dot(c1, c2)).max() for c1 in (h[:-1], h[1:]) for c2 in (v[:, :-1], v[:, 1:]))
    return _norm_bound(dot(h, h).max(), dot(v, v).max(), p)


@settings(derandomize=True)
@given(shape=st.tuples(st.integers(2, 40), st.integers(2, 40), st.integers(-3, 3)),
       scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2 ** 32 - 1))
def test_grid_bound_is_the_whole_grid_formula_bitwise(shape, scale, seed):
    # the blocked pass that also fills the region-bound table declares the
    # global bound of the whole-grid formula, bit for bit, signed zeros too
    nx, ny, degree = shape
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(ny, nx, 2)) * scale
    zero = rng.random(values.shape) < 0.1
    values[zero] = np.copysign(0.0, values[zero])
    F = grid_lift_from_values(values, degree, 0.0, -1.0, 2.0)
    assert F.lipschitz == _reference_grid_lipschitz(values, degree, -1.0, 2.0)
    assert F.region_bound((-10.0, 10.0, -5.0, 5.0)) <= F.lipschitz


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


def _reference_tube_cover(rho, step, translates):
    """counterexample_tube_cover as first written, in NumPy floats."""
    boxes = []
    for a, b, _, _ in counterexample_spine_segments(translates):
        pieces = max(1, int(np.ceil(float(np.hypot(*(b - a))) / step)))
        for i in range(pieces):
            p = a + (b - a) * (i / pieces)
            q = a + (b - a) * ((i + 1) / pieces)
            x0, x1 = sorted((p[0], q[0]))
            y0, y1 = sorted((p[1], q[1]))
            boxes.append((x0 - rho, x1 + rho, y0 - rho, y1 + rho))
    return boxes


@pytest.mark.parametrize("rho, step, translates",
                         [(0.015, 0.08, (-1, 0, 1)), (0.2, 0.013, (0,)), (0.0, 1.0, (2,))])
def test_tube_cover_coordinates_are_python_floats(rho, step, translates):
    # they were NumPy floats, so str() of a box printed np.float64(...)
    got = counterexample_tube_cover(rho, step, translates)
    assert all(type(v) is float for box in got for v in box)
    want = _reference_tube_cover(rho, step, translates)
    assert np.array(got).tobytes() == np.array(want).tobytes()


# -- the culled nearest-point kernel against a dense reference --------------------

def dense_nearest_on_spine(points, segs):
    """Every point against every segment; argmin gives ties to the lowest
    segment index."""
    a = np.stack([s[0] for s in segs])
    b = np.stack([s[1] for s in segs])
    ta = np.asarray([s[2] for s in segs])
    tb = np.asarray([s[3] for s in segs])
    ab = b - a
    ab2 = np.einsum("ij,ij->i", ab, ab)
    best_d = np.full(len(points), np.inf)
    best_t = np.zeros(len(points))
    chunk = 20_000
    for lo in range(0, len(points), chunk):
        p = points[lo:lo + chunk]
        ap = p[:, None, :] - a[None, :, :]
        u = np.clip(np.einsum("nmj,mj->nm", ap, ab) / ab2, 0.0, 1.0)
        foot = a[None] + u[..., None] * ab[None]
        d = np.hypot(foot[..., 0] - p[:, None, 0], foot[..., 1] - p[:, None, 1])
        j = np.argmin(d, axis=1)
        rows = np.arange(len(p))
        best_d[lo:lo + chunk] = d[rows, j]
        best_t[lo:lo + chunk] = ta[j] + u[rows, j] * (tb[j] - ta[j])
    return best_d, best_t


def assert_bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def tabulation_nodes():
    grid = am._counterexample_geometry()["grid"]
    xs = np.arange(int(grid["nx"]), dtype=float) / int(grid["nx"])
    ys = np.linspace(float(grid["y0"]), float(grid["y1"]), int(grid["ny"]))
    gx, gy = np.meshgrid(xs, ys)
    return np.stack([gx.ravel(), gy.ravel()], axis=-1)


def test_culled_nearest_matches_dense_within_reach():
    nodes = tabulation_nodes()
    segs = am.counterexample_spine_segments()
    outer = am._counterexample_geometry()["blend"]["outer"]
    d_ref, t_ref = dense_nearest_on_spine(nodes, segs)
    d, t = am._nearest_on_spine(nodes, segs, reach=outer)
    near = d_ref <= outer
    assert 0 < near.sum() < len(nodes)
    assert_bitwise_equal(d[near], d_ref[near])
    assert_bitwise_equal(t[near], t_ref[near])
    assert np.all(d[~near] > outer)


def test_spine_distance_matches_dense_everywhere():
    rng = np.random.default_rng(20261018)
    pts = np.concatenate([rng.uniform((-0.5, -1.0), (1.5, 1.5), (8_000, 2)),
                          rng.uniform(-50.0, 50.0, (2_000, 2))])
    d_ref, _ = dense_nearest_on_spine(pts, am.counterexample_spine_segments((-1, 0, 1)))
    assert_bitwise_equal(am.counterexample_spine_distance(pts), d_ref)


def test_counterexample_table_matches_dense_build(monkeypatch):
    culled = counterexample_deg_minus1()
    monkeypatch.setattr(am, "_nearest_on_spine",
                        lambda points, segs, reach=np.inf: dense_nearest_on_spine(points, segs))
    dense = counterexample_deg_minus1.__wrapped__()
    rng = np.random.default_rng(7)
    probes = np.concatenate([tabulation_nodes(),
                             rng.uniform((-1.0, -0.8), (2.0, 1.2), (5_000, 2))])
    assert_bitwise_equal(culled(probes), dense(probes))


# -- one-array kernels against their np.stack / four-gather references ----------------

def _reference_perturbed_power(pts, d, eps):
    pts = np.asarray(pts, dtype=float)
    x, y = pts[..., 0], pts[..., 1]
    return np.stack(
        [d * x + eps * np.sin(am.TWO_PI * x) * am._smooth_bump(y), d * y], axis=-1)


def _reference_ends(pts, d, lam, attracting):
    pts = np.asarray(pts, dtype=float)
    sign = 1.0 if attracting else -1.0
    x, y = pts[..., 0], pts[..., 1]
    return np.stack([d * x, y + sign * lam * y / (1.0 + y * y)], axis=-1)


def _reference_end_swap(pts, d):
    pts = np.asarray(pts, dtype=float)
    return np.stack([d * pts[..., 0], -pts[..., 1]], axis=-1)


def _reference_grid_fn(values, degree, x0, y0, y1):
    ny, nx, _ = values.shape
    ext = np.concatenate([values, values[:, :1] + np.array([float(degree), 0.0])], axis=1)
    step_x = 1.0 / nx
    step_y = (y1 - y0) / (ny - 1)

    def fn(pts):
        pts = np.asarray(pts, dtype=float)
        x = pts[..., 0]
        y = np.clip(pts[..., 1], y0, y1)
        k = np.floor(x - x0)
        gx = (x - x0 - k) / step_x
        ix = np.clip(np.floor(gx).astype(int), 0, nx - 1)
        ux = (gx - ix)[..., None]
        gy = (y - y0) / step_y
        iy = np.clip(np.floor(gy).astype(int), 0, ny - 2)
        uy = (gy - iy)[..., None]
        row0 = (1.0 - ux) * ext[iy, ix] + ux * ext[iy, ix + 1]
        row1 = (1.0 - ux) * ext[iy + 1, ix] + ux * ext[iy + 1, ix + 1]
        out = (1.0 - uy) * row0 + uy * row1
        out[..., 0] += float(degree) * k
        return out

    return fn


def _reference_grid_eval(values, degree, x0, y0, y1):
    """The corner-table formula: one (M, 2) node table, the index math of
    each axis on its own, and the four corners of each point's cell
    gathered as (N, 2, 2, 2): lower and upper row, left and right corner,
    (fx, fy); the same two lerps as grid_lift_from_values."""
    ny, nx, _ = values.shape
    ext = np.concatenate([values, values[:, :1] + np.array([float(degree), 0.0])], axis=1)
    table = ext.reshape(-1, 2)
    corners = np.array([0, 1, nx + 1, nx + 2])
    step_x = 1.0 / nx
    step_y = (y1 - y0) / (ny - 1)

    def fn(pts):
        pts = np.asarray(pts, dtype=float)
        flat = pts.reshape(-1, 2)
        xr = flat[:, 0] - x0
        k = np.floor(xr)
        gx = (xr - k) / step_x
        gy = (np.clip(flat[:, 1], y0, y1) - y0) / step_y
        ix = np.clip(gx.astype(np.intp), 0, nx - 1)
        iy = np.clip(gy.astype(np.intp), 0, ny - 2)
        ux = (gx - ix)[:, None, None]
        uy = (gy - iy)[:, None]
        c = table.take((iy * (nx + 1) + ix)[:, None] + corners, axis=0).reshape(-1, 2, 2, 2)
        rows = (1.0 - ux) * c[:, :, 0]
        rows += ux * c[:, :, 1]
        out = (1.0 - uy) * rows[:, 0]
        out += uy * rows[:, 1]
        out[:, 0] += float(degree) * k
        return out.reshape(pts.shape)

    return fn


_SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 1e300, -1e-300, 2.5, -7.25]


def _kernel_inputs(nx=16, ny=9, x0=0.0, y0=-1.0, y1=1.0):
    """Point sets of shape (N, 2), (2,) and (a, b, 2): random points inside and
    outside the grid's y range and x period, every pair of special values,
    the grid nodes and the wrap column."""
    rng = np.random.default_rng(7)
    rand = np.stack([rng.uniform(-5.0, 5.0, 400), rng.uniform(-4.0, 4.0, 400)], axis=-1)
    special = np.array([(a, b) for a in _SPECIAL for b in _SPECIAL])
    gx, gy = np.meshgrid(x0 + np.arange(nx + 1) / nx, np.linspace(y0, y1, ny))
    nodes = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    shifted = nodes + np.array([-3.0, 0.0])
    sets = [rand, special, nodes, shifted, np.concatenate([rand, special, nodes])]
    sets += [p for p in rand[:3]] + [p for p in special[::17]]
    sets += [rand[:24].reshape(4, 6, 2), nodes[:2 * (len(nodes) // 2)].reshape(2, -1, 2),
             np.empty((0, 2)), rand[:6].reshape(3, 2, 2)[:, ::-1]]
    return sets


def _assert_bitwise(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.int64),
                                  np.ascontiguousarray(want).view(np.int64))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name, params, reference", [
    ("perturbed_power", {"d": 2, "eps": 0.05}, lambda p: _reference_perturbed_power(p, 2, 0.05)),
    ("perturbed_power", {"d": -3, "eps": -0.07}, lambda p: _reference_perturbed_power(p, -3, -0.07)),
    ("ends_attracting", {"d": 2, "lam": 0.7}, lambda p: _reference_ends(p, 2, 0.7, True)),
    ("ends_repelling", {"d": -2, "lam": 0.55}, lambda p: _reference_ends(p, -2, 0.55, False)),
    ("end_swap", {"d": -2}, lambda p: _reference_end_swap(p, -2)),
    ("end_swap", {"d": 3}, lambda p: _reference_end_swap(p, 3)),
])
def test_zoo_kernels_match_stacked_reference_bitwise(name, params, reference):
    F = zoo(name, **params)
    for pts in _kernel_inputs():
        _assert_bitwise(F(pts), reference(pts))
    G, ref2 = iterate(F, 3), lambda p: reference(reference(reference(p)))
    for pts in _kernel_inputs()[:5]:
        _assert_bitwise(G(pts), ref2(pts))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("degree, x0, nx, ny, y0, y1", [
    (2, 0.0, 16, 9, -1.0, 1.0),
    (-1, 0.3, 5, 2, -0.5, 2.0),
    (3, -1.7, 2, 7, -2.0, -1.0),
])
def test_grid_lift_matches_four_gather_reference_bitwise(degree, x0, nx, ny, y0, y1):
    rng = np.random.default_rng(degree + nx)
    values = rng.normal(size=(ny, nx, 2))
    F = grid_lift_from_values(values, degree, x0, y0, y1)
    reference = _reference_grid_fn(values, degree, x0, y0, y1)
    for pts in _kernel_inputs(nx, ny, x0, y0, y1):
        _assert_bitwise(F(pts), reference(pts))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_counterexample_lift_matches_four_gather_reference_bitwise(monkeypatch):
    # rebuild the shipped lift, keeping the table it is made from
    tables = []
    build = am.grid_lift_from_values

    def keep(values, degree, x0, y0, y1, **kwargs):
        tables.append((values, degree, x0, y0, y1))
        return build(values, degree, x0, y0, y1, **kwargs)

    monkeypatch.setattr(am, "grid_lift_from_values", keep)
    C = counterexample_deg_minus1.__wrapped__()
    (values, degree, x0, y0, y1), = tables
    reference = _reference_grid_fn(values, degree, x0, y0, y1)
    ny, nx, _ = values.shape
    for pts in _kernel_inputs(nx, ny, x0, y0, y1):
        _assert_bitwise(C(pts), reference(pts))


# a point recipe: how x is placed (anywhere; whole periods away; on a node
# column; just below a whole period, where (x - x0) - floor(x - x0) rounds up
# to 1 and the node index to nx), and how y is (inside the window, below or
# above it, on an edge, on a node row)
_GRID_POINT = st.tuples(st.sampled_from(["random", "periods", "column", "below"]),
                        st.integers(-10 ** 9, 10 ** 9), st.floats(0.0, 1.0),
                        st.sampled_from(["inside", "below", "above", "edge", "row"]),
                        st.floats(0.0, 1e6))


def _grid_point(recipe, nx, ny, x0, y0, y1):
    xkind, m, frac, ykind, far = recipe
    whole = x0 + (m % 11 - 5)
    x = {"random": 20.0 * frac - 10.0,
         "periods": x0 + m + frac,
         "column": x0 + (m % (nx + 1)) / nx + (m % 11 - 5),
         "below": np.nextafter(whole, -np.inf) if whole else -2.0 ** -60}[xkind]
    y = {"inside": y0 + frac * (y1 - y0), "below": y0 - far, "above": y1 + far,
         "edge": y0 if frac < 0.5 else y1,
         "row": y0 + (m % ny) * ((y1 - y0) / (ny - 1))}[ykind]
    return x, y


@settings(derandomize=True)
@given(shape=st.tuples(st.integers(2, 7), st.integers(2, 7), st.integers(-3, 3)),
       x0=st.one_of(st.sampled_from([0.0, 0.3, -1.7]), st.floats(-10.0, 10.0)),
       window=st.tuples(st.floats(-3.0, 3.0), st.floats(0.05, 4.0)),
       seed=st.integers(0, 2 ** 32 - 1),
       recipes=st.lists(_GRID_POINT, min_size=1, max_size=40))
@example(shape=(4, 3, -1), x0=0.0, window=(-1.0, 2.0), seed=0,
         recipes=[("below", 5, 0.0, "inside", 0.0), ("below", 5, 0.5, "above", 1e6)])
def test_grid_lift_matches_corner_table_reference_bitwise(shape, x0, window, seed, recipes):
    # the two-axis kernel against the (N, 2, 2, 2) corner-table formula, on
    # finite points: y outside the window, x many periods away, x on node
    # columns, and x where the node index rounds up to nx
    nx, ny, degree = shape
    y0, y1 = window[0], window[0] + window[1]
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(ny, nx, 2))
    zero = rng.random(values.shape) < 0.2   # nodes at 0.0 and -0.0 too
    values[zero] = np.copysign(0.0, values[zero])
    reference = _reference_grid_eval(values, degree, x0, y0, y1)
    pts = np.array([_grid_point(r, nx, ny, x0, y0, y1) for r in recipes])
    # a tiny x0 (say -4.5e-222) makes tiny weights near x = 0, whose
    # products underflow harmlessly, in both kernels and in the norms of the
    # Lipschitz check that builds the lift
    with np.errstate(under="ignore"):
        F = grid_lift_from_values(values, degree, x0, y0, y1)
        _assert_bitwise(F(pts), reference(pts))
        _assert_bitwise(F(pts[None]), reference(pts[None]))
        _assert_bitwise(F(pts[0]), reference(pts[0]))


def test_a_nan_point_through_a_tabulated_lift_evaluates_to_nan_quietly():
    # tier-1 turns RuntimeWarnings into errors, and numpy warns when a NaN
    # node coordinate is cast to an index, so the evaluator clamps in float
    # first. A NaN in either coordinate gives NaN, the finite points beside
    # it keep their values, and an enclosure at the NaN point is refused
    C = counterexample_deg_minus1()
    finite = np.array([[0.1, 0.1], [0.37, -0.2], [-4.6, 0.3]])
    for bad in ([np.nan, 0.1], [0.1, np.nan], [np.nan, np.nan]):
        out = C(np.array([bad]))
        assert out.shape == (1, 2) and np.isnan(out).all()
        mixed = C(np.concatenate([finite, [bad]]))
        assert np.isnan(mixed[-1]).all()
        _assert_bitwise(mixed[:-1], C(finite))
        with pytest.raises(NonFiniteDisplacement):
            enclosure(C, np.array([bad]), [[0.01, 0.01]])


# -- the median without numpy.ma -----------------------------------------------------

_MEDIAN_SPECIALS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308,
                    -1e-310, 1.7e308, -1.7e308, 1e308]


@given(st.lists(st.one_of(st.sampled_from(_MEDIAN_SPECIALS),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=12))
def test_median_matches_numpy_bitwise(values):
    # the only NaN input is np.nan itself, so a NaN result has one bit pattern
    # unless inf - inf makes a new one, which both compute the same way
    v = np.array(values, dtype=float)
    with np.errstate(all="ignore"):
        expected = np.float64(np.median(v))
    got = am._median(v)
    assert isinstance(got, float)
    assert np.float64(got).tobytes() == expected.tobytes(), (values, got, expected)


def test_median_fixed_cases():
    for values, expected in (([-0.0], 0.0), ([-0.0, -0.0], 0.0), ([3.0, np.nan, 1.0], np.nan),
                             ([-5e-324, 0.0], -0.0), ([1.7e308, 1.7e308], np.inf),
                             ([-np.inf, np.inf], np.nan), ([4.0, 1.0, 2.0, 3.0], 2.5)):
        got = am._median(np.array(values))
        assert np.float64(got).tobytes() == np.float64(expected).tobytes() or (
            np.isnan(got) and np.isnan(expected)), (values, got)


def test_building_maps_and_sweeping_never_imports_numpy_ma():
    # np.median imports numpy.ma on first use; every zoo map build and the
    # continuum diagnosis of completeness_check (end_swap(-2) at period 2)
    # must not
    code = (
        "import sys\n"
        "from annulift import annulus_maps as am, fixed_points as fp\n"
        "for name, params in [('power', {'d': 2}), ('perturbed_power', {'d': 2, 'eps': 0.05}),\n"
        "                     ('ends_attracting', {'d': 2, 'lam': 0.5}),\n"
        "                     ('ends_repelling', {'d': 3, 'lam': 0.5}),\n"
        "                     ('end_swap', {'d': -2}), ('counterexample_deg_minus1', {})]:\n"
        "    am.zoo(name, **params)\n"
        "reports = fp.completeness_check(am.zoo('end_swap', d=-2), 2)\n"
        "assert reports[1].continuum_offsets, reports\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
