import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from annulift import fixed_points
from annulift.annulus_maps import (
    AnnulusPoint,
    LiftMap,
    _norm_bound,
    counterexample_deg_minus1,
    counterexample_spine_distance,
    counterexample_spine_segments,
    counterexample_tube_cover,
    deck_translate,
    grid_lift_from_values,
    iterate,
    make_lift,
    zoo,
)
from annulift.errors import (
    BoundaryFixedPoint,
    BudgetExceeded,
    EmptyReport,
    NonFiniteDisplacement,
    NonIntegerTranslation,
    NotPeriodic,
    ParamOutOfRange,
    ToolkitError,
)
from annulift.fixed_points import (
    CertifiedFixedBox,
    IsolationAudit,
    _exclusion_margins,
    boxes_to_csv_rows,
    completeness_check,
    diagnose_continuum,
    growth_rate,
    isolate_fixed_points,
    nielsen_residue,
    polish_fixed_point,
    reports_to_json,
    translate_strip,
)


def displacement_oracle(F, box, n=33):
    """Dense-grid displacement minimum, independent of the exclusion logic."""
    x0, x1, y0, y1 = box
    gx, gy = np.meshgrid(np.linspace(x0, x1, n), np.linspace(y0, y1, n))
    pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    return float(np.hypot(*(np.asarray(F(pts)) - pts).T).min())


# -- isolation -----------------------------------------------------------------

def test_power_two_isolates_origin():
    boxes = isolate_fixed_points(zoo("power", d=2), (-2, 2, -2, 2), 1e-3)
    assert len(boxes) == 1
    assert boxes[0].contains((0.0, 0.0))
    assert boxes[0].boundary_degree != 0
    assert boxes[0].size <= 1e-3


def test_translate_isolates_minus_one():
    # by hand: 2x + 1 = x gives x = -1, y = 0
    boxes = isolate_fixed_points(deck_translate(zoo("power", d=2), 1), (-2, 2, -2, 2), 1e-3)
    assert len(boxes) == 1
    assert boxes[0].contains((-1.0, 0.0))


def test_fixed_point_free_lift_certifies_nothing():
    F = make_lift(lambda p: np.asarray(p, float) + np.array([0.3, 0.0]), 1, lipschitz=1)
    assert isolate_fixed_points(F, (-2, 2, -2, 2), 1e-3) == []


def test_a_map_without_a_bound_is_refused():
    # isolation and the x-displacement enclosure, through which sweeps and
    # the default fixed-points strip go, need a declared Lipschitz bound
    F = make_lift(lambda p: 2.0 * np.asarray(p, float), 2)
    for call in (lambda: isolate_fixed_points(F, (-2, 2, -2, 2), 1e-3),
                 lambda: completeness_check(F, 1),
                 lambda: translate_strip(F, 0)):
        with pytest.raises(ParamOutOfRange, match="no Lipschitz bound"):
            call()


def test_budget_exceeded(monkeypatch):
    monkeypatch.setattr(fixed_points, "_SUBDIVISION_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        isolate_fixed_points(zoo("power", d=2), (-2, 2, -2, 2), 1e-6)


def test_budget_is_per_attempt_with_or_without_audit(monkeypatch):
    # the fixed point of (2x - a, 2y - b) is the centre (a, b) of attempt 1's
    # region, on both of its first split lines: attempt 1 meets it on a leaf
    # corner after 245 tested boxes and attempt 2 certifies it after 289. A
    # cap of 289 holds for each attempt, and an audit that sums the boxes
    # over both attempts does not trip it
    region = (-2.0, 2.0, -2.0, 2.0)
    jx0, jx1, jy0, jy1 = fixed_points._jittered(region, 1)
    centre = np.array([0.5 * (jx0 + jx1), 0.5 * (jy0 + jy1)])
    F = make_lift(lambda p: 2.0 * np.asarray(p, float) - centre, 2, lipschitz=2)
    monkeypatch.setattr(fixed_points, "_SUBDIVISION_BUDGET", 289)
    audit = IsolationAudit()
    regions = _record_attempts(monkeypatch)
    boxes = isolate_fixed_points(F, region, 1e-4, audit=audit)
    assert len(regions) == 2 and audit.unresolved == []
    assert len(boxes) == 1 and boxes[0].contains(centre)
    assert boxes == isolate_fixed_points(F, region, 1e-4)
    assert audit.boxes_processed > 289


def test_census_mop_up_failure_is_gone(monkeypatch):
    # a leaf beside this fixed point's leaf shares an edge with it; centre
    # samples exclude that leaf's mop-up fragments, so attempt 1 certifies
    regions = _record_attempts(monkeypatch)
    audit = IsolationAudit()
    F = deck_translate(iterate(zoo("power", d=3), 3), 8)
    boxes = isolate_fixed_points(F, (-14.0, 14.0, -2.0, 2.0), 1e-3, audit=audit)
    assert len(boxes) == 1 and len(regions) == 1
    assert audit.unresolved == []


def test_no_box_is_tested_twice_in_an_attempt(monkeypatch):
    # two attempts, each mopping up degree-0 leaves; a mopped-up leaf used to
    # be tested again before it was split
    tested = []
    real_once, real_margins = fixed_points._isolate_once, fixed_points._exclusion_margins

    def once(*args, **kwargs):
        tested.append([])
        return real_once(*args, **kwargs)

    def margins(F, boxes):
        tested[-1].extend(map(tuple, np.asarray(boxes).tolist()))
        return real_margins(F, boxes)

    monkeypatch.setattr(fixed_points, "_isolate_once", once)
    monkeypatch.setattr(fixed_points, "_exclusion_margins", margins)
    F = deck_translate(iterate(zoo("power", d=2), 2), 1)
    assert len(isolate_fixed_points(F, (-6.0, 6.0, -2.0, 2.0), 1e-3)) == 1
    assert len(tested) == 2
    for boxes in tested:
        assert len(set(boxes)) == len(boxes)


def _record_attempts(monkeypatch) -> list:
    """Regions of the _isolate_once calls made from here on."""
    regions = []
    real = fixed_points._isolate_once
    monkeypatch.setattr(fixed_points, "_isolate_once",
                        lambda F, region, *a, **kw:
                        regions.append(region) or real(F, region, *a, **kw))
    return regions


def _contains(outer, inner) -> bool:
    return outer[0] < inner[0] and outer[1] > inner[1] and outer[2] < inner[2] \
        and outer[3] > inner[3]


def test_first_attempt_is_jittered(monkeypatch):
    # the fixed point (0, 0) lies on both midlines of the region as given
    region = (-2, 2, -2, 2)
    regions = _record_attempts(monkeypatch)
    boxes = isolate_fixed_points(zoo("power", d=2), region, 1e-3)
    assert len(boxes) == 1 and len(regions) == 1
    assert _contains(regions[0], region)


def test_jitter_table_matches_its_generator():
    # the table holds what np.random.default_rng(attempt) drew for each attempt
    region = (-1.7, 2.3, -2.1, 1.9)
    for attempt in range(1, fixed_points._ATTEMPTS + 1):
        rng = np.random.default_rng(attempt)
        t = attempt * fixed_points._JITTER_BASE
        tx, ty = t * (0.2 + 0.6 * rng.random(2))
        dx, dy = t * (1.1 + 0.5 * rng.random(2))
        x0, x1, y0, y1 = region
        expected = (x0 - tx - dx, x1 - tx + dx, y0 - ty - dy, y1 - ty + dy)
        assert fixed_points._jittered(region, attempt) == expected
        rng = np.random.default_rng(attempt)
        multipliers = np.concatenate([0.2 + 0.6 * rng.random(2), 1.1 + 0.5 * rng.random(2)])
        assert fixed_points._JITTER[attempt - 1] == tuple(multipliers.tolist())


def test_continuum_runs_every_attempt(monkeypatch):
    region = (-2, 2, -1, 1)
    regions = _record_attempts(monkeypatch)
    with pytest.raises(BoundaryFixedPoint):
        isolate_fixed_points(iterate(zoo("end_swap", d=-2), 2), region, 1e-2)
    assert len(regions) == fixed_points._ATTEMPTS == 4
    assert len(set(regions)) == 4
    assert all(_contains(r, region) for r in regions)


@pytest.mark.parametrize("F, region", [
    (zoo("power", d=2), (-1.7, 2.3, -2.1, 1.9)),
    (deck_translate(iterate(zoo("power", d=3), 2), 4), (-1.3, 0.9, -0.7, 0.6)),
])
def test_audit_is_independent_of_chunk_size(monkeypatch, F, region):
    # one attempt with no boundary hit: the chunked search tests the same
    # boxes as the one-box-at-a-time search and discards the same ones
    audits, results = [], []
    for chunk in (1, fixed_points._CHUNK):
        monkeypatch.setattr(fixed_points, "_CHUNK", chunk)
        audit = IsolationAudit()
        results.append(fixed_points._isolate_once(F, region, 1e-2, audit, 0))
        audits.append(audit)
    one, many = audits
    assert results[0] == results[1] and len(results[0]) == 1
    assert one.boxes_processed == many.boxes_processed
    assert len(one.discarded) == len(many.discarded) > 0
    assert set(one.discarded) == set(many.discarded)
    assert one.unresolved == many.unresolved == []


_REFERENCE_CHILDREN = np.array([[0, 4, 2, 5], [4, 1, 2, 5], [0, 4, 5, 3], [4, 1, 5, 3]])


def _reference_isolate_once(F, region, resolution, audit, lift_offset):
    """_isolate_once as first written: an (N, 4) box stack beside two flag
    arrays, three concatenates and two repeats a step; a box halves each side
    that is at least half the other, and a leaf halves neither."""
    floor = resolution / 256.0
    certified = []
    processed = 0
    boxes = np.array([region], dtype=float)
    mop = np.zeros(1, dtype=bool)
    tested = np.zeros(1, dtype=bool)
    while len(boxes):
        if tested[-1]:
            box, mopping = tuple(boxes[-1].tolist()), mop[-1]
            boxes, mop, tested = boxes[:-1], mop[:-1], tested[:-1]
            if mopping:
                audit.unresolved.append(box)
                raise fixed_points._BoundaryHit
            try:
                deg = fixed_points._boundary_degree(F, box)
            except fixed_points.FixedPointOnCurve as exc:
                raise fixed_points._BoundaryHit from exc
            if deg != 0:
                certified.append(CertifiedFixedBox(box, deg, lift_offset))
                continue
            cell = np.array(box)
            kids = np.concatenate([cell, 0.5 * (cell[0::2] + cell[1::2])])[_REFERENCE_CHILDREN]
            boxes = np.concatenate([boxes, kids])
            mop = np.concatenate([mop, np.ones(4, dtype=bool)])
            tested = np.concatenate([tested, np.zeros(4, dtype=bool)])
            continue
        flagged = np.flatnonzero(tested[-fixed_points._CHUNK:])
        start = len(boxes) - min(len(boxes), fixed_points._CHUNK)
        if len(flagged):
            start += int(flagged[-1]) + 1
        chunk, chunk_mop = boxes[start:], mop[start:]
        processed += len(chunk)
        if processed > fixed_points._SUBDIVISION_BUDGET:
            raise BudgetExceeded("budget")
        margin, sampled_min = fixed_points._exclusion_margins(F, chunk)
        out = margin > 0
        audit.boxes_processed += len(chunk)
        gone = (out & ~chunk_mop)[::-1]
        audit.discarded.extend(zip(map(tuple, chunk[::-1][gone].tolist()),
                                   sampled_min[::-1][gone].tolist(),
                                   margin[::-1][gone].tolist()))
        keep, keep_mop = chunk[~out], chunk_mop[~out]
        width, height = keep[:, 1] - keep[:, 0], keep[:, 3] - keep[:, 2]
        leaf = np.maximum(width, height) <= np.where(keep_mop, floor, resolution)
        split_x = ~leaf & (width >= 0.5 * height)
        split_y = ~leaf & (height >= 0.5 * width)
        mids = 0.5 * (keep[:, 0::2] + keep[:, 1::2])
        mids[:, 0] = np.where(split_x, mids[:, 0], keep[:, 1])
        mids[:, 1] = np.where(split_y, mids[:, 1], keep[:, 3])
        slots = np.concatenate([keep, mids], axis=1)[:, _REFERENCE_CHILDREN]
        used = np.stack([np.ones(len(keep), dtype=bool), split_x, split_y,
                         split_x & split_y], axis=1)
        fanout = used.sum(axis=1)
        boxes = np.concatenate([boxes[:start], slots[used]])
        mop = np.concatenate([mop[:start], np.repeat(keep_mop, fanout)])
        tested = np.concatenate([tested[:start], np.repeat(leaf, fanout)])
    return sorted(certified, key=lambda c: c.box)


def _wobble(p):
    """Degree 1, fixed points at (k/2, 0.3) for every integer k; Jacobian
    diag(1 + 0.4 pi cos(2 pi x), 0.5)."""
    p = np.asarray(p, dtype=float)
    return np.stack([p[..., 0] + 0.2 * np.sin(2 * np.pi * p[..., 0]),
                     0.5 * p[..., 1] + 0.15], axis=-1)


WOBBLE = make_lift(_wobble, 1, lipschitz=1.0 + 0.4 * np.pi)


@pytest.mark.parametrize("F, region", [
    (iterate(zoo("end_swap", d=-2), 2), (-2, 2, -1, 1)),     # continuum: every attempt fails
    (WOBBLE, (-1.23, 1.91, -1.0, 1.0)),      # six fixed points
])
def test_leaf_order_is_independent_of_chunk_size(monkeypatch, F, region):
    # leaves get their boundary degrees in the one-box-at-a-time depth-first
    # order, so a failing attempt stops after exactly as many degrees
    seen = []
    # 7 splits sibling groups across chunks, so chunks mix depths
    for chunk in (1, 7, fixed_points._CHUNK, 4096):
        monkeypatch.setattr(fixed_points, "_CHUNK", chunk)
        curves = []
        monkeypatch.setattr(fixed_points, "lefschetz_index",
                            lambda G, curve, _f=fixed_points.lefschetz_index, **kw:
                            curves.append(curve.samples[0].tobytes()) or _f(G, curve, **kw))
        audit = IsolationAudit()
        try:
            outcome = isolate_fixed_points(F, region, 1e-2, audit=audit)
        except BoundaryFixedPoint:
            outcome = "boundary"
        seen.append((outcome, curves, audit.unresolved))
        monkeypatch.undo()
    assert all(s == seen[0] for s in seen[1:])


def _ring(p):
    """Degree 1; fixed on the small closed curve
    sin(pi x)^2 + sin(pi y)^2 / pi^2 = 4e-6 around (0, 0), which one leaf at
    resolution 3e-2 can hold whole. F = id + g (1, 1) with
    |grad g| <= hypot(pi, 1/pi)."""
    p = np.asarray(p, dtype=float)
    g = np.sin(np.pi * p[..., 0]) ** 2 + np.sin(np.pi * p[..., 1]) ** 2 / np.pi ** 2 - 4e-6
    return np.stack([p[..., 0] + g, p[..., 1] + g], axis=-1)


RING = make_lift(_ring, 1, lipschitz=1.0 + np.sqrt(2.0) * np.hypot(np.pi, 1.0 / np.pi))


@pytest.mark.parametrize("F, region, resolution", [
    (zoo("power", d=2), (-1.7, 2.3, -2.1, 1.9), 1e-3),
    (deck_translate(iterate(zoo("power", d=3), 2), 4), (-1.3, 0.9, -0.7, 0.6), 1e-3),
    (zoo("power", d=2), (-2, 2, -2, 2), 1e-3),       # fixed point on a subdivision line
    (WOBBLE, (-1.23, 1.91, -1.0, 1.0), 1e-2),
    (zoo("perturbed_power", d=2, eps=0.05), (-0.77, 0.61, -0.45, 0.52), 1e-3),
    (RING, (-0.31, 0.29, -0.3, 0.32), 3e-2),   # mop-up fragment survives
    (zoo("power", d=2), (-0.5, 0.5, -2.0, 2.0), 1e-3),      # 1 x 4: y-only splits first
    (deck_translate(iterate(zoo("power", d=3), 3), 8), (-14.0, 14.0, -2.0, 2.0), 1e-3),  # x-only
])
@pytest.mark.parametrize("chunk", [7, fixed_points._CHUNK])
def test_isolate_once_matches_reference(monkeypatch, F, region, resolution, chunk):
    # same certified boxes, same boxes tested and discarded in the same order,
    # same leaves given boundary degrees in the same order, same mop-up
    monkeypatch.setattr(fixed_points, "_CHUNK", chunk)
    degree, margins = fixed_points._boundary_degree, fixed_points._exclusion_margins
    log = {}
    monkeypatch.setattr(fixed_points, "_boundary_degree",
                        lambda F, box: log["degrees"].append(box) or degree(F, box))
    monkeypatch.setattr(fixed_points, "_exclusion_margins",
                        lambda F, boxes: log["tested"].append(np.array(boxes)) or margins(F, boxes))
    runs = []
    for kernel in (fixed_points._isolate_once, _reference_isolate_once):
        log.update(degrees=[], tested=[])
        audit = IsolationAudit()
        try:
            outcome = kernel(F, region, resolution, audit, 3)
        except fixed_points._BoundaryHit:
            outcome = "boundary"
        runs.append((outcome, log["degrees"], np.concatenate(log["tested"]).tobytes(), audit))
    (got, got_deg, got_tested, got_audit), (ref, ref_deg, ref_tested, ref_audit) = runs
    assert got == ref and got_deg == ref_deg and got_tested == ref_tested
    assert got_audit == ref_audit
    assert got_deg


@given(short=st.floats(-2.0, 0.5), aspect=st.floats(0.0, 6.0), tall=st.booleans(),
       at=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
       resolution=st.floats(-3.0, -1.0))
def test_certified_boxes_are_near_square(short, aspect, tall, at, resolution):
    # power(2) fixes only the origin; a region whose short side exceeds the
    # resolution, of any aspect up to 1e6, certifies it in one box with
    # sides within a factor 2 of each other
    short, resolution = 10.0 ** short, 10.0 ** resolution
    assume(short > resolution)
    sides = (short * 10.0 ** aspect, short)[::-1 if tall else 1]
    region = (-at[0] * sides[0], (1.0 - at[0]) * sides[0],
              -at[1] * sides[1], (1.0 - at[1]) * sides[1])
    (box,) = isolate_fixed_points(zoo("power", d=2), region, resolution)
    x0, x1, y0, y1 = box.box
    assert box.contains((0.0, 0.0)) and box.size <= resolution
    assert max(x1 - x0, y1 - y0) <= 2.0 * min(x1 - x0, y1 - y0) * (1.0 + 1e-9)


def _grid_copy(F, nx=256, ny=257, y_range=(-2.0, 2.0)):
    xs = np.arange(nx, dtype=float) / nx
    gx, gy = np.meshgrid(xs, np.linspace(*y_range, ny))
    return grid_lift_from_values(F(np.stack([gx, gy], axis=-1)), F.degree, 0.0, *y_range)


def _random_boxes():
    """Boxes of every scale, some of zero width, zero height or a point."""
    rng = np.random.default_rng(7)
    cx = rng.uniform(-3.0, 3.0, 500)
    cy = rng.uniform(-1.5, 1.5, 500)
    hw = 10.0 ** rng.uniform(-5.0, -0.3, (2, 500))
    boxes = np.stack([cx - hw[0], cx + hw[0], cy - hw[1], cy + hw[1]], axis=-1)
    boxes[::7, 1] = boxes[::7, 0]    # zero width
    boxes[::11, 3] = boxes[::11, 2]  # zero height
    boxes[::13, 1::2] = boxes[::13, 0::2]   # a point
    corners = np.sort(rng.uniform(0.0, 2.0, (64, 4)).reshape(64, 2, 2), axis=2)
    return np.concatenate([boxes, corners.reshape(64, 4)])


def _holes(p):
    """power(2), undefined (NaN) on the disk of radius 1/2 around (1, 0.5)."""
    p = np.asarray(p, dtype=float)
    out = 2.0 * p
    out[np.hypot(p[..., 0] - 1.0, p[..., 1] - 0.5) < 0.5] = np.nan
    return out


def _scalar_declared_margin(F, box):
    """The one-box exclusion formula under a declared bound L on F: the least
    displacement at the centres of an m x m split of the box, minus (L + 1)
    times half a cell's diagonal."""
    x0, x1, y0, y1 = box
    m = fixed_points._EXCLUSION_GRID
    hx, hy = (x1 - x0) / m, (y1 - y0) / m
    pts = np.array([(x0 + hx * (j + 0.5), y0 + hy * (i + 0.5))
                    for i in range(m) for j in range(m)])
    sampled_min = float(np.hypot(*(np.asarray(F(pts)) - pts).T).min())
    reach = 0.5 * float(np.hypot(hx, hy))
    return sampled_min - (F.lipschitz + 1.0) * reach, sampled_min


_UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@given(corner=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
       sides=st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 1e6)),
       at=st.lists(st.tuples(_UNIT, _UNIT), min_size=1, max_size=8))
def test_every_point_of_a_box_is_within_reach_of_a_sample(corner, sides, at):
    # the geometric half of the exclusion proof, on the kernel's own samples:
    # every point of the box, corners and edges too, lies within the reach
    # of one of the 9 cell centres; the slack is the rounding of the sample
    # coordinates, which the proof leaves to exact arithmetic
    lo = np.array(corner)
    hi = lo + np.array(sides)
    samples = []
    with np.errstate(under="ignore"):   # subnormal sides
        _, (reach,) = fixed_points._sampled_minima(
            lambda p: samples.append(p.copy()) or p, [(lo[0], hi[0], lo[1], hi[1])])
        (samples,) = samples
        assert samples.shape == (fixed_points._EXCLUSION_GRID ** 2, 2) == (9, 2)
        rounding = float(np.spacing(np.maximum(abs(lo), abs(hi))).sum())
        for u in at:
            p = np.clip(lo + np.array(u) * (hi - lo), lo, hi)
            assert np.hypot(*(samples - p).T).min() <= reach * (1.0 + 1e-12) + rounding


def _hat(p):
    """Degree 1 with a hat of width 0.008 at x = 0.3: two fixed points,
    (0.3 +- 0.004/6, 0), that the 3 x 3 samples of a large box miss.
    Lipschitz constant 1 + 0.6/0.004 = 151."""
    p = np.asarray(p, dtype=float)
    t = (np.mod(p[..., 0], 1.0) - 0.3) / 0.004
    return np.stack([p[..., 0] + 0.5 - 0.6 * np.maximum(0.0, 1.0 - np.abs(t)),
                     0.5 * p[..., 1]], axis=-1)


HAT_LIPSCHITZ = 1.0 + 0.6 / 0.004


@pytest.mark.parametrize("F", [
    pytest.param(iterate(zoo("power", d=3), 3), id="power(3)^3"),
    pytest.param(deck_translate(iterate(zoo("power", d=-2), 2), 1), id="power(-2)^2+(1,0)"),
    pytest.param(make_lift(_hat, 1, lipschitz=HAT_LIPSCHITZ), id="hat"),
])
def test_declared_exclusion_margins_match_scalar_reference(F):
    # degenerate boxes too: bit for bit the one-box formula
    boxes = _random_boxes()
    margins, mins = _exclusion_margins(F, boxes)
    ref = np.array([_scalar_declared_margin(F, tuple(b)) for b in boxes.tolist()])
    assert margins.tobytes() == ref[:, 0].tobytes()
    assert mins.tobytes() == ref[:, 1].tobytes()


def test_exclusion_margins_raise_on_a_nan_sample():
    # some of the boxes sample the NaN disk of _holes: no margin is a bound
    with pytest.raises(NonFiniteDisplacement, match="non-finite displacement in the box"):
        _exclusion_margins(LiftMap(fn=_holes, degree=2, lipschitz=2.0), _random_boxes())


def _inf_disk(p):
    """power(2), infinite on the disk of radius 0.2 around (0.3, 0.2)."""
    p = np.asarray(p, dtype=float)
    out = 2.0 * p
    out[np.hypot(p[..., 0] - 0.3, p[..., 1] - 0.2) < 0.2] = np.inf
    return out


def test_isolation_raises_on_an_infinite_sample():
    # an infinite displacement inside the region is an error, not "far from fixed"
    with pytest.raises(NonFiniteDisplacement):
        isolate_fixed_points(LiftMap(fn=_inf_disk, degree=2, lipschitz=2.0), (-1, 1, -1, 1), 1e-2)


def test_degree_zero_leaf_at_the_mop_up_floor_is_mopped_up():
    # at resolution 1 the whole region is one leaf, already narrower than the
    # floor 1/256; its quarters are excluded, so the translate fixes nothing
    F = make_lift(lambda p: np.asarray(p, dtype=float) + (1.2e-4, 0.0), 1, lipschitz=1.0)
    assert isolate_fixed_points(F, (-1e-5, 1e-5, -1e-5, 1e-5), 1) == []


def test_fixed_point_at_an_attempts_corner_is_certified_by_the_next(monkeypatch):
    # 2p - c fixes c, the lower-left corner of attempt 1's jittered region:
    # the corner leaf's degree meets it, and attempt 2 certifies it
    region = (-0.5, 0.5, -0.5, 0.5)
    c = np.array(fixed_points._jittered(region, 1)[::2])
    F = make_lift(lambda p: 2.0 * np.asarray(p, dtype=float) - c, 2, lipschitz=2.0)
    regions = _record_attempts(monkeypatch)
    (box,) = isolate_fixed_points(F, region, 1e-2)
    assert box.contains(c) and box.boundary_degree == 1
    assert regions == [fixed_points._jittered(region, a) for a in (1, 2)]


@pytest.mark.parametrize("region", [(0, 1, -1, 1), (0.25, 0.35, -0.1, 0.1)])
def test_declared_bound_finds_both_hat_fixed_points(region):
    # the 3 x 3 samples of the large region miss the hat; the declared
    # bound sees it on both, and a bound below the true one (the mutation)
    # proves the hat away
    boxes = isolate_fixed_points(make_lift(_hat, 1, lipschitz=HAT_LIPSCHITZ), region, 1e-3)
    assert sorted(b.boundary_degree for b in boxes) == [-1, 1]
    for x in (0.3 - 0.004 / 6, 0.3 + 0.004 / 6):
        assert sum(b.contains((x, 0.0)) for b in boxes) == 1
    assert isolate_fixed_points(make_lift(_hat, 1, lipschitz=1.0), region, 1e-3) == []


@pytest.mark.parametrize("F, region", [
    (make_lift(_hat, 1, lipschitz=HAT_LIPSCHITZ), (0.25, 0.35, -0.1, 0.1)),   # degrees +1, -1
    (zoo("power", d=2), (-2, 2, -2, 2)),
    (WOBBLE, (-1.23, 1.91, -1.0, 1.0)),
])
def test_every_reported_box_has_nonzero_degree(F, region):
    boxes = isolate_fixed_points(F, region, 1e-3)
    assert boxes and all(b.boundary_degree != 0 for b in boxes)


def test_certification_refinement_persistence():
    F = zoo("power", d=3)
    (box,) = isolate_fixed_points(F, (-1, 1, -1, 1), 1e-2)
    finer = isolate_fixed_points(F, box.box, 2.5e-3)
    assert len(finer) == 1
    assert box.contains(finer[0].center)


def test_exclusion_oracle_agreement():
    audit = IsolationAudit()
    isolate_fixed_points(zoo("power", d=2), (-2, 2, -2, 2), 1e-2, audit=audit)
    assert audit.discarded, "expected some excluded boxes"
    for box, sampled_min, margin in audit.discarded:
        dense = displacement_oracle(lambda p: zoo("power", d=2)(p), box)
        assert dense > 0.0
        assert dense >= 0.999 * margin


@pytest.mark.parametrize("F, region", [
    pytest.param(zoo("ends_attracting", d=2, lam=0.7), (-2, 2, -2, 2), id="ends_attracting"),
    pytest.param(zoo("end_swap", d=-2), (-2, 2, -2, 2), id="end_swap"),
    pytest.param(_grid_copy(zoo("perturbed_power", d=2, eps=0.05)), (-2, 2, -1.5, 1.5),
                 id="grid_perturbed_power"),
])
def test_declared_exclusion_oracle_agreement(F, region):
    # the declared bounds of the other families and of a grid lift
    audit = IsolationAudit()
    isolate_fixed_points(F, region, 1e-2, audit=audit)
    assert audit.discarded, "expected some excluded boxes"
    for box, sampled_min, margin in audit.discarded:
        dense = displacement_oracle(F, box)
        assert dense > 0.0
        assert dense >= 0.999 * margin


def test_continuum_detected_for_end_swap_square():
    # the squared end-swap lift fixes whole vertical lines
    F2 = iterate(zoo("end_swap", d=-2), 2)
    region = (-2, 2, -1, 1)
    with pytest.raises(BoundaryFixedPoint):
        isolate_fixed_points(F2, region, 1e-2)
    assert diagnose_continuum(F2, region, 1e-2)
    # an isolated fixed point does not trip the same diagnosis
    assert not diagnose_continuum(zoo("power", d=2), region, 1e-2)


def _census(reports):
    """What a sweep claims, without box geometry: per period the count, the
    multiset of box residues, the realized residues, the continuum residues
    and the translate errors."""
    return [(r.count_lower_bound, sorted(r.box_residues), sorted(r.realized_residues),
             sorted((-k) % r.modulus for k in r.continuum_offsets), sorted(r.errors))
            for r in reports]


@pytest.mark.parametrize("name, params, n_max", [
    ("power", {"d": 2}, 3), ("power", {"d": 3}, 3), ("power", {"d": -2}, 3),
    ("end_swap", {"d": -2}, 2), ("ends_repelling", {"d": -2, "lam": 1.0}, 2),
], ids=["power2", "power3", "power-2", "end_swap", "ends_repelling"])
def test_sweep_does_not_depend_on_the_strip(name, params, n_max):
    # a period-n point has one lift in every unit strip, so strips at x0,
    # x0 + 1 and x0 + 0.37 make the same claims
    F = zoo(name, **params)
    claims = [_census(completeness_check(F, n_max, region=(x0, x0 + 1.0, -2.0, 2.0)))
              for x0 in (0.1, 1.1, 0.47)]
    assert claims[0] == claims[1] == claims[2]
    assert all(r.complete and not r.errors
               for r in completeness_check(F, n_max, region=(0.1, 1.1, -2.0, 2.0)))


def test_sweep_records_a_failed_translate():
    # this sheared displacement field is too badly conditioned for the
    # sampled exclusion bound near its zero on the default strip; the
    # failure is recorded per translate instead of aborting the sweep.
    # Its bound is the spectral norm of [[2, 10], [0, 2]].
    shear = make_lift(lambda p: np.stack(
        [2 * p[..., 0] + 10 * p[..., 1], 2 * p[..., 1]], axis=-1), 2,
        lipschitz=_norm_bound(4.0, 104.0, 20.0))
    (report,) = completeness_check(shear, 1, resolution=1e-2)
    assert 0 in report.errors
    assert not report.complete


_SEAM_FRACTIONS = st.tuples(st.integers(-40, 40), st.sampled_from([1, 2, 3, 7, 8, 9, 26]))


@given(d=st.sampled_from([2, 3, -2]), n_max=st.integers(1, 3),
       x0=st.one_of(st.floats(-3.0, 3.0), _SEAM_FRACTIONS.map(lambda f: f[0] / f[1])))
def test_each_residue_is_owned_once_on_any_strip(d, n_max, x0):
    # the fixed points of power(d)^n sit at x = j / (d^n - 1), so a strip
    # that starts at such a fraction puts a fixed point on its seam, which
    # the sweep first moves off it: each residue is still owned once
    for r in completeness_check(zoo("power", d=d), n_max, region=(x0, x0 + 1.0, -1.0, 1.0),
                                resolution=1e-2):
        assert r.count_lower_bound == r.modulus == abs(d ** r.period - 1)
        assert sorted(r.box_residues) == list(range(r.modulus))
        assert not r.errors and not r.continuum_offsets


def test_continuum_counts_once_per_residue(monkeypatch):
    # on the strip [0, 1) both k and k - 3 are admissible translates of
    # end_swap(-2)^2 for one residue: its vertical lines x = 0 and x = 1
    # are one circle of the annulus. (A sweep would move the seam off
    # them; the strip is swept as given here.)
    translates = []
    real = fixed_points.isolate_fixed_points
    monkeypatch.setattr(fixed_points, "isolate_fixed_points",
                        lambda F, region, res, lift_offset=0:
                        translates.append(lift_offset) or real(F, region, res, lift_offset))
    report = fixed_points._strip_report(iterate(zoo("end_swap", d=-2), 2), 2,
                                        (0.0, 1.0, -2.0, 2.0), 1e-3)
    assert {(-k) % 3 for k in translates} == {0, 1, 2} and len(translates) > 3
    assert sorted((-k) % 3 for k in report.continuum_offsets) == [0, 1, 2]
    assert report.count_lower_bound == 3 and report.complete and not report.errors


def test_seam_moves_off_a_fixed_point(monkeypatch):
    # power(3) fixes x = 1/2, where the strip [-1/2, 1/2) has its seams: the
    # sweep moves x0 halfway to the next fixed point (D_x = 2x, so by 1/4)
    strips = []
    real = fixed_points._strip_report
    monkeypatch.setattr(fixed_points, "_strip_report", lambda F, n, strip, res:
                        strips.append(strip) or real(F, n, strip, res))
    (report,) = completeness_check(zoo("power", d=3), 1, region=(-0.5, 0.5, -2.0, 2.0))
    assert strips == [(-0.25, 0.75, -2.0, 2.0)]
    assert sorted(report.box_residues) == [0, 1] and not report.errors
    monkeypatch.undo()
    # swept as given, the boxes of the point on both seams are errors: the
    # strip cannot tell which lift is its own
    report = fixed_points._strip_report(zoo("power", d=3), 1, (-0.5, 0.5, -2.0, 2.0), 1e-3)
    assert report.box_residues == (0,) and sorted(report.errors) == [-1, 1]
    assert all("meets a seam" in msg for msg in report.errors.values())
    # a box that meets a seam 3e-4 from its point (-1/2, 0) is placed by one
    # exclusion test of its halves: outside [x0, x0 + 1) when x0 = -0.4997,
    # inside when x0 + 1 = -0.4997; a box clear of the seams by its centre
    F, box = deck_translate(zoo("power", d=3), 1), (-0.5004, -0.4996, -4e-4, 4e-4)
    assert fixed_points._owned(F, box, -0.4997) is False
    assert fixed_points._owned(F, box, -1.4997) is True
    assert fixed_points._owned(F, box, -0.9) is True and fixed_points._owned(F, box, -0.4) is False


def test_translate_strip_holds_the_translates_fixed_point():
    # power(d) + (k, 0) fixes (-k / (d - 1), 0); -5/2 is where two strips meet
    for d, k in ((2, 10), (2, -7), (3, 4), (-2, 4), (3, 5)):
        x0, x1, y0, y1 = translate_strip(zoo("power", d=d), k)
        assert x0 <= -k / (d - 1) <= x1 and x1 - x0 == 1.0 and (y0, y1) == (-2.0, 2.0)


# -- residues ------------------------------------------------------------------

def test_power_three_residues_period_one():
    F = zoo("power", d=3)
    residues = {nielsen_residue(F, AnnulusPoint(th, 0.0), 1) for th in (0.0, 0.5)}
    assert residues == {0, 1}


def test_power_two_residues_period_two():
    # fixed points of the squared circle map solve 4x = x + m: theta in
    # {0, 1/3, 2/3} carrying m = 0, 1, 2
    F = zoo("power", d=2)
    residues = [nielsen_residue(F, AnnulusPoint(th, 0.0), 2) for th in (0.0, 1 / 3, 2 / 3)]
    assert sorted(residues) == [0, 1, 2]


def test_residue_independent_of_lift_choice():
    F = zoo("power", d=3)
    a = nielsen_residue(F, AnnulusPoint(0.5, 0.0), 1)
    b = nielsen_residue(F, AnnulusPoint(0.5, 0.0), 1, lift_x_offset=5)
    assert a == b == 1


def test_residue_errors(monkeypatch):
    F = zoo("power", d=2)
    with pytest.raises(NotPeriodic):
        nielsen_residue(F, AnnulusPoint(0.37, 0.2), 1)
    with monkeypatch.context() as m:
        m.setattr(fixed_points, "_RESIDUE_DISP_TOL", 10.0)
        with pytest.raises(NonIntegerTranslation):
            nielsen_residue(F, AnnulusPoint(0.37, 0.0), 1)
    with pytest.raises(ParamOutOfRange):
        nielsen_residue(make_lift(lambda p: np.asarray(p, float) + np.array([0.5, 0.0]), 1),
                        AnnulusPoint(0.0, 0.0), 1)


def test_residue_partition_matches_common_translate_oracle():
    # two periodic points share a residue iff one deck translate of the
    # iterated lift fixes lifts of both; checked exhaustively for the power
    # maps at periods 1 and 2 by solving for the translate and verifying it
    for d in (2, 3):
        F = zoo("power", d=d)
        for n in (1, 2):
            modulus = abs(d ** n - 1)
            thetas = [k / modulus for k in range(modulus)]
            residues = [nielsen_residue(F, AnnulusPoint(t, 0.0), n) for t in thetas]
            Fn = iterate(F, n)
            for i, ti in enumerate(thetas):
                for j, tj in enumerate(thetas):
                    mi = (d ** n - 1) * ti   # lift translation of theta_i
                    mj = (d ** n - 1) * tj
                    same = (residues[i] == residues[j])
                    # common translate k = -mi - (d^n - 1)*ji for any lift ji;
                    # it fixes a lift of theta_j iff (k + mj) is divisible
                    solvable = (round(mi) - round(mj)) % modulus == 0
                    assert same == solvable
                    if same:
                        k = -round(mi)
                        jj = (k + round(mj)) // (d ** n - 1) * -1  # solve (1-d^n) j = k + m
                        Fk = deck_translate(Fn, k)
                        pi = np.array([ti, 0.0])
                        pj = np.array([tj + jj, 0.0])
                        assert np.hypot(*(Fk(pi) - pi)) < 1e-9
                        assert np.hypot(*(Fk(pj) - pj)) < 1e-9


# -- completeness ----------------------------------------------------------------

def test_power_two_completeness_counts():
    reports = completeness_check(zoo("power", d=2), 3, resolution=1e-3)
    assert [r.count_lower_bound for r in reports] == [1, 3, 7]
    assert [r.modulus for r in reports] == [1, 3, 7]
    assert all(r.complete for r in reports)
    assert all(r.realized_residues == frozenset(range(r.modulus)) for r in reports)
    assert all(len(b.box) == 4 for r in reports for b in r.fixed_boxes)


def test_ends_attracting_complete():
    reports = completeness_check(zoo("ends_attracting", d=2, lam=1.0), 2, resolution=1e-3)
    assert all(r.complete for r in reports)
    assert [r.count_lower_bound for r in reports] == [1, 3]


def test_counterexample_certifies_nothing_on_invariant_set():
    C = counterexample_deg_minus1()
    for box in counterexample_tube_cover(rho=0.015, step=0.08, translates=(0,)):
        assert isolate_fixed_points(C, box, 1e-3) == []


def test_counterexample_loose_sweep_stays_off_invariant_set():
    # a crude bounding-box cover reaches into the blend collar, where the
    # extension may genuinely have fixed points; none may touch the set itself
    C = counterexample_deg_minus1()
    rho = 0.015
    for a, b, _, _ in counterexample_spine_segments((0,)):
        x0, x1 = sorted((a[0], b[0]))
        y0, y1 = sorted((a[1], b[1]))
        boxes = isolate_fixed_points(C, (x0 - rho, x1 + rho, y0 - rho, y1 + rho), 1e-3)
        for fb in boxes:
            corners = [(fb.box[i], fb.box[j]) for i in (0, 1) for j in (2, 3)]
            assert counterexample_spine_distance(corners).min() > 10 * fb.size


def test_completeness_rejects_low_degree():
    with pytest.raises(ParamOutOfRange):
        completeness_check(zoo("power", d=1), 2)


def test_end_swap_even_period_reports_continuum():
    reports = completeness_check(zoo("end_swap", d=-2), 2, resolution=1e-3)
    n2 = reports[1]
    # one continuum per residue class; the translates are those the strip admits
    assert sorted((-k) % 3 for k in n2.continuum_offsets) == [0, 1, 2]
    assert n2.complete
    assert n2.count_lower_bound == 3


def test_conjugacy_collapse():
    # replacing the base lift by its deck conjugate T1 F T1^{-1} = F + (1-d, 0)
    # leaves the realized residue set unchanged
    for d in (2, 3):
        F = zoo("power", d=d)
        conj = deck_translate(F, 1 - d)
        a = completeness_check(F, 2, resolution=1e-2)
        b = completeness_check(conj, 2, resolution=1e-2)
        for ra, rb in zip(a, b):
            assert ra.realized_residues == rb.realized_residues
            assert ra.count_lower_bound == rb.count_lower_bound


def test_isolation_failure_is_recorded_per_translate(monkeypatch):
    # an isolation ToolkitError is recorded for its translate; the other
    # translates still count
    real = fixed_points.isolate_fixed_points
    bad = []

    def isolate(F, region, resolution, **kw):
        if kw.get("lift_offset") in bad:
            raise ToolkitError("isolation failed")
        return real(F, region, resolution, **kw)

    monkeypatch.setattr(fixed_points, "isolate_fixed_points", isolate)
    bad[:] = [0]
    (report,) = completeness_check(zoo("power", d=2), 1)
    assert report.errors == {0: "ToolkitError: isolation failed"}
    assert not report.complete
    bad[:] = [1]
    n1, n2 = completeness_check(zoo("power", d=2), 2)
    assert n1.complete and not n1.errors
    assert n2.errors == {1: "ToolkitError: isolation failed"}
    assert not n2.complete and n2.count_lower_bound == 2
    assert n2.realized_residues == {0, 1}


def test_translation_identity_residues_match_polished_residues():
    # the sweep reads each box's residue off its translate, (-k) mod |d^n - 1|;
    # polishing the point and classifying it from scratch must agree on
    # every census box
    for d in (2, 3, -2):
        F = zoo("power", d=d)
        for r in completeness_check(F, 4, resolution=1e-3):
            assert r.complete and not r.errors
            Fn = iterate(F, r.period)
            for b, res in zip(r.fixed_boxes, r.box_residues):
                point = polish_fixed_point(deck_translate(Fn, b.lift_offset), b)
                assert res == (-b.lift_offset) % r.modulus
                assert nielsen_residue(F, AnnulusPoint(point[0], point[1]), r.period) == res


def test_sweep_is_independent_of_chunk_size(monkeypatch):
    F = zoo("power", d=2)
    outputs = set()
    for chunk in (1, fixed_points._CHUNK, 4096):
        monkeypatch.setattr(fixed_points, "_CHUNK", chunk)
        outputs.add(reports_to_json(completeness_check(F, 2, resolution=1e-2)))
    assert len(outputs) == 1


def test_polish_fixed_point_accuracy():
    F = deck_translate(zoo("power", d=2), 1)
    (box,) = isolate_fixed_points(F, (-2, 2, -2, 2), 1e-3)
    p = polish_fixed_point(F, box)
    np.testing.assert_allclose(p, [-1.0, 0.0], atol=1e-10)


def test_polish_non_finite_residual_is_typed():
    F = LiftMap(fn=lambda p: p * np.nan, degree=2)
    with pytest.raises(NonFiniteDisplacement):
        polish_fixed_point(F, CertifiedFixedBox((-0.01, 0.01, -0.01, 0.01), 1))


def test_residue_non_finite_image_is_typed():
    F = LiftMap(fn=lambda p: p * np.nan, degree=2)
    with pytest.raises(NonFiniteDisplacement):
        nielsen_residue(F, AnnulusPoint(0.3, 0.1), 1)


# -- growth rate ------------------------------------------------------------------

def test_growth_rate_values():
    reports = completeness_check(zoo("power", d=2), 3, resolution=1e-3)
    rate = growth_rate(reports)
    assert abs(rate - np.log(7) / 3) < 1e-12


def test_growth_rate_trivial_and_empty():
    reports = completeness_check(zoo("power", d=2), 1, resolution=1e-2)
    assert growth_rate(reports) == 0.0
    with pytest.raises(EmptyReport):
        growth_rate([])


def test_end_swap_growth_rate_bound():
    reports = completeness_check(zoo("end_swap", d=-2), 3, resolution=1e-3)
    assert reports[2].count_lower_bound >= 9
    assert growth_rate(reports) >= np.log(9) / 3


# -- serialization ------------------------------------------------------------------

def test_census_reports_are_byte_identical(monkeypatch):
    # the census benchmark's digest of the same reports (perfbench census),
    # and the search's work for them: exclusion steps and the boxes they
    # test, leaf degrees, isolations and strip enclosures
    work = dict.fromkeys(("steps", "boxes", "degrees", "isolations", "enclosures"), 0)

    def counted(name, key):
        inner = getattr(fixed_points, name)

        def call(*args, **kwargs):
            work[key] += 1
            if key == "steps":
                work["boxes"] += len(args[1])
            return inner(*args, **kwargs)

        monkeypatch.setattr(fixed_points, name, call)

    for name, key in (("_exclusion_margins", "steps"), ("_boundary_degree", "degrees"),
                      ("isolate_fixed_points", "isolations"),
                      ("_x_displacement_range", "enclosures")):
        counted(name, key)
    text = "\n".join(reports_to_json(completeness_check(zoo("power", d=d), 4))
                     for d in (2, 3, -2))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1c57cbae9142ee36e2ecfe6ca9c373b50ebb63d24bfa4f105b37aa117124f074")
    assert work == {"steps": 2421, "boxes": 17614, "degrees": 266, "isolations": 178,
                    "enclosures": 28}


def _benchmark_workloads():
    """perfbench/workloads.py, imported from its file without changing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload, digest", [
    ("families", "d67a80831526fe6dfa2628cdb7db9d009e4515980b1370adebd570e6aa4c4c5e"),
    ("index", "564726befa429e054063cecb1ce9130075000640914c4f2c0d1f1a7432e1a87d"),
], ids=["families", "index"])
def test_benchmark_reports_are_byte_identical(workload, digest):
    # one pass of the benchmark workload; the digests recorded in BENCH_13.json
    wl = _benchmark_workloads()
    inputs, setup, run_pass = wl.WORKLOADS[workload]
    res = wl.PassResult()
    run_pass(setup(inputs(1)), res)
    assert res.digest() == digest


def test_reports_serialize():
    reports = completeness_check(zoo("power", d=2), 2, resolution=1e-2)
    payload = json.loads(reports_to_json(reports))
    assert payload[1]["modulus"] == 3
    assert payload[1]["complete"] is True
    rows = boxes_to_csv_rows(reports)
    assert rows[0] == "n,k,x_lo,x_hi,y_lo,y_hi,degree,residue"
    assert len(rows) == 1 + sum(len(r.fixed_boxes) for r in reports)
    n, k, *coords, deg, res = rows[1].split(",")
    assert (n, k) == ("1", "0")
    assert int(deg) != 0
