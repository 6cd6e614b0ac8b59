import ast
import hashlib
import importlib.util
import json
import math
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from annulift import curves, fixed_points
from annulift.annulus_maps import (
    AnnulusPoint,
    GridSpec,
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
    FixedContinuum,
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
from annulift.proofs import enclosure


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


@pytest.mark.parametrize("region, message", [
    ((0.0, 1.0, 1.0, -1.0), "rectangle needs x1 > x0 and y1 > y0"),
    ((0.0, 1.0, np.nan, 1.0), "rectangle needs x1 > x0 and y1 > y0"),
    ((0.0, 1.0, -1.7e308, 1.7e308),
     "rectangle side lengths x1 - x0 and y1 - y0 must be finite"),
], ids=["reversed", "nan", "overflowing"])
def test_a_bad_region_is_refused_without_building_a_curve(monkeypatch, region, message):
    # isolation and sweeps check their region as rectangle() does, with its
    # messages, before any attempt and without building the rectangle: a
    # good region reaches the search with no curve built
    class Searched(Exception):
        pass

    def built(*args):
        raise AssertionError("a curve was built")

    def search(*args):
        raise Searched

    monkeypatch.setattr(curves.ClosedCurve, "__post_init__", built)
    monkeypatch.setattr(fixed_points, "_isolate_once", search)
    monkeypatch.setattr(fixed_points, "_strip_cells", search)
    F = zoo("power", d=2)
    for bad, error in ((region, ValueError), ((0.0, 1.0, -1.0, 1.0), Searched)):
        for call in (lambda: isolate_fixed_points(F, bad, 1e-2),
                     lambda: completeness_check(F, 1, region=bad)):
            with pytest.raises(error) as exc:
                call()
            if error is ValueError:
                assert str(exc.value) == message
    with pytest.raises(ValueError, match=f"^{message}$"):
        curves.rectangle(*region)


def test_budget_exceeded(monkeypatch):
    monkeypatch.setattr(fixed_points, "_SUBDIVISION_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        isolate_fixed_points(zoo("power", d=2), (-2, 2, -2, 2), 1e-6)


def _first_split_point(region):
    """Where the first split lines of attempt 1 cross: the top-right corner
    of the bottom-left cell of its jittered region, as the search lays it."""
    x0, x1, y0, y1 = fixed_points._jittered(region, 1)
    return np.array([x0 + (x1 - x0) / 3, y0 + (y1 - y0) / 3])


def _onto_first_split(point, region):
    """The region shifted so that attempt 1's first split lines cross at the
    point (to rounding; the jitter does not depend on the region's place)."""
    sx, sy = np.asarray(point, dtype=float) - _first_split_point(region)
    return (region[0] + sx, region[1] + sx, region[2] + sy, region[3] + sy)


def test_budget_is_per_attempt_with_or_without_audit(monkeypatch):
    # the fixed point of (2x - a, 2y - b) is (a, b), where attempt 1's first
    # split lines cross: attempt 1 meets it on a leaf corner after 138
    # tested boxes and attempt 2 certifies it after 143. A cap of 143 holds
    # for each attempt, and an audit that sums the boxes over both attempts
    # does not trip it
    region = (-2.0, 2.0, -2.0, 2.0)
    corner = _first_split_point(region)
    F = make_lift(lambda p: 2.0 * np.asarray(p, float) - corner, 2, lipschitz=2)
    monkeypatch.setattr(fixed_points, "_SUBDIVISION_BUDGET", 143)
    audit = IsolationAudit()
    regions = _record_attempts(monkeypatch)
    boxes = isolate_fixed_points(F, region, 1e-4, audit=audit)
    assert len(regions) == 2 and audit.unresolved == []
    assert len(boxes) == 1 and boxes[0].contains(corner)
    assert boxes == isolate_fixed_points(F, region, 1e-4)
    assert audit.boxes_processed == 138 + 143
    monkeypatch.setattr(fixed_points, "_SUBDIVISION_BUDGET", 142)
    with pytest.raises(BudgetExceeded):
        isolate_fixed_points(F, region, 1e-4)


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
    # two attempts, each mopping up degree-0 leaves (a mopped-up leaf used to
    # be tested again before it was split): WOBBLE's fixed point (0, 0.3)
    # sits where attempt 1's first split lines cross. A step lays out the
    # whole chunk it tested, discarded boxes too, so its layout (leaf true)
    # sees each tested box once, in order; a mop-up lays out a leaf that is
    # not tested again (leaf false)
    tested, laid_out, mop_ups = [], [], []
    real_once, real_margins = fixed_points._isolate_once, fixed_points._exclusion_margins
    real_layout = fixed_points._layout

    def once(*args, **kwargs):
        tested.append([])
        laid_out.append([])
        mop_ups.append(0)
        return real_once(*args, **kwargs)

    def margins(F, boxes):
        tested[-1].extend(map(tuple, np.asarray(boxes).tolist()))
        return real_margins(F, boxes)

    def layout(boxes, size, grid, masks, leaf):
        if leaf is False:
            mop_ups[-1] += 1
        else:
            assert leaf is True and len(boxes) == len(size) == len(grid) == len(masks)
            laid_out[-1].extend(map(tuple, boxes[:, :4].tolist()))
        return real_layout(boxes, size, grid, masks, leaf)

    monkeypatch.setattr(fixed_points, "_isolate_once", once)
    monkeypatch.setattr(fixed_points, "_exclusion_margins", margins)
    monkeypatch.setattr(fixed_points, "_layout", layout)
    region = _onto_first_split((0.0, 0.3), (-0.3, 0.6, -0.3, 0.6))
    assert len(isolate_fixed_points(WOBBLE, region, 1e-2)) == 2
    assert len(tested) == 2 and all(mop_ups)
    for boxes, seen in zip(tested, laid_out):
        assert len(set(boxes)) == len(boxes)
        assert seen == boxes


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


def test_continuum_raises_after_one_attempt(monkeypatch):
    # end_swap(-2)^2 fixes whole vertical lines: the first attempt meets one
    # on a subdivision line, the diagnosis, asked about the box where the
    # attempt stopped, says continuum, and no other attempt runs
    region, resolution = (-2, 2, -1, 1), 1e-2
    regions = _record_attempts(monkeypatch)
    asked = []
    real = fixed_points.diagnose_continuum
    monkeypatch.setattr(fixed_points, "diagnose_continuum",
                        lambda F, box, res: asked.append(box) or real(F, box, res))
    with pytest.raises(FixedContinuum):
        isolate_fixed_points(iterate(zoo("end_swap", d=-2), 2), region, resolution)
    assert regions == [fixed_points._jittered(region, 1)]
    assert _contains(regions[0], region)
    # a leaf or a mop-up fragment of attempt 1, on the fixed line x = 0
    (box,) = asked
    x0, x1, y0, y1 = box
    rx0, rx1, ry0, ry1 = regions[0]
    assert max(x1 - x0, y1 - y0) <= resolution
    assert rx0 <= x0 < x1 <= rx1 and ry0 <= y0 < y1 <= ry1
    assert x0 - 1e-10 <= 0.0 <= x1 + 1e-10


@pytest.mark.parametrize("d, n, k", [(2, 1, 0), (3, 2, 4), (-2, 2, 1), (2, 3, 3)],
                         ids=["power(2)^1+0", "power(3)^2+4", "power(-2)^2+1", "power(2)^3+3"])
def test_fixed_point_on_the_first_split_lines_is_no_continuum(monkeypatch, d, n, k):
    # power(d)^n + (k, 0) fixes (-k / (d^n - 1), 0) alone; the region is
    # shifted so that attempt 1's first split lines cross there. Attempt 1
    # meets it, the diagnosis says no, and attempt 2 certifies it
    point = (-k / (d ** n - 1), 0.0)
    region = _onto_first_split(point, (-0.3, 0.6, -0.3, 0.6))
    regions = _record_attempts(monkeypatch)
    verdicts = []
    real = fixed_points.diagnose_continuum
    monkeypatch.setattr(fixed_points, "diagnose_continuum",
                        lambda *args: verdicts.append(real(*args)) or verdicts[-1])
    (box,) = isolate_fixed_points(deck_translate(iterate(zoo("power", d=d), n), k), region, 1e-3)
    assert box.contains(point) and len(regions) == 2 and verdicts == [False]


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


def _reference_cells(box):
    """The 3 x 3 cells of a box, cell 3 i + j in row i and column j: with
    h = (hi - lo) / 3 an axis, edges lo + h k for k = 0, 1, 2, then hi."""
    x0, x1, y0, y1 = box
    xs = [x0 + (x1 - x0) / 3 * k for k in range(3)] + [x1]
    ys = [y0 + (y1 - y0) / 3 * k for k in range(3)] + [y1]
    return [(xs[j], xs[j + 1], ys[i], ys[i + 1]) for i in range(3) for j in range(3)]


def _reference_children(box, kept):
    """(children, dropped cell numbers) of a kept box, children bottom-left
    to top-right: its kept thirds across x when its height is less than half
    its width, across y in the mirror case (a third is kept with any of its
    cells), and its kept cells otherwise."""
    x0, x1, y0, y1 = box
    cells = _reference_cells(box)
    if 2.0 * (y1 - y0) < x1 - x0:
        groups = [([j, j + 3, j + 6], (cells[j][0], cells[j][1], y0, y1)) for j in range(3)]
    elif 2.0 * (x1 - x0) < y1 - y0:
        groups = [([3 * i, 3 * i + 1, 3 * i + 2], (x0, x1, cells[3 * i][2], cells[3 * i][3]))
                  for i in range(3)]
    else:
        groups = [([c], cells[c]) for c in range(9)]
    children, dropped = [], []
    for members, child in groups:
        if any(kept[c] for c in members):
            children.append(child)
        else:
            dropped.extend(members)
    return children, dropped


def _reference_isolate_once(F, region, resolution, audit, lift_offset, stop=True):
    """_isolate_once one box at a time, in plain Python: the top box is
    popped; an untested one is tested alone and goes when each of its nine
    cells has a positive margin, stays whole and flagged by its kept cells at
    leaf scale, and otherwise becomes its kept children (_reference_children),
    the top-right pushed last; a flagged leaf gets its boundary degree, and
    at degree 0 its kept children go back as mop-up fragments. With stop
    false, a leaf that would end the attempt is skipped instead, and the
    search goes on through the whole tree."""
    floor = resolution / 256.0
    certified = []
    processed = 0
    stack = [(tuple(region), resolution, None)]   # (box, scale, kept cells when tested)
    while stack:
        box, scale, kept = stack.pop()
        if kept is not None:
            if scale != resolution:
                audit.unresolved.append(box)
                if not stop:
                    continue
                raise fixed_points._BoundaryHit(box)
            try:
                deg = fixed_points._boundary_degree(F, box)
            except fixed_points.FixedPointOnCurve as exc:
                if not stop:
                    continue
                raise fixed_points._BoundaryHit(box) from exc
            if deg != 0:
                certified.append(CertifiedFixedBox(box, deg, lift_offset))
                continue
            stack.extend((child, floor, None) for child in _reference_children(box, kept)[0])
            continue
        processed += 1
        if processed > fixed_points._SUBDIVISION_BUDGET:
            raise BudgetExceeded("budget")
        (margins,), (norms,), *_ = (a.tolist() for a in fixed_points._exclusion_margins(F, [box]))
        audit.boxes_processed += 1
        kept = [not m > 0 for m in margins]
        if not any(kept):
            if scale == resolution:
                audit.discarded.append((box, min(norms), min(margins)))
            continue
        if max(box[1] - box[0], box[3] - box[2]) <= scale:
            stack.append((box, scale, kept))
            continue
        children, dropped = _reference_children(box, kept)
        if scale == resolution:
            cells = _reference_cells(box)
            audit.discarded.extend((cells[c], norms[c], margins[c]) for c in dropped)
        stack.extend((child, scale, None) for child in children)
    return sorted(certified, key=lambda c: c.box)


def _wobble(p):
    """Degree 1, fixed points at (k/2, 0.3) for every integer k; Jacobian
    diag(1 + 0.4 pi cos(2 pi x), 0.5)."""
    p = np.asarray(p, dtype=float)
    return np.stack([p[..., 0] + 0.2 * np.sin(2 * np.pi * p[..., 0]),
                     0.5 * p[..., 1] + 0.15], axis=-1)


WOBBLE = make_lift(_wobble, 1, lipschitz=1.0 + 0.4 * np.pi)


@pytest.mark.parametrize("F, region", [
    (iterate(zoo("end_swap", d=-2), 2), (-2, 2, -1, 1)),     # continuum: attempt 1 fails
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
    (zoo("power", d=2), (-1, 2, -1, 2), 1e-3),       # fixed point on subdivision lines
    (WOBBLE, (-1.23, 1.91, -1.0, 1.0), 1e-2),
    (zoo("perturbed_power", d=2, eps=0.05), (-0.77, 0.61, -0.45, 0.52), 1e-3),
    (RING, (-0.31, 0.29, -0.3, 0.32), 3e-2),   # mop-up fragment survives
    (zoo("power", d=2), (-0.5, 0.5, -2.0, 2.0), 1e-3),      # 1 x 4: y-only splits first
    (deck_translate(iterate(zoo("power", d=3), 3), 8), (-14.0, 14.0, -2.0, 2.0), 1e-3),  # x-only
])
@pytest.mark.parametrize("chunk", [7, fixed_points._CHUNK])
def test_isolate_once_matches_reference(monkeypatch, F, region, resolution, chunk):
    # same certified boxes, same leaves given boundary degrees in the same
    # order, same mop-up; the chunked search tests boxes ahead of the
    # one-box-at-a-time order, so it tests and discards the same boxes when
    # the attempt completes, and when it stops on a hit (at the same box), a
    # superset of them within what the one-box search tests and discards on
    # the whole tree (the surplus is not confined to the last chunk: an early
    # chunk holds boxes below the subtree that meets the hit)
    monkeypatch.setattr(fixed_points, "_CHUNK", chunk)
    degree, margins = fixed_points._boundary_degree, fixed_points._exclusion_margins
    log = {}
    monkeypatch.setattr(fixed_points, "_boundary_degree",
                        lambda F, box: log["degrees"].append(box) or degree(F, box))
    monkeypatch.setattr(fixed_points, "_exclusion_margins",
                        lambda F, boxes: log["tested"].extend(map(tuple, np.asarray(boxes).tolist()))
                        or margins(F, boxes))
    runs = []
    for kernel in (fixed_points._isolate_once, _reference_isolate_once):
        log.update(degrees=[], tested=[])
        audit = IsolationAudit()
        try:
            outcome = kernel(F, region, resolution, audit, 3)
        except fixed_points._BoundaryHit as hit:
            outcome = ("boundary", hit.box)
        runs.append((outcome, log["degrees"], Counter(log["tested"]), audit))
    (got, got_deg, got_tested, got_audit), (ref, ref_deg, ref_tested, ref_audit) = runs
    assert got == ref and got_deg == ref_deg and got_deg
    assert got_audit.unresolved == ref_audit.unresolved
    assert got_audit.boxes_processed == got_tested.total()
    assert ref_audit.boxes_processed == ref_tested.total()
    got_discarded, ref_discarded = Counter(got_audit.discarded), Counter(ref_audit.discarded)
    if isinstance(got, tuple):
        log["tested"] = []
        whole = IsolationAudit()
        _reference_isolate_once(F, region, resolution, whole, 3, stop=False)
        whole_tested, whole_discarded = Counter(log["tested"]), Counter(whole.discarded)
        assert ref_tested <= got_tested <= whole_tested
        assert ref_discarded <= got_discarded <= whole_discarded
    else:
        assert got_tested == ref_tested and got_discarded == ref_discarded


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


def _scalar_declared_margins(F, box):
    """The one-box exclusion formula under a declared bound L on F, cell by
    cell: the displacement at the centre of each cell of an m x m split of
    the box, row by row from the bottom, minus (L + 1) times half a cell's
    diagonal; (margins, norms)."""
    x0, x1, y0, y1 = box
    m = fixed_points._EXCLUSION_GRID
    hx, hy = (x1 - x0) / m, (y1 - y0) / m
    pts = np.array([(x0 + hx * (j + 0.5), y0 + hy * (i + 0.5))
                    for i in range(m) for j in range(m)])
    norms = np.hypot(*(np.asarray(F(pts)) - pts).T)
    reach = 0.5 * float(np.hypot(hx, hy))
    return norms - (F.lipschitz + 1.0) * reach, norms


_UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@given(corner=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
       sides=st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 1e6)),
       at=st.lists(st.tuples(_UNIT, _UNIT), min_size=1, max_size=8))
def test_every_point_of_a_box_is_within_reach_of_a_sample(corner, sides, at):
    # the geometric half of the exclusion proof, on the kernel's own samples
    # and the cells the search lays out: every point of each of the 9 cells,
    # corners and edges too, lies within the reach of that cell's own
    # centre, so every point of the box lies within reach of a sample; the
    # slack is the rounding of the coordinates, which the proof leaves to
    # exact arithmetic
    lo = np.array(corner)
    hi = lo + np.array(sides)
    box = np.array([[lo[0], hi[0], lo[1], hi[1]]])
    with np.errstate(under="ignore"):   # subnormal sides
        (grid,), samples, (half,), _ = fixed_points._grid(box)
        reach = float(np.hypot(*half))   # the enclosure radius is (L + 1) times this
        assert samples.shape == (fixed_points._EXCLUSION_GRID ** 2, 2) == (9, 2)
        cells = grid.ravel()[fixed_points._LAYOUT[0, :, :4]]
        assert cells[0, ::2].tolist() == box[0, ::2].tolist()
        assert cells[-1, 1::2].tolist() == box[0, 1::2].tolist()
        rounding = float(np.spacing(np.maximum(abs(lo), abs(hi))).sum())
        for u in at:
            p = np.clip(lo + np.array(u) * (hi - lo), lo, hi)
            assert np.hypot(*(samples - p).T).min() <= reach * (1.0 + 1e-12) + rounding
            q = cells[:, 0::2] + np.array(u) * (cells[:, 1::2] - cells[:, 0::2])
            q = np.clip(q, cells[:, 0::2], cells[:, 1::2])
            assert (np.hypot(*(samples - q).T) <= reach * (1.0 + 1e-12) + rounding).all()


_SIDE = st.one_of(st.floats(0.0, 1e6), st.floats(0.0, 1e-300),
                 st.integers(0, 2 ** 20).map(lambda k: k * 5e-324))
_CORNER = st.one_of(st.floats(-1e6, 1e6), st.floats(-1e-300, 1e-300))


@given(corner=st.lists(_CORNER, min_size=2, max_size=2),
       sides=st.lists(_SIDE, min_size=2, max_size=2))
def test_grid_ticks_are_the_cell_centres_and_edges(corner, sides):
    # one tick grid per box serves both the exclusion samples and the layout
    # of the kept cells: bit for bit, its odd ticks are lo + h * (i + 0.5)
    # and its even ticks lo + h * i, h = (hi - lo) / 3, with the last edge hi;
    # the sides it returns for the layout are hi - lo
    lo = np.array(corner)
    hi = lo + np.array(sides)
    with np.errstate(under="ignore"):   # subnormal sides
        (grid,), centres, (half,), (size,) = fixed_points._grid(
            np.array([[lo[0], hi[0], lo[1], hi[1]]]))
        assert size.tobytes() == (hi - lo).tobytes()
        h = (hi - lo) / 3.0
        for axis in (0, 1):
            want_centres = [lo[axis] + h[axis] * (i + 0.5) for i in range(3)]
            want_edges = [lo[axis] + h[axis] * i for i in range(3)] + [hi[axis]]
            assert grid[axis, 1::2].tobytes() == np.array(want_centres).tobytes()
            assert grid[axis, 0::2].tobytes() == np.array(want_edges).tobytes()
        assert half.tobytes() == (0.5 * h).tobytes()
    # cell 3 i + j is sampled at x centre j and y centre i
    assert centres.tobytes() == np.array([[grid[0, 2 * j + 1], grid[1, 2 * i + 1]]
                                          for i in range(3) for j in range(3)]).tobytes()


def _reference_layout(boxes, grid, masks, leaf):
    """_layout one box at a time, in plain Python, from the _LAYOUT and
    _USED tables: each box's kind from its sides (1 when the height is less
    than half the width, 2 in the mirror case, 3 for a leaf at most its
    scale when leaf is true), and one row per slot _USED holds, its columns
    _LAYOUT picks from the extended row (flattened grid, scale, 0, mask)."""
    rows, kinds = [], []
    for box, ticks, mask in zip(boxes.tolist(), grid.reshape(len(boxes), 14).tolist(),
                                masks.tolist()):
        x0, x1, y0, y1, scale, _ = box
        w, h = x1 - x0, y1 - y0
        kind = 1 if 2.0 * h < w else 2 if 2.0 * w < h else 0
        if leaf and max(w, h) <= scale:
            kind = 3
        kinds.append(kind)
        ext = ticks + [scale, 0.0, float(mask)]
        rows.extend([ext[c] for c in fixed_points._LAYOUT[kind, slot]]
                    for slot in range(9) if fixed_points._USED[kind, mask, slot])
    return np.array(rows, dtype=float).reshape(-1, 6), kinds


# dyadic corners and sides, so that hi - lo is exact and an aspect of exactly
# 2 or 1/2, or a side exactly at scale, is what the layout sees
_DYADIC = st.integers(-2 ** 20, 2 ** 20).map(lambda k: k * 2.0 ** -10)
_LAYOUT_BOX = st.tuples(
    _DYADIC, _DYADIC, st.integers(1, 2 ** 20).map(lambda k: k * 2.0 ** -20),
    st.one_of(st.sampled_from([0.5, 2.0, 1.0, 0.25, 4.0]), st.floats(1e-3, 1e3)),
    st.sampled_from(["at", "below", "above", "small", "large"]),
    st.integers(0, 511))


@settings(derandomize=True)
@given(specs=st.lists(_LAYOUT_BOX, min_size=1, max_size=6), leaf=st.booleans())
def test_layout_matches_per_box_reference(specs, leaf):
    # the whole tested chunk is laid out at once, a box with an empty mask
    # holding no slot: bit for bit the per-box rows, and the same kinds
    boxes, masks = [], []
    for x0, y0, w, aspect, scale_at, mask in specs:
        h = w * aspect
        side = max(w, h)
        scale = {"at": side, "below": np.nextafter(side, 0.0),
                 "above": np.nextafter(side, np.inf), "small": side / 3.0,
                 "large": 4.0 * side}[scale_at]
        boxes.append([x0, x0 + w, y0, y0 + h, scale, 0.0])
        masks.append(mask)
    boxes, masks = np.array(boxes), np.array(masks)
    grid, _, _, size = fixed_points._grid(boxes[:, :4])
    rows, kinds = fixed_points._layout(boxes, size, grid, masks, leaf)
    want_rows, want_kinds = _reference_layout(boxes, grid, masks, leaf)
    assert rows.shape == want_rows.shape and rows.tobytes() == want_rows.tobytes()
    assert kinds.tolist() == want_kinds


def test_layout_reference_cases_reach_every_kind():
    # the cases the property draws from: thirds across x and y at aspect
    # beyond 2, cells at aspect exactly 2, a leaf exactly at its scale, and
    # no row for an empty mask
    boxes = np.array([[0.0, 1.0, 0.0, 0.25, 0.1, 0.0], [0.0, 0.25, 0.0, 1.0, 0.1, 0.0],
                      [0.0, 1.0, 0.0, 0.5, 0.1, 0.0], [0.0, 0.5, 0.0, 1.0, 1.0, 0.0],
                      [0.0, 0.5, 0.0, 1.0, 1.0, 0.0]])
    masks = np.array([511, 511, 511, 7, 0])
    grid, _, _, size = fixed_points._grid(boxes[:, :4])
    for leaf, want_kinds, want_count in ((True, [1, 2, 0, 3, 3], 3 + 3 + 9 + 1),
                                         (False, [1, 2, 0, 0, 0], 3 + 3 + 9 + 3)):
        rows, kinds = fixed_points._layout(boxes, size, grid, masks, leaf)
        assert kinds.tolist() == want_kinds and len(rows) == want_count
        want_rows, want_kinds = _reference_layout(boxes, grid, masks, leaf)
        assert rows.tobytes() == want_rows.tobytes() and kinds.tolist() == want_kinds


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
    # degenerate boxes too: bit for bit the one-box formula, cell by cell
    boxes = _random_boxes()
    margins, norms, *_ = _exclusion_margins(F, boxes)
    ref = np.array([_scalar_declared_margins(F, tuple(b)) for b in boxes.tolist()])
    assert margins.shape == norms.shape == (len(boxes), 9)
    assert margins.tobytes() == ref[:, 0].tobytes()
    assert norms.tobytes() == ref[:, 1].tobytes()


def test_exclusion_margins_raise_on_a_nan_sample():
    # some of the boxes sample the NaN disk of _holes: no margin is a bound
    with pytest.raises(NonFiniteDisplacement,
                       match=r"non-finite displacement in the cell centred at \("):
        _exclusion_margins(LiftMap(fn=_holes, degree=2, lipschitz=2.0), _random_boxes())


_ENCLOSED = {
    "power(3)^2": iterate(zoo("power", d=3), 2),
    "perturbed_power": zoo("perturbed_power", d=2, eps=0.07),
    "ends_attracting": zoo("ends_attracting", d=-2, lam=0.7),
    "ends_repelling": zoo("ends_repelling", d=3, lam=0.834),
    "end_swap": zoo("end_swap", d=-2),
    "grid": _grid_copy(zoo("perturbed_power", d=-2, eps=0.05), nx=64, ny=65),
    "translate": deck_translate(iterate(zoo("ends_repelling", d=-2, lam=0.8), 2), -3),
}
_SIGNED = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0))


@pytest.mark.parametrize("name", sorted(_ENCLOSED))
@settings(derandomize=True)
@given(centre=st.tuples(st.floats(-3.0, 3.0), st.floats(-2.5, 2.5)),
       half=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5)),
       strip=st.tuples(st.floats(-3.0, 3.0), st.floats(-2.5, 2.0),
                       st.floats(1e-3, 1.0), st.floats(1e-3, 2.0)),
       at=st.lists(st.tuples(_SIGNED, _SIGNED), min_size=1, max_size=16))
def test_enclosures_hold_at_every_point(name, centre, half, strip, at):
    # the trusted statement itself, on maps with their declared bounds: every
    # point p of a cell c +- w has |D(p) - D(c)| <= r, and D_x at every point
    # of a region lies in the _x_range of its _strip_cells; the slack is the rounding
    # of D, which the proof leaves to exact arithmetic
    F = _ENCLOSED[name]
    at = np.array(at)
    with np.errstate(under="ignore"):   # subnormal half-widths
        c, w = np.array([centre]), np.array([half])
        (d,), (norm,), (r,) = enclosure(F, c, w)
        assert norm == np.hypot(*d)
        p = c + at * w
        image = F(p)
        rounding = 8.0 * float(np.spacing(np.abs(np.concatenate([image, p, c])).max()))
        assert (np.hypot(*(image - p - d).T) <= r * (1.0 + 1e-12) + rounding).all()
        x0, y0, width, height = strip
        lo, hi = fixed_points._x_range(
            fixed_points._strip_cells(F, (x0, x0 + width, y0, y0 + height)))
        q = np.array([x0, y0]) + 0.5 * (at + 1.0) * np.array([width, height])
        dx = (F(q) - q)[:, 0]
        rounding = 8.0 * float(np.spacing(np.abs(np.concatenate([F(q), q])).max()))
        assert (lo - rounding <= dx).all() and (dx <= hi + rounding).all()


def test_only_proofs_reads_the_declared_bound():
    # every proof goes through proofs.enclosure: no other module reads a
    # map's declared bound, except annulus_maps, which declares and composes it
    src = Path(fixed_points.__file__).parent
    readers = {path.name for path in src.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "lipschitz"}
    assert readers == {"proofs.py", "annulus_maps.py"}


def _nan_band(p):
    """power(2), its y-image NaN on the band 0.1 < x < 0.2: D_x is finite
    everywhere, D_y is not."""
    p = np.asarray(p, dtype=float)
    out = 2.0 * p
    out[..., 1] = np.where((p[..., 0] > 0.1) & (p[..., 0] < 0.2), np.nan, out[..., 1])
    return out


def test_strip_enclosure_raises_on_a_nan_y_displacement():
    # one rule for non-finite values: the strip enclosure refuses a NaN in
    # either component, as exclusion does, instead of passing the strip on
    # to fail once per translate
    F = LiftMap(fn=_nan_band, degree=2, lipschitz=2.0)
    with pytest.raises(NonFiniteDisplacement, match="in the cell centred at"):
        completeness_check(F, 1)


def _bad_right_of(a, bad):
    """power(2), its displacement set to the pair ``bad`` (NaN or inf
    components) at every point with x >= a."""
    def fn(p):
        p = np.asarray(p, dtype=float)
        out = 2.0 * p
        right = p[..., 0] >= a
        out[right] = p[right] + bad
        return out
    return LiftMap(fn=fn, degree=2, lipschitz=2.0)


@pytest.mark.parametrize("bad", [(np.nan, 0.0), (0.0, np.nan), (np.nan, np.inf)],
                         ids=["nan-x", "nan-y", "nan-inf"])
def test_enclosures_name_the_first_non_finite_cell(monkeypatch, bad):
    # a NaN in D_x alone or D_y alone, and a (NaN, inf) pair, whose norm is
    # inf, each fail the enclosure, which names its first bad cell, in the
    # exclusion test and in the strip enclosure alike
    a = 0.37
    F = _bad_right_of(a, bad)
    asked = []
    monkeypatch.setattr(fixed_points, "enclosure", lambda G, centres, half:
                        asked.append(centres) or enclosure(G, centres, half))
    boxes = np.array([[-1.0, 0.0, -1.0, 1.0], [0.0, 1.0, -1.0, 1.0], [-1.0, 1.0, 0.0, 2.0]])
    for prove in (lambda: _exclusion_margins(F, boxes),
                  lambda: fixed_points._strip_cells(F, (0.0, 1.0, -1.0, 1.0))):
        with pytest.raises(NonFiniteDisplacement) as exc:
            prove()
        centres = asked[-1]
        first = centres[np.argmax(centres[:, 0] >= a)]
        assert 0 < np.argmax(centres[:, 0] >= a) < len(centres) - 1
        assert str(exc.value).endswith(f"centred at {tuple(first.tolist())}")


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


def test_a_close_pair_on_the_first_split_lines_is_no_continuum(monkeypatch):
    # the hat's fixed points are 0.004/3 apart, the left one where attempt
    # 1's first split lines cross. The diagnosis circle about it crosses the
    # hat, where (F - id)_x vanishes and (F - id)_y = -y/2 is small, and
    # dips low on both sides; but both dips descend to the two fixed points,
    # and no third zero, so the diagnosis says no, and a later attempt
    # certifies both points. At 0.004/12 the circle passes through the other
    # fixed point, at 5e-4 it holds it, at 1e-3 it is within 2 * resolution
    point = (0.3 - 0.004 / 6, 0.0)
    region = _onto_first_split(point, (-0.3, 0.6, -0.3, 0.6))
    F = make_lift(_hat, 1, lipschitz=HAT_LIPSCHITZ)
    real = fixed_points.diagnose_continuum
    for resolution in (1e-3, 5e-4, 0.004 / 12):
        regions = _record_attempts(monkeypatch)
        verdicts = []
        monkeypatch.setattr(fixed_points, "diagnose_continuum",
                            lambda *args: verdicts.append(real(*args)) or verdicts[-1])
        boxes = isolate_fixed_points(F, region, resolution)
        assert sorted(b.boundary_degree for b in boxes) == [-1, 1]
        assert sum(b.contains(point) for b in boxes) == 1
        assert len(regions) > 1 and verdicts == [False]
        monkeypatch.undo()


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
    with pytest.raises(FixedContinuum):
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


_EDGE_FRACTIONS = st.tuples(st.integers(-40, 40), st.sampled_from([1, 2, 3, 7, 8, 9, 26]))


def _reference_strip_report(F_iter, period, strip, resolution):
    """The sweep of one period that counts each periodic point by its one
    lift in [x0, x0 + 1): x0 first moved off the fixed points near the
    strip's seam lines x = x0 and x0 + 1, every admissible translate
    searched on the whole strip, whatever the enclosure says of where its
    fixed points can be, and each box kept when its point lies in the strip.

    A box that meets a seam is at most ``resolution`` wide, so its point lies
    in the band x0 +- resolution, where D_x = -k; x0 moves by what would put
    the middle of the band's D_x enclosure halfway between integers, were D_x
    linear, until that enclosure holds no integer, at most _ATTEMPTS times,
    and once only when it is 1 or more wide. A box clear of both seams is
    placed by its centre, one that meets a seam by one exclusion test of its
    two halves, and one that test cannot place is its translate's error."""
    modulus = abs(F_iter.degree - 1)
    x0, _, y0, y1 = strip
    for _ in range(fixed_points._ATTEMPTS):
        lo, hi = fixed_points._x_range(
            fixed_points._strip_cells(F_iter, (x0 - resolution, x0 + resolution, y0, y1)))
        mid = 0.5 * (lo + hi)
        if not math.isfinite(mid) or math.ceil(lo) > hi:   # unbounded, or clear
            break
        x0 += (math.floor(mid) + 0.5 - mid) / (F_iter.degree - 1)
        if not hi - lo < 1.0:
            break
    strip = (x0, x0 + 1.0, y0, y1)
    lo, hi = fixed_points._x_range(fixed_points._strip_cells(F_iter, strip))
    if not hi - lo < fixed_points._SUBDIVISION_BUDGET:
        raise BudgetExceeded(f"about {hi - lo:.3g} admissible translates on {strip}")
    boxes, errors, continuum = [], {}, {}
    for k in range(math.ceil(-hi), math.floor(-lo) + 1):
        residue = (-k) % modulus
        Fk = deck_translate(F_iter, k)
        try:
            found = isolate_fixed_points(Fk, strip, resolution, lift_offset=k)
            owned = []
            for b in found:
                bx0, bx1, by0, by1 = b.box
                own = x0 <= 0.5 * (bx0 + bx1) < x0 + 1.0
                for seam, inside_right in ((x0, True), (x0 + 1.0, False)):
                    if bx0 <= seam <= bx1:
                        margin = _exclusion_margins(
                            Fk, [(bx0, seam, by0, by1), (seam, bx1, by0, by1)])[0]
                        left, right = (margin > 0).all(axis=1).tolist()
                        own = left == inside_right if left or right else None
                        break
                owned.append(own)
        except FixedContinuum:
            continuum.setdefault(residue, k)
            continue
        except ToolkitError as exc:
            errors[k] = f"{type(exc).__name__}: {exc}"
            continue
        for b, own in zip(found, owned):
            if own is None:
                errors[k] = f"BoundaryFixedPoint: the box {b.box} meets a seam of the strip"
            elif own:
                boxes.append(b)
    return fixed_points.NielsenReport(period, modulus, tuple(boxes), errors,
                                      tuple(continuum.values()))


def _record_isolations(m) -> list:
    """Patch fixed_points through the MonkeyPatch m so that every
    _strip_report call appends the list of its isolations, each a
    (lift_offset, region) pair; returns the list of those lists."""
    periods = []
    isolate, report = fixed_points.isolate_fixed_points, fixed_points._strip_report
    m.setattr(fixed_points, "isolate_fixed_points", lambda F, region, res, lift_offset=0:
              periods[-1].append((lift_offset, region)) or isolate(F, region, res, lift_offset))
    m.setattr(fixed_points, "_strip_report", lambda F, n, strip, res:
              periods.append([]) or report(F, n, strip, res))
    return periods


def _claims(reports):
    """_census plus completeness and each translate error's type: all that a
    sweep claims except box geometry and the boxes named in messages."""
    return [(c, r.complete, {k: msg.split(":")[0] for k, msg in r.errors.items()})
            for c, r in zip(_census(reports), reports)]


def _families_maps(seed):
    wl = _benchmark_workloads()
    return [F for _, F, _, _ in wl.families_setup(wl.families_inputs(seed))["sweeps"]]


@pytest.mark.parametrize("maps, n_max, x0", [
    ("census", 3, None), ("families 1", 3, None), ("families 601", 3, None),
    ("census", 3, 0.1), ("census", 3, 0.47), ("census", 3, 1.1),
], ids=["census", "families1", "families601", "x0=0.1", "x0=0.47", "x0=1.1"])
def test_searched_regions_keep_the_reference_claims(monkeypatch, maps, n_max, x0):
    # searching each class once, on one translate and only where the strip
    # enclosure leaves room for its fixed points, changes box geometry and
    # nothing else: the same counts, residues, continua and errors as
    # searching every translate on the whole strip and keeping the boxes
    # whose point lies in it
    Fs = ([zoo("power", d=d) for d in (2, 3, -2)] if maps == "census"
          else _families_maps(int(maps.split()[1])))
    for F in Fs:
        region = None if x0 is None else (x0, x0 + 1.0, -2.0, 2.0)
        swept = completeness_check(F, n_max, region=region)
        with monkeypatch.context() as m:
            m.setattr(fixed_points, "_strip_report", _reference_strip_report)
            reference = completeness_check(F, n_max, region=region)
        assert _claims(swept) == _claims(reference), F.name
        assert all(r.complete and not r.errors for r in swept)


@settings(derandomize=True)
@given(name=st.sampled_from([("power", {"d": 2}), ("power", {"d": 3}), ("power", {"d": -2}),
                             ("perturbed_power", {"d": 2, "eps": 0.05})]),
       n=st.integers(1, 3), height=st.sampled_from([1.0, 2.0]),
       x0=st.one_of(st.floats(-3.0, 3.0), _EDGE_FRACTIONS.map(lambda f: f[0] / f[1])))
def test_every_reference_point_lies_where_its_translate_searched(name, n, height, x0):
    # every box that an isolation on the whole strip certifies holds its
    # point in the region that its translate's search covers: its polished
    # point, when that lies in the strip, is in the region itself (a box
    # near the region's edge can stick out of it by up to its size), and a
    # translate that is not searched has no box anywhere on the jittered strip
    F = iterate(zoo(name[0], **name[1]), n)
    strip = (x0, x0 + 1.0, -height, height)
    cells = fixed_points._strip_cells(F, strip)
    lo, hi = fixed_points._x_range(cells)
    ks = range(math.ceil(-hi), math.floor(-lo) + 1)
    for k, region in zip(ks, fixed_points._translate_regions(cells, ks, strip)):
        Fk = deck_translate(F, k)
        found = isolate_fixed_points(Fk, strip, 1e-2, lift_offset=k)
        if region is None:
            assert found == []
            continue
        assert strip[0] <= region[0] < region[1] <= strip[1]
        assert strip[2] <= region[2] < region[3] <= strip[3]
        for b in found:
            px, py = polish_fixed_point(Fk, b)
            if strip[0] <= px <= strip[1] and strip[2] <= py <= strip[3]:
                assert region[0] <= px <= region[1] and region[2] <= py <= region[3]


def _reference_regions(cells, ks, strip):
    """_translate_regions one translate at a time, on every cell."""
    centres, half, D, r = cells
    regions = []
    for k in ks:
        kept = centres[np.hypot(D[:, 0] + k, D[:, 1]) <= r]
        if not len(kept):
            regions.append(None)
            continue
        lo = np.maximum(kept.min(axis=0) - half, strip[0::2])
        hi = np.minimum(kept.max(axis=0) + half, strip[1::2])
        regions.append((lo[0], hi[0], lo[1], hi[1]))
    return regions


def test_translate_regions_match_a_per_translate_loop_in_bounded_memory():
    # D_y = 0, as for end_swap(-2) at even n, lets every cell into the
    # (translate x cell) test, and 10,000 translates at once would take
    # 330 MB; in blocks the test stays under 16 MB. D_x on half-integers
    # with r = 2.5 puts cells exactly on the radius
    strip = (0.0, 1.0, -2.0, 2.0)
    centres = GridSpec(64, 64, (0.0, 1.0), (-2.0, 2.0)).points()
    rng = np.random.default_rng(26)
    D = np.column_stack([rng.integers(-20_000, 0, len(centres)) / 2.0, np.zeros(len(centres))])
    cells = (centres, np.array([0.5 / 63, 2.0 / 63]), D, 2.5)
    ks = range(1, 10_001)
    tracemalloc.start()
    try:
        regions = fixed_points._translate_regions(cells, ks, strip)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert regions == _reference_regions(cells, ks, strip)
    assert 0 < regions.count(None) < len(ks)
    # and a real strip enclosure, whose D_y filter drops most cells
    F, strip = iterate(zoo("power", d=3), 4), (-0.25, 0.75, -2.0, 2.0)
    cells = fixed_points._strip_cells(F, strip)
    lo, hi = fixed_points._x_range(cells)
    ks = range(math.ceil(-hi), math.floor(-lo) + 1)
    assert fixed_points._translate_regions(cells, ks, strip) == _reference_regions(
        cells, ks, strip)


def test_sweep_records_a_failed_translate(monkeypatch):
    # this sheared displacement field is too badly conditioned for the
    # sampled exclusion bound near its zero on the default strip: every
    # attempt keeps a mop-up fragment, and the diagnosis finds no continuum,
    # so each of the _ATTEMPTS jittered attempts runs. The failure is
    # recorded for its class instead of aborting the sweep. Its one class
    # (d - 1 = 1) is searched once, on its first translate k = -20, over
    # the regions of all 41 translates that have one, moved onto it.
    # Its bound is the spectral norm of [[2, 30], [0, 2]].
    shear = make_lift(lambda p: np.stack(
        [2 * p[..., 0] + 30 * p[..., 1], 2 * p[..., 1]], axis=-1), 2,
        lipschitz=_norm_bound(4.0, 904.0, 60.0))
    attempts = []
    real_once = fixed_points._isolate_once
    searched = _record_isolations(monkeypatch)
    monkeypatch.setattr(fixed_points, "_isolate_once",
                        lambda F, region, res, audit, lift_offset:
                        attempts.append((lift_offset, region))
                        or real_once(F, region, res, audit, lift_offset))
    (report,) = completeness_check(shear, 1, resolution=1e-2)
    assert report.errors == {-20: "BoundaryFixedPoint: fixed point kept hitting "
                                  "subdivision boundaries after 4 attempts"}
    assert not report.complete
    ((k, region),) = searched[0]
    assert k == -20 and region[:2] == pytest.approx((-0.48, 40.48), abs=0.01)
    # every attempt jitters the region that the class's isolation searched
    assert attempts == [(k, fixed_points._jittered(region, a))
                        for a in range(1, fixed_points._ATTEMPTS + 1)]


@given(d=st.sampled_from([2, 3, -2]), n_max=st.integers(1, 3),
       x0=st.one_of(st.floats(-3.0, 3.0), _EDGE_FRACTIONS.map(lambda f: f[0] / f[1])))
def test_each_residue_is_owned_once_on_any_strip(d, n_max, x0):
    # the fixed points of power(d)^n sit at x = j / (d^n - 1), so a strip
    # that starts at such a fraction has a fixed point on both of its edges,
    # one lift of one periodic point each: each residue is still owned once,
    # by one isolation of its class
    with pytest.MonkeyPatch.context() as m:
        periods = _record_isolations(m)
        reports = completeness_check(zoo("power", d=d), n_max,
                                     region=(x0, x0 + 1.0, -1.0, 1.0), resolution=1e-2)
    for r, isolations in zip(reports, periods, strict=True):
        assert r.count_lower_bound == r.modulus == abs(d ** r.period - 1)
        assert sorted(r.box_residues) == list(range(r.modulus))
        assert sorted((-k) % r.modulus for k, _ in isolations) == list(range(r.modulus))
        assert not r.errors and not r.continuum_offsets


@pytest.mark.parametrize("d", [2, 3, -2, -3])
@pytest.mark.parametrize("x0", [1 / 3, 1 / 2, -1 / 2, 0.0],
                         ids=["third", "half", "minus-half", "zero"])
def test_each_class_region_holds_its_point(monkeypatch, d, x0):
    # power(d)^n + (k, 0) fixes (-k / M, 0), M = d^n - 1, and strips that
    # start at 1/3 or 1/2 have such a point on both edges, on two translates
    # of one class: the class's region, its translates' regions moved onto
    # its first translate k, holds (-k / M, 0) and is a few strip cells wide,
    # not the strip's width, as it would be were the regions not moved, or
    # moved the wrong way
    periods = _record_isolations(monkeypatch)
    strip = (x0, x0 + 1.0, -2.0, 2.0)
    reports = completeness_check(zoo("power", d=d), 3, region=strip, resolution=1e-2)
    for n, (r, isolations) in enumerate(zip(reports, periods, strict=True), start=1):
        M = d ** n - 1
        cell = 2.0 * fixed_points._strip_cells(iterate(zoo("power", d=d), n), strip)[1][0]
        assert len(isolations) == r.count_lower_bound == abs(M)
        for k, (a, b, c, e) in isolations:
            assert a <= -k / M <= b and c <= 0.0 <= e
            assert b - a <= 6.0 * cell


def test_continuum_counts_once_per_residue(monkeypatch):
    # on the strip [0, 1], both k and k - 3 are admissible translates of
    # end_swap(-2)^2 for one residue: its vertical lines x = 0 and x = 1
    # are one circle of the annulus, so its class is searched once
    periods = _record_isolations(monkeypatch)
    report = fixed_points._strip_report(iterate(zoo("end_swap", d=-2), 2), 2,
                                        (0.0, 1.0, -2.0, 2.0), 1e-3)
    assert [k for k, _ in periods[0]] == [-3, -2, -1]
    assert sorted((-k) % 3 for k in report.continuum_offsets) == [0, 1, 2]
    assert report.count_lower_bound == 3 and report.complete and not report.errors


def test_a_point_on_both_edges_is_isolated_once(monkeypatch):
    # power(3) fixes x = -1/2 and 1/2, the edges of the strip [-1/2, 1/2],
    # two lifts of one point, fixed by F + (1, 0) and F + (-1, 0): one class,
    # searched once, beside the class of x = 0
    periods = _record_isolations(monkeypatch)
    (report,) = completeness_check(zoo("power", d=3), 1, region=(-0.5, 0.5, -2.0, 2.0))
    assert [k for k, _ in periods[0]] == [-1, 0]
    assert sorted(report.box_residues) == [0, 1] and not report.errors


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


@pytest.mark.parametrize("newton", [True, False], ids=["newton", "descent"])
def test_translation_identity_residues_match_polished_residues(monkeypatch, newton):
    # the sweep reads each box's residue off its translate, (-k) mod |d^n - 1|;
    # polishing the point and classifying it from scratch must agree on
    # every census box, whether Newton polishes it or, with every Newton
    # solve failing, the greedy descent from the box's centre does
    sweeps = [(F, completeness_check(F, 4, resolution=1e-3))
              for F in (zoo("power", d=d) for d in (2, 3, -2))]
    failed = []
    if not newton:
        def solve(*args):
            failed.append(args)
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(np.linalg, "solve", solve)
    for F, reports in sweeps:
        for r in reports:
            assert r.complete and not r.errors
            Fn = iterate(F, r.period)
            for b, res in zip(r.fixed_boxes, r.box_residues):
                point = polish_fixed_point(deck_translate(Fn, b.lift_offset), b)
                assert res == (-b.lift_offset) % r.modulus
                assert nielsen_residue(F, AnnulusPoint(point[0], point[1]), r.period) == res
    boxes = sum(len(r.fixed_boxes) for _, reports in sweeps for r in reports)
    assert len(failed) == (0 if newton else boxes)


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

def _count_work(monkeypatch) -> dict:
    """The search's work from here on, counted by wrapping fixed_points'
    functions: exclusion steps and the boxes they test, leaf degrees,
    isolations, strip enclosures and continuum diagnoses, the calls of
    proofs.enclosure and their centres (every exclusion step and strip
    enclosure is one call of it), and the map points that _displacement
    evaluates (the diagnoses' descents and ring probes, and polishing)."""
    work = dict.fromkeys(("steps", "boxes", "degrees", "isolations", "enclosures",
                          "continua", "proofs", "centres", "points"), 0)
    sizes = {"steps": "boxes", "proofs": "centres"}

    def counted(name, key):
        inner = getattr(fixed_points, name)

        def call(*args, **kwargs):
            work[key] += np.size(args[1]) // 2 if key == "points" else 1
            if key in sizes:
                work[sizes[key]] += len(args[1])
            return inner(*args, **kwargs)

        monkeypatch.setattr(fixed_points, name, call)

    for name, key in (("_exclusion_margins", "steps"), ("_boundary_degree", "degrees"),
                      ("isolate_fixed_points", "isolations"),
                      ("_strip_cells", "enclosures"),
                      ("diagnose_continuum", "continua"), ("enclosure", "proofs"),
                      ("_displacement", "points")):
        counted(name, key)
    return work


def test_census_reports_are_byte_identical(monkeypatch):
    # the census benchmark's digest of the same reports (perfbench census),
    # and the search's work for them
    work = _count_work(monkeypatch)
    text = "\n".join(reports_to_json(completeness_check(zoo("power", d=d), 4))
                     for d in (2, 3, -2))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9bb9f1d5ac4a51df1922e1492d00a1e545602ac56fb0be17e88ac02011863355")
    assert work == {"steps": 913, "boxes": 1859, "degrees": 200, "isolations": 172,
                    "enclosures": 12, "continua": 0, "proofs": 925, "centres": 65883,
                    "points": 0}


def _benchmark_workloads():
    """perfbench/workloads.py, imported from its file without changing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload, digest", [
    ("families", "48d22fcdbc9a9088ce0d943a1d05d58a6c27ed0542f924e7c6248d45af5d0892"),
    ("index", "564726befa429e054063cecb1ce9130075000640914c4f2c0d1f1a7432e1a87d"),
], ids=["families", "index"])
def test_benchmark_reports_are_byte_identical(workload, digest):
    # one pass of the benchmark workload at seed 1: the index digest is the
    # one BENCH_27.json records; the families digest depends on the seed
    wl = _benchmark_workloads()
    inputs, setup, run_pass = wl.WORKLOADS[workload]
    res = wl.PassResult()
    run_pass(setup(inputs(1)), res)
    assert res.digest() == digest


def test_families_work_is_pinned(monkeypatch):
    # one pass of the families benchmark workload at seed 1, counted as the
    # census is: the sweeps of five maps (three end_swap continua among them)
    # and the tube isolations. The map points are the diagnoses' descents and
    # ring probes about the box where each first attempt stopped
    wl = _benchmark_workloads()
    inputs, setup, run_pass = wl.WORKLOADS["families"]
    state = setup(inputs(1))
    work = _count_work(monkeypatch)
    res = wl.PassResult()
    run_pass(state, res)
    assert res.failed == 0 and res.attempted > 0
    assert work == {"steps": 668, "boxes": 8383, "degrees": 169, "isolations": 150,
                    "enclosures": 15, "continua": 3, "proofs": 683, "centres": 136887,
                    "points": 2964}


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
