"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see them)."""

import time

import numpy as np

from annulift import fixed_points
from annulift.annulus_maps import (
    AnnulusPoint,
    counterexample_deg_minus1,
    counterexample_spine,
    counterexample_tube_cover,
    deck_translate,
    degree_check,
    iterate,
    projected_plane_map,
    zoo,
)
from annulift.curves import ClosedCurve, circle
from annulift.fixed_points import (
    IsolationAudit,
    completeness_check,
    growth_rate,
    isolate_fixed_points,
    nielsen_residue,
    reports_to_json,
)
from annulift.index import (
    homotopy_index_profile,
    index_jump_experiment,
    lefschetz_index,
    quad_configuration_index,
    saddle_rectangle_index,
)

TRIALS = 200


def _verdict(num, name, ok, detail=""):
    suffix = f" - {detail}" if detail else ""
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} ({name}) failed {suffix}"


def test_criterion_1_power_map_residue_census():
    ok = True
    details = []
    for d in (2, 3, -2):
        start = time.perf_counter()
        reports = completeness_check(zoo("power", d=d), 4, resolution=1e-3)
        elapsed = time.perf_counter() - start
        counts = [r.count_lower_bound for r in reports]
        expected = [abs(d ** n - 1) for n in range(1, 5)]
        good = (counts == expected
                and all(r.complete for r in reports)
                and all(r.realized_residues == frozenset(range(r.modulus))
                        for r in reports)
                and elapsed < 60.0)
        ok = ok and good
        details.append(f"d={d}: counts {counts} vs {expected}, {elapsed:.1f}s")
    _verdict(1, "power-map residue counts, n <= 4", ok, "; ".join(details))


def test_criterion_2_invariant_circle_index_dichotomy():
    results = {}
    for d in (2, 3, 5):
        f = projected_plane_map(zoo("power", d=d))
        results[d] = (lefschetz_index(f, circle(0.5, 256)),
                      lefschetz_index(f, circle(2.0, 256)))
    ok = all(results[d] == (1, d) for d in (2, 3, 5))
    _verdict(2, "index 1 inside / d outside the invariant circle", ok, f"{results}")


def test_criterion_3_index_identity_suite():
    def saddle(p):
        p = np.asarray(p, dtype=float)
        return np.stack([2 * p[..., 0], 0.5 * p[..., 1]], axis=-1)

    def crossed(p):
        p = np.asarray(p, dtype=float)
        return np.stack([-2 * p[..., 0], 0.5 * p[..., 1]], axis=-1)

    frame = (np.array([[-3.0, 1.0], [3.0, 1.0]]), np.array([[-3.0, -1.0], [3.0, -1.0]]),
             np.array([[-1.0, -3.0], [-1.0, 3.0]]), np.array([[1.0, -3.0], [1.0, 3.0]]))
    g = circle(1.0, 256)
    square = ClosedCurve(np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]))

    def squash_family(times, pts):
        img = saddle(pts)
        return np.stack([np.broadcast_to(img[..., 0], (len(times), len(pts))),
                         (1.0 - times)[:, None] * img[..., 1]], axis=-1)

    checks = {
        "saddle": saddle_rectangle_index(saddle, (-1, 1, -1, 1)) == -1,
        "crossed": saddle_rectangle_index(crossed, (-1, 1, -1, 1)) == 1,
        "quad straight": quad_configuration_index(saddle, *frame, expect=-1) == -1,
        "quad swapped": quad_configuration_index(crossed, *frame, expect=1) == 1,
        "jump out": index_jump_experiment(g, (0.0, 0.125), "out", inner_point=(0, 0)) == (1, 0),
        "jump in": index_jump_experiment(g, (0.0, 0.125), "in", inner_point=(0, 0)) == (0, 1),
        "homotopy 20 steps": homotopy_index_profile(
            squash_family, square, np.linspace(0, 1, 20)) == [-1] * 20,
    }
    _verdict(3, "index identity suite", all(checks.values()),
             ", ".join(f"{k}={'ok' if v else 'BAD'}" for k, v in checks.items()))


def test_criterion_4_attracting_and_repelling_ends():
    ok = True
    details = []
    for name, d in (("ends_attracting", 2), ("ends_repelling", 2), ("ends_repelling", -2)):
        reports = completeness_check(zoo(name, d=d, lam=1.0), 3, resolution=1e-3)
        good = all(r.complete for r in reports) and all(
            r.realized_residues == frozenset(range(r.modulus)) for r in reports)
        ok = ok and good
        details.append(f"{name}({d}): {[r.count_lower_bound for r in reports]}")
    _verdict(4, "attracting/repelling ends are complete, n <= 3", ok, "; ".join(details))


def test_criterion_5_end_swap_odd_iterate_counts():
    reports = completeness_check(zoo("end_swap", d=-2), 3, resolution=1e-3)
    c1 = reports[0].count_lower_bound
    c3 = reports[2].count_lower_bound
    ok = c1 >= 1 and c3 >= 9
    _verdict(5, "end-swap odd iterates realize |d^k - 1| points", ok,
             f"k=1 count {c1} (need >= 1), k=3 count {c3} (need >= 9)")


def test_criterion_6_degree_minus_one_example():
    C = counterexample_deg_minus1()
    deg_ok = degree_check(C) == -1
    boxes = []
    for box in counterexample_tube_cover(rho=0.015, step=0.08):
        boxes.extend(isolate_fixed_points(C, box, 1e-3))
    none_on_set = len(boxes) == 0
    t = np.linspace(-1.2, 2.2, 100_001)
    pts = counterexample_spine(t)
    min_disp = float(np.hypot(*(C(pts) - pts).T).min())
    oracle_ok = min_disp > 1e-4
    _verdict(6, "degree -1 example is fixed point free on its invariant set",
             deg_ok and none_on_set and oracle_ok,
             f"degree ok={deg_ok}, certified boxes={len(boxes)}, "
             f"dense displacement min {min_disp:.4f} > 1e-4")


def test_criterion_7_growth_rate_trend():
    reports = completeness_check(zoo("power", d=2), 6, resolution=1e-3)
    rates = {m: growth_rate(reports[:m]) for m in (2, 4, 6)}
    target = np.log(63) / 6
    ok = (abs(rates[6] - target) < 0.01
          and rates[6] < np.log(2)
          and rates[2] <= rates[4] <= rates[6])
    _verdict(7, "growth rate approaches ln 2 from below", ok,
             f"rates {rates[2]:.4f} <= {rates[4]:.4f} <= {rates[6]:.4f}, "
             f"target {target:.4f}, ln2 {np.log(2):.4f}")


def _random_translate(rng):
    d = int(rng.choice([2, 3, -2]))
    n = int(rng.integers(1, 3))
    modulus = abs(d ** n - 1)
    k = int(rng.integers(0, modulus))
    F = deck_translate(iterate(zoo("power", d=d), n), k)
    x_star = -k / (d ** n - 1)
    return F, x_star, d, n, k


def test_criterion_8a_refinement_persistence():
    rng = np.random.default_rng(2024)
    failures = 0
    for _ in range(TRIALS):
        F, x_star, *_ = _random_translate(rng)
        shift = rng.uniform(-0.05, 0.05, 2)
        region = (x_star - 0.4 + shift[0], x_star + 0.4 + shift[0],
                  -0.4 + shift[1], 0.4 + shift[1])
        boxes = isolate_fixed_points(F, region, 1e-2)
        if len(boxes) != 1:
            failures += 1
            continue
        finer = isolate_fixed_points(F, boxes[0].box, 2.5e-3)
        if len(finer) != 1 or not boxes[0].contains(finer[0].center):
            failures += 1
    _verdict("8a", f"refinement persistence, {TRIALS} trials", failures == 0,
             f"{failures} failures")


def test_criterion_8b_exclusion_oracle_agreement():
    rng = np.random.default_rng(77)
    pool = []
    while len(pool) < TRIALS:
        F, x_star, *_ = _random_translate(rng)
        audit = IsolationAudit()
        isolate_fixed_points(F, (x_star - 1.0, x_star + 1.0, -1.0, 1.0), 1e-2,
                             audit=audit)
        pool.extend((F, rec) for rec in audit.discarded)
    idx = rng.choice(len(pool), size=TRIALS, replace=False)
    failures = 0
    for i in idx:
        F, (box, sampled_min, margin) = pool[int(i)]
        x0, x1, y0, y1 = box
        gx, gy = np.meshgrid(np.linspace(x0, x1, 33), np.linspace(y0, y1, 33))
        pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        dense = float(np.hypot(*(F(pts) - pts).T).min())
        if not (dense > 0.0 and dense >= 0.999 * margin):
            failures += 1
    _verdict("8b", f"exclusion oracle agreement, {TRIALS} trials", failures == 0,
             f"{failures} failures")


def test_criterion_8c_residue_lift_independence():
    rng = np.random.default_rng(101)
    failures = 0
    for _ in range(TRIALS):
        d = int(rng.choice([2, 3, -2]))
        n = int(rng.integers(1, 4))
        modulus = abs(d ** n - 1)
        k = int(rng.integers(0, modulus))
        theta = (-k / (d ** n - 1)) % 1.0
        point = AnnulusPoint(theta, 0.0)
        j = int(rng.integers(-5, 6))
        F = zoo("power", d=d)
        r0 = nielsen_residue(F, point, n)
        rj = nielsen_residue(F, point, n, lift_x_offset=j)
        if not (r0 == rj == (-k) % modulus):
            failures += 1
    _verdict("8c", f"residue lift independence, {TRIALS} trials", failures == 0,
             f"{failures} failures")


def test_criterion_8d_schedule_independent_output(monkeypatch):
    # the quadtree tests its boxes a chunk at a time; chunk 1 is the plain
    # one-box-at-a-time depth-first order
    rng = np.random.default_rng(555)
    chunks = (1, fixed_points._CHUNK, 4096)
    failures = 0
    for _ in range(TRIALS):
        d = int(rng.choice([2, 3]))
        n_max = int(rng.integers(1, 3))
        res = float(rng.choice([1e-2, 5e-3]))
        w = float(rng.uniform(3.0, 6.0))
        region = (-w, w, -1.0, 1.0)
        F = zoo("power", d=d)
        outputs = set()
        for chunk in chunks:
            monkeypatch.setattr(fixed_points, "_CHUNK", chunk)
            outputs.add(reports_to_json(completeness_check(
                F, n_max, region=region, resolution=res)))
        monkeypatch.undo()
        if len(outputs) != 1:
            failures += 1
    _verdict("8d", f"schedule-independent sweeps, {TRIALS} trials", failures == 0,
             f"{failures} failures")
