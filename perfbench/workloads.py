"""The three benchmark workloads: inputs drawn from a seed, set-up, and one
pass of operations, each checked against its exact expected answer.

Every call into annulift goes through a module attribute looked up at call
time (``fixed_points.completeness_check``, not a name imported once), so the
span wrappers in ``tracing.py`` see the calls when they are installed.

Why these workloads:

- ``census``: the power-map residue census (acceptance criterion 1). The
  quadtree (``fixed_points``) does almost all the work on the cheapest map.
  Power maps have no free parameter, so the seed draws nothing.
- ``families``: the same quadtree on expensive maps (ends, end swap,
  perturbed power and its tabulated grid copy) plus the degree -1 tube
  sweep. Map evaluation, the bilinear grid gather, continuum diagnosis and
  the no-fixed-point exclusion path carry a larger share here.
- ``index``: no quadtree at all. Lefschetz indices of iterated power maps
  along circles plus the lemma suite, so ``index`` and ``curves`` do the
  work.

A query, for the latency percentiles, is one request of the kind a user
sends, chosen per workload so that there are hundreds of them in a pass
and the 50th and 90th percentiles fall inside a cluster of like requests:

- ``census``: certifying one deck translate (an ``isolate_fixed_points``
  call, what ``annulift fixed-points`` runs); 172 a pass. Its boundary-degree
  calls split into a fast 89% and a slow 11%, which puts their 90th
  percentile on the gap.
- ``families``: one boundary degree (a ``lefschetz_index`` call, what
  ``annulift index`` answers) made by the sweeps; about 900 a pass. Its
  isolations are unsteady: 87 of 150 are tiny tube boxes, and the rest
  depend on the seeded ``lam``.
- ``index``: the index dichotomy of one map, its ``lefschetz_index`` on the
  inner and on the outer circle (``annulift index`` twice); 720 a pass. Of
  single calls, 3 in 36 are slow (refinement), which puts their 90th
  percentile in the tail of the fast ones.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from annulift import annulus_maps, curves, fixed_points, lemma_suite
from annulift import index as index_mod

RESOLUTION = 1e-3

CENSUS_DEGREES = (2, 3, -2)
CENSUS_NMAX = 4

FAMILIES_NMAX = 3
LAM_RANGE = (0.5, 1.0)
EPS_RANGE = (0.02, 0.07)
GRID_NX, GRID_NY, GRID_Y = 256, 257, (-2.0, 2.0)
TUBE_RHO, TUBE_STEP = 0.015, 0.08

INDEX_DEGREES = (2, 3, -2)
INDEX_NMAX = 6
INDEX_SAMPLES = 256
INDEX_ROUNDS = 40          # rounds per pass; each draws fresh radii
INNER_RANGE = (0.5, 0.9)
OUTER_RANGE = (1.1, 2.0)


@dataclass
class PassResult:
    """Outcome of one pass: op accounting, query intervals, digested output."""

    attempted: int = 0
    failed: int = 0
    queries: list = field(default_factory=list)     # (start, end) perf_counter
    outputs: list = field(default_factory=list)     # JSON text, digested
    failures: list = field(default_factory=list)    # one line per failed op

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def fail(self, ops: int, what: str) -> None:
        self.attempted += ops
        self.failed += ops
        self.failures.append(f"{what} ({ops} ops)")

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.outputs).encode()).hexdigest()


def _timed(res: PassResult, fn, *args, **kwargs):
    """Call fn, recording it as one query even when it raises."""
    t = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        res.queries.append((t, time.perf_counter()))


@contextlib.contextmanager
def _calls_as_queries(res: PassResult, name: str):
    """Time each call a sweep makes to ``fixed_points.<name>`` as one query.
    Hundreds to a thousand calls a pass, so the timer costs far less than
    the noise."""
    fn = getattr(fixed_points, name)
    setattr(fixed_points, name, functools.partial(_timed, res, fn))
    try:
        yield
    finally:
        setattr(fixed_points, name, fn)


def _check_reports(res: PassResult, label: str, reports, counts, continua) -> None:
    """One op per (map, period): exact count, completeness, every residue
    realized, no translate errors, and the expected number of continua."""
    for n, (want, want_cont) in enumerate(zip(counts, continua), start=1):
        r = reports[n - 1] if n <= len(reports) else None
        ok = (r is not None and r.period == n
              and r.count_lower_bound == want and r.complete
              and r.realized_residues == frozenset(range(r.modulus))
              and not r.errors and len(r.continuum_offsets) == want_cont)
        got = ("missing" if r is None else
               f"count {r.count_lower_bound}, complete {r.complete}, "
               f"continua {len(r.continuum_offsets)}, errors {len(r.errors)}")
        res.check(ok, f"{label} n={n}: {got}; expected count {want}, continua {want_cont}")


def _sweep(res: PassResult, label: str, F, n_max: int, counts, continua) -> None:
    try:
        reports = fixed_points.completeness_check(F, n_max, resolution=RESOLUTION)
    except Exception as exc:  # a raised error is a failed op, not an abort
        res.fail(n_max, f"{label}: {type(exc).__name__}: {exc}")
        res.outputs.append(f"{label}: {type(exc).__name__}")
        return
    res.outputs.append(fixed_points.reports_to_json(reports))
    _check_reports(res, label, reports, counts, continua)


# -- census ---------------------------------------------------------------------

def census_inputs(seed: int) -> dict:
    return {"degrees": list(CENSUS_DEGREES), "n_max": CENSUS_NMAX}


def census_setup(inputs: dict) -> dict:
    return {"maps": [(d, annulus_maps.zoo("power", d=d)) for d in inputs["degrees"]],
            "n_max": inputs["n_max"]}


def census_pass(state: dict, res: PassResult) -> None:
    n_max = state["n_max"]
    with _calls_as_queries(res, "isolate_fixed_points"):
        for d, F in state["maps"]:
            counts = [abs(d ** n - 1) for n in range(1, n_max + 1)]
            _sweep(res, f"power({d})", F, n_max, counts, [0] * n_max)


# -- families -------------------------------------------------------------------

def families_inputs(seed: int) -> dict:
    """lam for the attracting-ends map and its mirror in LAM_RANGE for the
    repelling one: both sweeps cost more as their lam shrinks, so the pair
    costs about the same for every seed."""
    rng = np.random.default_rng([seed, 1])
    lam = float(rng.uniform(*LAM_RANGE))
    return {"lam": lam, "lam_mirror": sum(LAM_RANGE) - lam,
            "eps": float(rng.uniform(*EPS_RANGE))}


def _grid_copy(F):
    """Tabulate F on the benchmark grid: nx columns on [0, 1), ny rows on y."""
    xs = np.arange(GRID_NX, dtype=float) / GRID_NX
    ys = np.linspace(GRID_Y[0], GRID_Y[1], GRID_NY)
    gx, gy = np.meshgrid(xs, ys)
    values = F(np.stack([gx, gy], axis=-1))
    return annulus_maps.grid_lift_from_values(values, F.degree, 0.0, GRID_Y[0], GRID_Y[1],
                                              name="grid_perturbed_power")


def families_setup(inputs: dict) -> dict:
    zoo = annulus_maps.zoo
    lam, lam_mirror, eps = inputs["lam"], inputs["lam_mirror"], inputs["eps"]
    perturbed = zoo("perturbed_power", d=2, eps=eps)
    sweeps = [
        (f"ends_attracting(2, {lam!r})", zoo("ends_attracting", d=2, lam=lam), [1, 3, 7], [0, 0, 0]),
        (f"ends_repelling(-2, {lam_mirror!r})", zoo("ends_repelling", d=-2, lam=lam_mirror),
         [3, 3, 9], [0, 0, 0]),
        ("end_swap(-2)", zoo("end_swap", d=-2), [3, 3, 9], [0, 3, 0]),
        (f"perturbed_power(2, {eps!r})", perturbed, [1, 3, 7], [0, 0, 0]),
        (f"grid perturbed_power(2, {eps!r})", _grid_copy(perturbed), [1, 3, 7], [0, 0, 0]),
    ]
    tube_map = annulus_maps.counterexample_deg_minus1()
    tube = annulus_maps.counterexample_tube_cover(rho=TUBE_RHO, step=TUBE_STEP)
    return {"sweeps": sweeps, "tube_map": tube_map, "tube": tube}


def _tube_sweep(F, boxes) -> list:
    found = []
    for box in boxes:
        found.extend(fixed_points.isolate_fixed_points(F, box, RESOLUTION))
    return found


def families_pass(state: dict, res: PassResult) -> None:
    with _calls_as_queries(res, "lefschetz_index"):
        _families_ops(state, res)


def _families_ops(state: dict, res: PassResult) -> None:
    for label, F, counts, continua in state["sweeps"]:
        _sweep(res, label, F, FAMILIES_NMAX, counts, continua)
    label = f"degree -1 tube sweep ({len(state['tube'])} boxes)"
    try:
        found = _tube_sweep(state["tube_map"], state["tube"])
    except Exception as exc:
        res.fail(1, f"{label}: {type(exc).__name__}: {exc}")
        res.outputs.append(f"{label}: {type(exc).__name__}")
        return
    res.outputs.append(json.dumps([list(b.box) for b in found]))
    res.check(not found, f"{label}: certified {len(found)} boxes, expected 0")


# -- index ----------------------------------------------------------------------

def index_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    shape = (INDEX_ROUNDS, len(INDEX_DEGREES), INDEX_NMAX)
    return {"inner": rng.uniform(*INNER_RANGE, size=shape).tolist(),
            "outer": rng.uniform(*OUTER_RANGE, size=shape).tolist()}


def expected_indices(d: int, n: int) -> tuple[int, int]:
    """(inside, outside) the invariant circle: 1 and d^n, swapped when d^n < 0."""
    inside, outside = 1, d ** n
    return (outside, inside) if outside < 0 else (inside, outside)


def index_setup(inputs: dict) -> dict:
    maps = [[(d, n, annulus_maps.projected_plane_map(
                annulus_maps.iterate(annulus_maps.zoo("power", d=d), n)))
             for n in range(1, INDEX_NMAX + 1)] for d in INDEX_DEGREES]
    return {"maps": maps, "inner": inputs["inner"], "outer": inputs["outer"]}


def _dichotomy(f, radii) -> list:
    """Index of f on the inner and on the outer circle (criterion 2)."""
    got = []
    for r in radii:
        try:
            got.append(index_mod.lefschetz_index(f, curves.circle(r, INDEX_SAMPLES)))
        except Exception as exc:  # a raised error is a failed op, not an abort
            got.append(type(exc).__name__)
    return got


def index_pass(state: dict, res: PassResult) -> None:
    got_all = []
    for rnd in range(INDEX_ROUNDS):
        for i, row in enumerate(state["maps"]):
            for j, (d, n, f) in enumerate(row):
                radii = (state["inner"][rnd][i][j], state["outer"][rnd][i][j])
                got = _timed(res, _dichotomy, f, radii)
                got_all.extend(got)
                for r, g, want in zip(radii, got, expected_indices(d, n)):
                    res.check(g == want, f"power({d})^{n} on circle r={r!r}: "
                                         f"index {g}, expected {want}")
        try:
            suites = lemma_suite.run_all()
        except Exception as exc:
            res.fail(len(lemma_suite.ALL_SUITES), f"lemma suite: {type(exc).__name__}: {exc}")
            got_all.append(type(exc).__name__)
            continue
        for s in suites:
            got_all.append([s.name, s.passed, s.detail])
            res.check(s.passed, f"lemma suite {s.name}: {s.detail}")
    res.outputs.append(json.dumps(got_all))


WORKLOADS = {
    "census": (census_inputs, census_setup, census_pass),
    "families": (families_inputs, families_setup, families_pass),
    "index": (index_inputs, index_setup, index_pass),
}
